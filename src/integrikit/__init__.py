"""integrikit: symbolic-numeric integrability checks for differential
systems and fields.

Subpackages follow the computational layers: ``expr`` (expression trees),
``realfield`` (forms on R2/R3), ``cplx`` (complex plane), ``odekit``
(first-order ODEs and the energy method), ``odesys`` (ODE systems and
linear algebra), ``flow`` (vector-field flows), ``charpde``
(characteristics for first-order PDEs), ``btlax`` (Bäcklund/Lax/Maxwell)
and the ``integrikit`` command-line front end in ``cli``.
"""

from .expr import Expr, diff, evaluate, parse, render

__version__ = "0.1.0"

__all__ = ["Expr", "parse", "render", "diff", "evaluate", "__version__"]
