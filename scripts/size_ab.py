"""Size of the library in two checkouts, side by side.

    python scripts/size_ab.py PARENT CHANGE

For each module of `src/integrikit` in either checkout, and in total, prints
three counts on each side (A is PARENT, B is CHANGE) and their change:
physical lines, code lines (not blank and not only a comment) and AST
statements (`ast.stmt` nodes).  A statement count does not fall when
statements are packed onto fewer lines, so a line count that falls while it
stays level shows packing.  A module missing on one side counts 0 there.
"""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join("src", "integrikit")
COUNTS = ("lines", "code", "stmts")


def sizes(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    code = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text, path)))
    return {"lines": len(lines), "code": code, "stmts": stmts}


def package_sizes(root: str) -> dict:
    pkg = os.path.join(root, PACKAGE)
    if not os.path.isdir(pkg):
        raise SystemExit(f"{root} has no {PACKAGE}")
    return {name: sizes(os.path.join(pkg, name))
            for name in sorted(os.listdir(pkg)) if name.endswith(".py")}


def main(argv: list) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    parent, change = (package_sizes(root) for root in argv)
    zero = dict.fromkeys(COUNTS, 0)
    header = f"{'module':<16}" + "".join(f"{c + ' A':>9}{c + ' B':>9}{'Δ':>7}" for c in COUNTS)
    print(header)
    total = {side: dict(zero) for side in ("A", "B")}
    for name in sorted(set(parent) | set(change)):
        a, b = parent.get(name, zero), change.get(name, zero)
        for c in COUNTS:
            total["A"][c] += a[c]
            total["B"][c] += b[c]
        print(f"{name:<16}" + "".join(f"{a[c]:>9}{b[c]:>9}{b[c] - a[c]:>+7}" for c in COUNTS))
    a, b = total["A"], total["B"]
    print(f"{'total':<16}" + "".join(f"{a[c]:>9}{b[c]:>9}{b[c] - a[c]:>+7}" for c in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
