import json
import math
import sys

import numpy as np
import pytest

from integrikit import cli
from integrikit.cli import main
from integrikit.expr import NumericError
from integrikit.realfield import gauss_nodes

from conftest import child_env


def numeric_errors() -> list:
    """Every class that inherits NumericError, from every module."""
    from integrikit import btlax, charpde, cplx, flow, odekit, odesys  # noqa: F401
    found, todo = set(), [NumericError]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    return code, json.loads(out)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, rep = run_json(["exact-check", "--P", "y", "--Q", "x",
                              "--region", "-2,2,-2,2"], capsys)
        assert code == 0 and rep["status"] == "pass"

    def test_fail_is_one(self, capsys):
        code, rep = run_json(["exact-check", "--P", "y", "--Q", "-x",
                              "--region", "-2,2,-2,2"], capsys)
        assert code == 1 and rep["status"] == "fail"
        assert rep["max_residual"] == 2

    def test_usage_error_is_two_with_report(self, capsys):
        code, rep = run_json(["exact-check", "--P", "y", "--bogus", "1"], capsys)
        assert code == 2 and rep["status"] == "error"
        assert "bogus" in rep["diagnostics"]["error"]

    def test_parse_error_is_two(self, capsys):
        code, rep = run_json(["exact-check", "--P", "y +", "--Q", "x",
                              "--region", "-2,2,-2,2"], capsys)
        assert code == 2 and rep["status"] == "error"

    def test_numeric_error_is_three(self, capsys):
        code, rep = run_json(["contour", "--f", "1/(z-1)",
                              "--circle", "0,0,1"], capsys)
        assert code == 3 and rep["status"] == "error"

    def test_unknown_command_is_two(self, capsys):
        code, rep = run_json(["frobnicate"], capsys)
        assert code == 2

    # every error the CLI reported with exit 3 before NumericError marked them
    NUMERIC = ["EvalError", "NonConservativeError", "ExcludedPointError",
               "EndpointMismatchError", "NonExactError", "TurningPointError",
               "IntegrationError", "SingularMatrixSampleError", "NotHarmonicError",
               "WindingError", "TransversalityError", "CharacteristicFanError",
               "NotPotentialError", "EquilibriumError"]

    def test_every_numeric_error_is_marked(self):
        assert set(self.NUMERIC) <= {c.__name__ for c in numeric_errors()}

    @pytest.mark.parametrize("error", numeric_errors() + [
        np.linalg.LinAlgError, ZeroDivisionError, RuntimeError],
        ids=lambda c: c.__name__)
    def test_a_numeric_error_in_a_handler_is_three(self, error, monkeypatch, capsys):
        def handler(args):
            raise error.__new__(error)
        monkeypatch.setitem(cli.COMMANDS, "eigen", (handler, cli.COMMANDS["eigen"][1]))
        code, rep = run_json(["eigen", "--A", "1"], capsys)
        assert code == 3 and rep["status"] == "error"


class TestDeterminism:
    CASES = [
        ["exact-check", "--P", "y", "--Q", "x", "--region", "-2,2,-2,2"],
        ["contour", "--f", "1/(z-0)", "--circle", "0,0,1", "--orient", "ccw"],
        ["eigen", "--A", "1,2;4,3"],
        ["laurent", "--f", "1/(z*(z-1))", "--z0", "0", "--rho", "0.5",
         "--nmin", "-1", "--nmax", "1"],
        ["flow", "--V", "x;2", "--vars", "x,y", "--x0", "1,0", "--t", "0.5"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_output(self, argv, capsys):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_seventeen_digit_serialization(self, capsys):
        _, out, _ = run_cli(["contour", "--f", "1/(z-0)", "--circle", "0,0,1"], capsys)
        assert "6.2831853071795862" in out

    def test_byte_identical_across_processes(self):
        # hash randomization differs per process; output must not
        import subprocess
        import sys
        phase = "0.6*x - 0.8*y + 0.5*z - 1.118033988749895*t"    # |k| = sqrt(1.25)
        commands = [
            ["eigen", "--A", "1,2;4,3"],
            # a 41^2 grid on the float path
            ["exact-check", "--P", "cos(x)*cosh(y) + 2*x*y",
             "--Q", "sin(x)*(exp(y) - exp(-y))/2 + x^2", "--region", "-2,2,-2,2", "--grid", "41"],
            # sqrt(x) leaves the reals in the first of two blocks only
            ["exact-check", "--P", "y*sqrt(x)", "--Q", "0", "--region", "-1,1,-1,1",
             "--grid", "101"],
            # eight Maxwell residuals in one tape on a 4-D grid
            ["maxwell-check",
             "--E", ";".join(f"{a}*1.118033988749895*cos({phase})" for a in (0.8, 0.6, 0)),
             "--B", ";".join(f"{a}*cos({phase})" for a in (-0.3, 0.4, 1.0)),
             "--region", "-1,1,-1,1,-1,1,0,2", "--grid", "7"],
            # a pole at the excluded point, in one of several blocks
            ["exact-check", "--P", "-y/(x^2+y^2)", "--Q", "x/(x^2+y^2)",
             "--region", "-2,2,-2,2", "--exclude", "0,0", "--grid", "201"],
            # the fan, and a query reached backward in t
            ["pde-solve", "--P", "1", "--Q", "1", "--R", "1", "--ic", "s;0;sin(s);-3;3",
             "--query", "1.0,0.3", "--query", "-0.4,-1.2"],
        ]
        for command in commands:
            argv = [sys.executable, "-m", "integrikit.cli", *command]
            runs = [subprocess.run(argv, capture_output=True, check=False,
                                   env=child_env(PYTHONHASHSEED=seed)).stdout
                    for seed in ("0", "424242")]
            assert runs[0] == runs[1] and runs[0], command


class TestImports:
    def test_a_command_imports_only_the_modules_it_runs(self):
        import subprocess
        script = (
            "import json, sys\n"
            "from integrikit import _backend, cli\n"
            "built = _backend._trace_fn.cache_info().currsize"
            " + _backend._build.cache_info().currsize\n"
            "code = cli.main(['pde-solve', '--P', '1', '--Q', '1', '--R', 'z',"
            " '--ic', 's;0;s;-1;1', '--query', '0.2,0.3'])\n"
            "print(json.dumps([built, code, sorted(sys.modules)]))\n")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             check=True, env=child_env())
        built, code, loaded = json.loads(run.stdout.splitlines()[-1])
        assert built == 0 and code == 0
        assert {"integrikit.charpde", "integrikit.odesys"} <= set(loaded)
        assert not {f"integrikit.{m}" for m in ("btlax", "cplx", "flow", "odekit")} & set(loaded)


class TestThinAdapter:
    def test_contour_matches_library(self, capsys):
        from integrikit.cplx import Contour, contour_integral
        code, rep = run_json(["contour", "--f", "z^2/(z-1)",
                              "--circle", "1,0,0.5", "--nodes", "128"], capsys)
        lib = contour_integral("z^2/(z-1)", Contour.circle(1.0, 0.5), 128)
        assert rep["values"]["integral"]["re"] == lib.real
        assert rep["values"]["integral"]["im"] == lib.imag

    def test_eigen_matches_library(self, capsys):
        from integrikit.odesys import eigen_solve
        code, rep = run_json(["eigen", "--A", "1,2;4,3"], capsys)
        pairs = eigen_solve([[1, 2], [4, 3]])
        got = [v["re"] for v in rep["values"]["eigenvalues"]]
        assert got == [p.value.real for p in pairs]
        assert sorted(got) == [-1.0, 5.0]

    def test_eigen_keeps_equally_spaced_roots_apart(self, capsys):
        code, rep = run_json(["eigen", "--A", "1,0,0;0,2,0;0,0,3"], capsys)
        assert code == 0 and rep["status"] == "pass"
        values = rep["values"]
        got = [v["re"] for v in values["eigenvalues"]]
        assert max(abs(g - w) for g, w in zip(got, [3, 2, 1])) <= 1e-12
        assert values["multiplicities"] == [1, 1, 1]
        assert [len(vecs) for vecs in values["eigenvectors"]] == [1, 1, 1]

    def test_eigen_of_huge_entries(self, capsys):
        code, rep = run_json(["eigen", "--A", "1e300,1e300;1e300,1e300"], capsys)
        assert code == 0 and rep["status"] == "pass"
        assert rep["values"]["multiplicities"] == [1, 1]
        assert rep["values"]["eigenvalues"][0]["re"] == pytest.approx(2e300, rel=1e-14)

    def test_potential_matches_library(self, capsys):
        from integrikit.realfield import VectorField, potential_reconstruct
        code, rep = run_json(["potential", "--P", "y", "--Q", "x",
                              "--base", "0,0", "--target", "2,3"], capsys)
        lib = potential_reconstruct(VectorField.of(("x", "y"), "y", "x"),
                                    (0, 0), (2, 3))
        assert rep["values"]["potential"] == lib == 6.0


class TestCommandSurface:
    def test_all_28_commands_registered(self):
        from integrikit.cli import COMMANDS
        expected = {
            "exact-check", "line-integral", "potential", "path-probe",
            "cr-check", "contour", "cauchy", "laurent", "conjugate",
            "ode-exact", "ode-mu", "energy", "rk4", "drift", "eigen",
            "linsolve", "matexp", "lie", "flow", "equilibrium", "pde-char",
            "pde-solve", "pde-residual", "bt-check", "sg-kink", "kdv-lax",
            "maxwell-wave", "maxwell-check",
        }
        assert set(COMMANDS) == expected and len(expected) == 28

    def test_ode_exact_constant(self, capsys):
        code, rep = run_json(["ode-exact", "--M", "x+y+1", "--N", "x-y^2+3",
                              "--x0", "0", "--y0", "1"], capsys)
        assert code == 0
        assert abs(rep["values"]["C0"] - 8.0 / 3.0) <= 1e-9

    def test_rk4_endpoint(self, capsys):
        code, rep = run_json(["rk4", "--f", "y;x", "--vars", "x,y", "--x0", "1,1",
                              "--t-span", "0,1", "--h", "0.001"], capsys)
        assert abs(rep["values"]["endpoint"][0] - math.e) <= 1e-8

    def test_rk4_time_dependent(self, capsys):
        code, rep = run_json(["rk4", "--f", "2*t", "--vars", "x", "--x0", "0",
                              "--t-span", "0,1", "--h", "0.001",
                              "--time-var", "t"], capsys)
        assert abs(rep["values"]["endpoint"][0] - 1.0) <= 1e-9

    def test_drift(self, capsys):
        code, rep = run_json(["drift", "--f", "y;x", "--vars", "x,y", "--x0", "1,1",
                              "--phi", "(x+y)*e^(-t)", "--T", "5", "--h", "0.001"],
                             capsys)
        assert code == 0 and rep["status"] == "pass"

    def test_cauchy_command(self, capsys):
        code, rep = run_json(["cauchy", "--f", "z^2", "--z0", "1,0",
                              "--circle", "1,0,1"], capsys)
        assert abs(rep["values"]["value"]["re"] - 1.0) <= 1e-12

    def test_conjugate_command(self, capsys):
        code, rep = run_json(["conjugate", "--v", "x*y", "--base", "0,0",
                              "--region", "-1,1,-1,1", "--grid", "11"], capsys)
        assert code == 0
        assert rep["values"]["laplacian_residual"] == 0

    def test_cr_check(self, capsys):
        code, rep = run_json(["cr-check", "--u", "(x^2-y^2)/2", "--v", "x*y",
                              "--region", "-2,2,-2,2"], capsys)
        assert code == 0

    def test_line_integral(self, capsys):
        code, rep = run_json(["line-integral", "--P", "y", "--Q", "x",
                              "--curve", "2*t;3*t", "--interval", "0,1"], capsys)
        assert abs(rep["values"]["integral"] - 6.0) <= 1e-10

    def test_path_probe(self, capsys):
        code, rep = run_json(["path-probe", "--P", "y", "--Q", "x",
                              "--A", "0,0", "--B", "1,1",
                              "--path", "t;t;0;1", "--path", "t;t^2;0;1",
                              "--path", "t;t^5;0;1"], capsys)
        assert code == 0 and rep["status"] == "pass"

    def test_energy(self, capsys):
        code, rep = run_json(["energy", "--F", "2", "--m", "1", "--x0", "0",
                              "--v0", "1", "--t-target", "1"], capsys)
        assert abs(rep["values"]["x_end"] - 2.0) <= 1e-8

    def test_energy_with_an_abs_force(self, capsys):
        # F = -|x| is -x on the path: x = sqrt(1.25) sin(t + phase)
        code, rep = run_json(["energy", "--F", "-abs(x)", "--m", "1", "--x0", "0.5",
                              "--v0", "1", "--x-target", "0.8"], capsys)
        exact = math.asin(0.8 / math.sqrt(1.25)) - math.asin(0.5 / math.sqrt(1.25))
        assert code == 0 and abs(rep["values"]["t_end"] - exact) <= 1e-12

    @pytest.mark.parametrize("force,x0,exact", [
        ("abs(2)*x", "1", math.cosh(0.5 * math.sqrt(2)) + math.sinh(0.5 * math.sqrt(2)) / math.sqrt(2)),
        ("-x*re(2)", "0", math.sin(0.5 * math.sqrt(2)) / math.sqrt(2)),
    ])
    def test_energy_with_an_x_free_abs_or_re_in_a_polynomial_force(self, force, x0, exact,
                                                                    capsys):
        # F = +-2x; abs(2) and re(2) are x-free, so their x-derivative is 0
        code, rep = run_json(["energy", "--F", force, "--m", "1", "--x0", x0,
                              "--v0", "1", "--t-target", "0.5"], capsys)
        assert code == 0 and abs(rep["values"]["x_end"] - exact) <= 1e-8

    def test_energy_with_a_force_singular_at_x_ref_is_a_usage_error(self, capsys):
        # F = 1/x has its pole at the default x_ref = 0, where U is anchored
        code, rep = run_json(["energy", "--F", "1/x", "--m", "1", "--x0", "1",
                              "--v0", "1", "--x-target", "2"], capsys)
        assert code == 2 and "x_ref = 0.0" in rep["diagnostics"]["error"]
        code, rep = run_json(["energy", "--F", "1/x", "--m", "1", "--x0", "1",
                              "--v0", "1", "--x-target", "2", "--x-ref", "1"], capsys)
        assert code == 0 and abs(rep["values"]["E"] - 0.5) <= 1e-12

    def test_energy_with_a_complex_potential_names_the_first_gap(self, capsys):
        # sqrt(x) is complex left of 0: every gap from x_ref = -1 to 0 fails,
        # and the message shows the first one, [-1, -1 + 1/32]
        code, rep = run_json(["energy", "--F", "sqrt(x)", "--m", "1", "--x0", "1",
                              "--v0", "1", "--x-target", "2", "--x-ref", "-1"], capsys)
        assert code == 3
        assert rep["diagnostics"]["error"] == (
            "potential quadrature has non-negligible imaginary part 0.031004572670921503")

    def test_energy_requires_one_target(self, capsys):
        code, rep = run_json(["energy", "--F", "2", "--m", "1", "--x0", "0",
                              "--v0", "1"], capsys)
        assert code == 2
        code, rep = run_json(["energy", "--F", "2", "--m", "1", "--x0", "0",
                              "--v0", "1", "--t-target", "1", "--x-target", "1"],
                             capsys)
        assert code == 2

    def test_matexp(self, capsys):
        code, rep = run_json(["matexp", "--A", "0,1;-1,0", "--t", str(math.pi / 2)],
                             capsys)
        m = rep["values"]["matrix"]
        assert abs(m[0][1] - 1.0) <= 1e-12 and abs(m[1][0] + 1.0) <= 1e-12

    def test_linsolve(self, capsys):
        code, rep = run_json(["linsolve", "--A", "1,2;4,3", "--x0", "2,1",
                              "--T", "1", "--samples", "51"], capsys)
        expected = math.exp(5) + math.exp(-1)
        assert abs(rep["values"]["endpoint"][0] - expected) <= 1e-9 * expected

    def test_lie_and_equilibrium(self, capsys):
        code, rep = run_json(["lie", "--V", "y;-x", "--vars", "x,y",
                              "--f", "x^2+y^2", "--point", "3,4"], capsys)
        assert rep["values"]["lie_derivative"] == 0
        code, rep = run_json(["equilibrium", "--V", "x-1;y+2", "--vars", "x,y",
                              "--seed", "0,0"], capsys)
        assert rep["values"]["point"] == [1, -2]

    def test_exact_check_with_an_x_free_abs(self, capsys):
        code, rep = run_json(["exact-check", "--P", "abs(2)*y", "--Q", "2*x",
                              "--region", "-1,1,-1,1", "--grid", "5"], capsys)
        assert code == 0 and rep["max_residual"] == 0

    def test_pde_solve_with_an_x_free_re(self, capsys):
        # P = 2, Q = 1: z is constant on x - 2y = s, so z(0.5, 0.3) = -0.1
        code, rep = run_json(["pde-solve", "--P", "re(2)", "--Q", "1", "--R", "0",
                              "--ic", "s;0;s;-2;2", "--query", "0.5,0.3"], capsys)
        assert code == 0 and abs(rep["values"]["z"][0] + 0.1) <= 1e-15

    def test_pde_commands(self, capsys):
        code, rep = run_json(["pde-char", "--P", "1", "--Q", "1", "--R", "1",
                              "--start", "0,0,0", "--t-span", "0,1"], capsys)
        assert np.allclose(rep["values"]["endpoint"], [1, 1, 1], atol=1e-9)
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "1",
                              "--ic", "s;0;sin(s);-3;3", "--query", "1.0,0.3"],
                             capsys)
        assert abs(rep["values"]["z"][0] - (0.3 + math.sin(0.7))) <= 1e-6
        code, rep = run_json(["pde-residual", "--P", "-y", "--Q", "x", "--R", "0",
                              "--z", "x^2+y^2", "--region", "-2,2,-2,2"], capsys)
        assert rep["status"] == "pass"

    def test_bt_and_kink(self, capsys):
        code, rep = run_json(["bt-check", "--B1", "u_x - v_y", "--B2", "u_y + v_x",
                              "--Pu", "u_xx + u_yy", "--Qv", "v_xx + v_yy",
                              "--u", "(x^2-y^2)/2", "--v", "x*y",
                              "--region", "-2,2,-2,2", "--vars", "x,y"], capsys)
        assert rep["status"] == "pass"
        code, rep = run_json(["sg-kink", "--a", "1", "--C", "1"], capsys)
        assert abs(rep["values"]["u_at_origin"] - math.pi) <= 1e-12

    def test_kdv_lax(self, capsys):
        code, rep = run_json(["kdv-lax", "--u", "0", "--lam", "0.3"], capsys)
        assert rep["values"]["deviation"] <= 1e-9

    def test_maxwell_commands(self, capsys):
        code, rep = run_json(["maxwell-wave", "--k-dir", "0,0,1", "--E0", "2",
                              "--omega", "3", "--E0-dir", "1,0,0"], capsys)
        assert rep["values"]["B0R"] == [0, 2, 0]
        E = ";".join(rep["diagnostics"]["E"])
        B = ";".join(rep["diagnostics"]["B"])
        code2, rep2 = run_json(["maxwell-check", "--E", E, "--B", B,
                                "--region", "-1,1,-1,1,-1,1,0,2"], capsys)
        assert code2 == 0 and rep2["status"] == "pass"


class TestKdVLax:
    SOLITON = ["--u", "-0.5/cosh(0.5*x - 0.5*t)^2", "--lam", "0.3"]

    def test_backward_x_leg(self, capsys):
        code, rep = run_json(["kdv-lax", *self.SOLITON, "--delta", "-0.2,0.2"], capsys)
        assert code == 0
        assert abs(rep["values"]["deviation"] - 1.2778667013435552e-12) <= 1e-15

    def test_zero_length_leg_keeps_the_state(self, capsys):
        code, rep = run_json(["kdv-lax", *self.SOLITON, "--delta", "0,0.2"], capsys)
        assert code == 0 and rep["status"] == "pass"
        assert rep["values"]["deviation"] == 0

    @pytest.mark.parametrize("u", ["sqrt(x)", "ln(x)"])
    def test_complex_field_is_a_numeric_error(self, u, capsys):
        code, rep = run_json(["kdv-lax", "--u", u, "--lam", "0.3", "--x0", "-0.1"], capsys)
        assert code == 3
        assert "u has non-negligible imaginary part" in rep["diagnostics"]["error"]

    def test_pole_on_a_leg_is_a_numeric_error(self, capsys):
        code, rep = run_json(["kdv-lax", "--u", "1/x", "--lam", "0.3", "--x0", "-0.1"],
                             capsys)
        assert code == 3
        assert "division by zero while evaluating '1/x'" in rep["diagnostics"]["error"]

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_steps_below_one_is_a_usage_error(self, steps, capsys):
        code, rep = run_json(["kdv-lax", "--u", "x", "--lam", "0.3", "--steps", steps],
                             capsys)
        assert code == 2 and rep["status"] == "error"
        assert "steps" in rep["diagnostics"]["error"]


class TestNonFiniteSpan:
    """A non-finite step, start or end time is a usage error that names it."""
    SYSTEM = ["--f", "y;-x", "--vars", "x,y", "--x0", "1,0"]

    @pytest.mark.parametrize("argv,value", [
        (["rk4", *SYSTEM, "--t-span", "0,inf", "--h", "0.1"], "end time must be finite, got inf"),
        (["rk4", *SYSTEM, "--t-span", "0,1", "--h", "inf"], "step must be finite, got inf"),
        (["rk4", *SYSTEM, "--t-span", "0,1", "--h", "nan"], "step must be finite, got nan"),
        (["drift", *SYSTEM, "--phi", "x^2 + y^2", "--T", "inf", "--h", "0.1"],
         "end time must be finite, got inf"),
        (["pde-char", "--P", "1", "--Q", "1", "--R", "0", "--start", "0,0,1",
          "--t-span", "0,inf"], "end time must be finite, got inf"),
        (["pde-char", "--P", "1", "--Q", "1", "--R", "0", "--start", "0,0,1",
          "--t-span", "-inf,0"], "start time must be finite, got -inf"),
    ], ids=["rk4-span", "rk4-h-inf", "rk4-h-nan", "drift-T", "pde-char-end", "pde-char-start"])
    def test_is_a_usage_error(self, argv, value, capsys):
        code, rep = run_json(argv, capsys)
        assert code == 2 and rep["status"] == "error"
        assert value in rep["diagnostics"]["error"]


class TestNonFiniteExponential:
    """An exponential that is not finite is a numeric error naming its t,
    with one JSON document on stdout and nothing on stderr.  Each case went
    wrong before: an OverflowError traceback and exit 1 (1e200), a "pass"
    with nan or inf entries (nan, inf, 800), or six LAPACK lines on stdout
    before the report and "SVD did not converge" (linsolve).  capfd sees
    what the C libraries write to the process's stdout, capsys would not."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,message", [
        (["matexp", "--A", "1e200,0;0,1", "--t", "1e200"],
         "t*A has no finite 1-norm at t = 1e+200"),
        (["matexp", "--A", "1,0;0,1", "--t", "nan"], "t*A has no finite 1-norm at t = nan"),
        (["matexp", "--A", "1,0;0,1", "--t", "inf"], "t*A has no finite 1-norm at t = inf"),
        (["matexp", "--A", "800,0;0,1"], "exp(t*A) is not finite at t = 1.0"),
        (["linsolve", "--A", "1,0;0,1", "--x0", "1,1", "--T", "1000"],
         "exp(t*A) is not finite at t = 710.0"),
    ], ids=["matexp-1e200", "matexp-nan", "matexp-inf", "matexp-800", "linsolve-T-1000"])
    def test_is_a_numeric_error_naming_t(self, argv, message, capfd):
        code = main(argv)
        out, err = capfd.readouterr()
        rep = json.loads(out)
        assert code == 3 and rep["status"] == "error"
        assert rep["diagnostics"]["error"] == message
        assert out.count("\n") == 1 and err == ""

    def test_x0_of_the_wrong_length_is_a_usage_error(self, capsys):
        code, rep = run_json(["linsolve", "--A", "1,2;3,4", "--x0", "1"], capsys)
        assert code == 2
        assert rep["diagnostics"]["error"] == "x0 has 1 component but A is 2x2"


class TestFlowInputs:
    """`flow`, `lie` and `equilibrium` on inputs each of which went wrong
    under the symbolic Lie series: exit 3 past its node cap (the pendulum at
    the default order, the second field at order 12, 1/x at x = 0), a
    "pass" with nan or inf (t = nan, inf, 1e200), a "pass" for an unbound
    variable (lie --f z), and 50 Newton iterations for a tolerance that no
    residual meets (nan, -1)."""
    FIELD = ["--V", "y;-x", "--vars", "x,y"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,code,message", [
        (["flow", *FIELD, "--x0", "1,0", "--t", "nan"], 2, "flow time t must be finite, got nan"),
        (["flow", *FIELD, "--x0", "1,0", "--t", "inf"], 2, "flow time t must be finite, got inf"),
        (["flow", *FIELD, "--x0", "1e200,0", "--t", "1e200"], 3,
         "Lie series of y is not finite from its order-1 term"),
        (["flow", "--V", "1/x;1", "--vars", "x,y", "--x0", "0,0", "--t", "0.1"], 3,
         "division by zero at (x=0.0, y=0.0) while evaluating '1/x'"),
        (["flow", "--V", "abs(y);1", "--vars", "x,y", "--x0", "0,0", "--t", "0.1"], 2,
         "'abs' has no derivative rule"),
        (["lie", *FIELD, "--f", "z", "--point", "1,2"], 2,
         "function 'z' references undeclared ['z']"),
        (["equilibrium", *FIELD, "--seed", "0.3,0.2", "--tol", "nan"], 2,
         "tolerance must be a finite number >= 0, got nan"),
        (["equilibrium", *FIELD, "--seed", "0.3,0.2", "--tol", "-1"], 2,
         "tolerance must be a finite number >= 0, got -1.0"),
    ], ids=["t-nan", "t-inf", "t-1e200", "pole-at-x0", "abs", "lie-unbound", "tol-nan",
            "tol-negative"])
    def test_is_refused_with_a_message(self, argv, code, message, capfd):
        got = main(argv)
        out, err = capfd.readouterr()
        rep = json.loads(out)
        assert (got, rep["status"], rep["diagnostics"]["error"]) == (code, "error", message)
        assert err == ""

    @pytest.mark.parametrize("argv,want", [
        (["flow", "--V", "y;-sin(x)", "--vars", "x,y", "--x0", "1,0.3", "--t", "0.5"],
         (1.0, 0.3, 0.5)),
        (["flow", "--V", "x*y;exp(-x)/(1+y^2)", "--vars", "x,y", "--x0", "0.3,0.2", "--t",
          "0.3", "--order", "12"], (0.3, 0.2, 0.3)),
        (["flow", "--V", "x^1.5;1", "--vars", "x,y", "--x0", "0,0", "--t", "0.1", "--order",
          "2"], (0.0, 0.0, 0.1)),
    ], ids=["pendulum", "xy", "power-at-0"])
    def test_passes_within_1e_6_of_rk4(self, argv, want, capsys):
        from integrikit.odesys import AutonomousSystem, integrate_rk4
        code, rep = run_json(argv, capsys)
        x, y, t = want
        system = AutonomousSystem(("x", "y"), tuple(argv[2].split(";")))
        rk = integrate_rk4(system, (x, y), (0.0, t), 1e-4).endpoint
        assert code == 0 and rep["status"] == "pass"
        assert np.max(np.abs(np.array(rep["values"]["point"]) - rk)) <= 1e-6


class TestTimeStamps:
    """Time stamps that do not strictly increase, as a step far below the
    spacing of floats near the start time gives, are a usage error raised
    before any RK4 routine runs."""
    SYSTEM = ["--f", "y;-x", "--vars", "x,y", "--x0", "1,0"]
    SPAN = ["--t-span", "1e8,100000000.001", "--h", "1e-8"]

    @pytest.mark.parametrize("dump_csv", [False, True], ids=["endpoint", "dump-csv"])
    def test_are_a_usage_error_before_any_trace(self, dump_csv, tmp_path, monkeypatch,
                                                capsys):
        from integrikit import _backend

        def no_rk4(*args, **kwargs):
            raise AssertionError("an RK4 routine ran")

        monkeypatch.setattr(_backend, "rk4", no_rk4)
        csv = ["--dump-csv", str(tmp_path / "traj.csv")] if dump_csv else []
        code, rep = run_json(["rk4", *self.SYSTEM, *self.SPAN, *csv], capsys)
        assert code == 2 and rep["status"] == "error"
        assert rep["diagnostics"]["error"] == "time stamps must be strictly increasing"


class TestRoutineBuilds:
    def test_requests_that_differ_only_in_coefficients_compile_no_new_routine(
            self, compiles, capsys):
        reports, counts = [], []
        for a, b in (("0.625", "0.8125"), ("1.375", "-0.4375")):
            code, rep = run_json(["pde-solve", "--P", "1", "--Q", f"{a} + 0.0625*x",
                                  "--R", f"{b}*z", "--ic", "s;0;sin(s);-1;1",
                                  "--query", "0.5,0.3", "--query", "-0.2,-0.4"], capsys)
            assert code == 0
            reports.append(rep)
            counts.append(len(compiles))
        assert counts[0] > 0 and counts[1] == counts[0]
        assert reports[0]["values"] != reports[1]["values"]


class TestBadQuadratureInput:
    """A non-finite region bound, curve interval or energy target, or a
    panel count below 1, is a usage error that names it."""

    @pytest.mark.parametrize("argv,value", [
        (["exact-check", "--P", "y", "--Q", "x", "--region", "0,1,0,inf"],
         "upper bound of y must be finite, got inf"),
        (["conjugate", "--v", "y", "--base", "0,0", "--region", "0,1,0,inf", "--grid", "5"],
         "upper bound of y must be finite, got inf"),
        (["line-integral", "--P", "y", "--Q", "x", "--curve", "t;t", "--interval", "0,inf"],
         "t_end must be finite, got inf"),
        (["energy", "--F", "-sin(x)", "--m", "1", "--x0", "0", "--v0", "1",
          "--x-target", "inf"], "x_target must be finite, got inf"),
        (["pde-solve", "--P", "1", "--Q", "1", "--R", "0", "--ic", "s;0;s;0;inf",
          "--query", "0.5,0.5"], "s_end must be finite, got inf"),
        (["line-integral", "--P", "y", "--Q", "x", "--curve", "t;t", "--interval", "0,1",
          "--panels", "0"], "panels must be at least 1, got 0"),
        (["potential", "--P", "y", "--Q", "x", "--base", "0,0", "--target", "1,1",
          "--panels", "-1"], "panels must be at least 1, got -1"),
    ], ids=["exact-check", "conjugate", "line-integral", "energy", "pde-solve",
            "zero-panels", "negative-panels"])
    def test_is_a_usage_error(self, argv, value, capsys):
        code, rep = run_json(argv, capsys)
        assert code == 2 and rep["status"] == "error"
        assert rep["diagnostics"]["error"] == value


class TestZeroLengthSpan:
    """A zero-length pde-char span takes no step but checks its inputs."""
    PDE = ["pde-char", "--P", "1", "--Q", "1", "--R", "0"]

    @pytest.mark.parametrize("start,span,h,message", [
        ("1,2", "0,0", "0.01", "x0 must have 3 components"),
        ("1,2,3,4", "0.5,0.5", "0.01", "x0 must have 3 components"),
        ("1,2,3", "inf,inf", "0.01", "start time must be finite, got inf"),
        ("1,2,nan", "0,0", "0.01", "x0 must be finite, got [1.0, 2.0, nan]"),
        ("1,2,nan", "0,1", "0.01", "x0 must be finite, got [1.0, 2.0, nan]"),
        ("1,2,3", "0,0", "0", "step must be positive"),
    ], ids=["short-start", "long-start", "infinite-time", "nan-start", "nan-start-nonzero",
            "zero-step"])
    def test_bad_input_is_a_usage_error(self, start, span, h, message, capsys):
        code, rep = run_json([*self.PDE, "--start", start, "--t-span", span, "--h", h],
                             capsys)
        assert code == 2 and rep["status"] == "error"
        assert message in rep["diagnostics"]["error"]

    def test_good_input_returns_the_start(self, capsys):
        code, rep = run_json([*self.PDE, "--start", "1,2,3", "--t-span", "0.5,0.5"], capsys)
        assert code == 0 and rep["values"]["endpoint"] == [1, 2, 3]


class TestCharacteristicErrors:
    def test_initial_curve_failing_at_a_sample_names_the_subtree(self, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;ln(s);0;1", "--query", "0.5,0.5"], capsys)
        assert code == 3
        assert "ln of zero" in rep["diagnostics"]["error"]
        assert "'ln(s)'" in rep["diagnostics"]["error"]

    @pytest.mark.parametrize("t_max", ["0", "-1"])
    def test_non_positive_fan_time_is_a_usage_error(self, t_max, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;s;0;1", "--query", "0.5,0.5", "--t-max", t_max],
                             capsys)
        assert code == 2
        assert f"t_max must be positive, got {float(t_max)!r}" in rep["diagnostics"]["error"]

    @pytest.mark.parametrize("h", ["0", "-0.01", "nan"])
    def test_non_positive_step_is_a_usage_error(self, h, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;s;0;1", "--query", "0.5,0.5", "--h", h], capsys)
        assert code == 2
        assert "step must be positive" in rep["diagnostics"]["error"]

    def test_a_field_without_a_derivative_rule_is_a_usage_error(self, capsys):
        code, rep = run_json(["pde-solve", "--P", "abs(x)+1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;s;-2;2", "--query", "0.5,0.3"], capsys)
        assert code == 2
        assert rep["diagnostics"]["error"] == "'abs' has no derivative rule"

    def test_a_domain_error_of_y0_prime_comes_before_a_non_differentiable_x0(self, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "abs(s);sqrt(s);0;0;1", "--query", "0.5,0.5"], capsys)
        assert code == 3
        assert rep["diagnostics"]["error"] == (
            "division by zero at (s=0.0) while evaluating '1/(2*sqrt(s))'")

    def test_query_outside_the_fan_is_named_in_plain_floats(self, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;s;0;1", "--query", "5,0.5", "--t-max", "1"],
                             capsys)
        assert code == 3
        assert rep["diagnostics"]["error"].startswith(
            "query (5.0, 0.5) left the characteristic fan (wandered to s=")

    def test_non_real_initial_curve_is_named_in_plain_floats(self, capsys):
        code, rep = run_json(["pde-solve", "--P", "1", "--Q", "1", "--R", "0",
                              "--ic", "s;0;sqrt(s);-1;1", "--query", "0.5,0.1"], capsys)
        assert code == 3
        assert rep["diagnostics"]["error"] == (
            "initial curve has non-negligible imaginary part 1.0")

    @pytest.mark.parametrize("argv,steps", [
        (["pde-solve", "--P", "1", "--Q", "1", "--R", "0", "--ic", "s;0;s;-1;1",
          "--query", "0.5,0.1", "--h", "1e-300"], "5e+300"),
        (["rk4", "--f", "y;-x", "--vars", "x,y", "--x0", "1,0", "--t-span", "0,1",
          "--h", "1e-7"], "1e+07"),
    ], ids=["pde-solve", "rk4"])
    def test_a_step_count_past_the_cap_is_a_usage_error(self, argv, steps, capsys):
        code, rep = run_json(argv, capsys)
        assert code == 2
        assert rep["diagnostics"]["error"] == (
            f"RK4 would take {steps} steps, more than MAX_STEPS = 1000000")

    def test_pole_on_a_potential_leg_is_a_numeric_error(self, capsys):
        # v is harmonic away from (0, y_pole), which is no grid point but is
        # a quadrature node of the y-legs at x = 0: their edges are the grid
        # ordinates and 65 even edges over [0, 1], so the first gap is [0, 1/64]
        edges = np.linspace(0.0, 1.0, 65)
        y_pole = float(gauss_nodes(edges[0], edges[1], 1)[0][1])
        code, rep = run_json(["conjugate", "--v", f"x/(x^2+(y-{y_pole!r})^2)", "--base", "0,0",
                              "--region", "0,1,0,1", "--grid", "5", "--laplace-tol", "1"],
                             capsys)
        assert code == 3
        assert rep["diagnostics"]["error"].startswith(
            f"division by zero at (y={y_pole!r}, x=0.0) while evaluating")

    def test_contour_through_a_pole_is_a_numeric_error(self, capsys):
        # the middle Gauss node of the one panel on t in [-1, 1] is z = 0
        code, rep = run_json(["contour", "--f", "1/z", "--curve", "t;0", "--interval", "-1,1",
                              "--nodes", "5"], capsys)
        assert code == 3
        assert rep["diagnostics"]["error"] == "division by zero at (z=0.0) while evaluating '1/z'"

    def test_conjugate_on_a_two_point_grid_is_a_usage_error(self, capsys):
        code, rep = run_json(["conjugate", "--v", "x*y", "--base", "0,0",
                              "--region", "-1,1,-1,1", "--grid", "2"], capsys)
        assert code == 2
        assert rep["diagnostics"]["error"] == "grid too coarse: need at least 3 points per axis"


class TestMalformedPoints:
    PDE = ["pde-solve", "--P", "1", "--Q", "1", "--R", "0", "--ic", "s;0;s;-2;2", "--query"]
    FIELD = ["--V", "y;-x", "--vars", "x,y"]

    @pytest.mark.parametrize("query", ["0.7", "0.5,0.3,1", "nan,0.3", "0.5,inf"])
    def test_query_must_be_two_finite_numbers(self, query, capsys):
        code, rep = run_json(self.PDE + [query], capsys)
        assert code == 2
        assert rep["diagnostics"]["error"].startswith("query must be two finite numbers")

    @pytest.mark.parametrize("argv, given", [
        (["lie", *FIELD, "--f", "x^2+y", "--point", "1,2,3"], 3),
        (["lie", *FIELD, "--f", "x^2+y", "--point", "1"], 1),
        (["flow", *FIELD, "--x0", "1,0,5", "--t", "1"], 3),
        (["equilibrium", "--V", "x-1;y-2", "--vars", "x,y", "--seed", "0,0,0"], 3),
    ], ids=["lie-long", "lie-short", "flow-long", "equilibrium-long"])
    def test_point_needs_one_coordinate_per_variable(self, argv, given, capsys):
        code, rep = run_json(argv, capsys)
        assert code == 2
        assert rep["diagnostics"]["error"] == f"point needs 2 coordinates (x, y), got {given}"


class TestTaskFile:
    def test_task_run(self, tmp_path, capsys):
        task = tmp_path / "job.task"
        task.write_text(
            "# exactness of an elementary pair\n"
            "kind = exact-check\n"
            "P = y\n"
            "Q = x\n"
            "region = -2,2,-2,2\n")
        code, rep = run_json(["--task", str(task)], capsys)
        assert code == 0 and rep["command"] == "exact-check"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        task = tmp_path / "bad.task"
        task.write_text("kind = exact-check\nP = y\nQ = x\nwhat = 1\n")
        code, rep = run_json(["--task", str(task)], capsys)
        assert code == 2
        assert "what" in rep["diagnostics"]["error"]

    def test_repeated_keys_append(self, tmp_path, capsys):
        task = tmp_path / "probe.task"
        task.write_text(
            "kind = path-probe\nP = y\nQ = x\nA = 0,0\nB = 1,1\n"
            "path = t;t;0;1\npath = t;t^2;0;1\npath = t;t^5;0;1\n")
        code, rep = run_json(["--task", str(task)], capsys)
        assert code == 0 and rep["status"] == "pass"

    def test_missing_kind(self, tmp_path, capsys):
        task = tmp_path / "nokind.task"
        task.write_text("P = y\n")
        code, _ = run_json(["--task", str(task)], capsys)
        assert code == 2


class TestOutputs:
    def test_pretty_goes_to_stderr(self, capsys):
        code, out, err = run_cli(["exact-check", "--P", "y", "--Q", "x",
                                  "--region", "-2,2,-2,2", "--pretty"], capsys)
        assert "pass" in err
        json.loads(out)  # stdout stays pure JSON

    def test_dump_csv(self, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        run_cli(["rk4", "--f", "y;-x", "--vars", "x,y", "--x0", "1,0",
                 "--t-span", "0,1", "--h", "0.1", "--dump-csv", str(path)], capsys)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 12  # header + 11 samples

    @pytest.mark.parametrize("argv", [
        ["rk4", "--f", "y;-sin(x)", "--vars", "x,y", "--x0", "1,0.2", "--t-span", "0,1.05",
         "--h", "0.1"],
        ["pde-char", "--P", "z", "--Q", "1", "--R", "-x", "--start", "0.5,0,1",
         "--t-span", "0,0.35"],
    ], ids=["rk4", "pde-char"])
    def test_an_endpoint_report_does_not_depend_on_dump_csv(self, argv, tmp_path, capsys):
        _, endpoint = run_json(argv, capsys)
        _, full = run_json([*argv, "--dump-csv", str(tmp_path / "traj.csv")], capsys)
        assert json.dumps(endpoint["values"]) == json.dumps(full["values"])
        assert endpoint["status"] == full["status"] == "pass"

    def test_python_dash_m_integrikit_runs_the_cli(self):
        import subprocess
        command = ["rk4", "--f", "y;-x", "--vars", "x,y", "--x0", "1,0", "--t-span", "0,1",
                   "--h", "0.1"]
        runs = [subprocess.run([sys.executable, "-m", module, *command], capture_output=True,
                               check=False, env=child_env())
                for module in ("integrikit", "integrikit.cli")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout and b'"endpoint"' in runs[0].stdout

    def test_stable_input_echo_order(self, capsys):
        _, rep = run_json(["exact-check", "--Q", "x", "--P", "y",
                           "--region", "-2,2,-2,2"], capsys)
        assert list(rep["inputs"]) == sorted(rep["inputs"])
