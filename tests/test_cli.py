"""Black-box tests of the secm command: exit codes and determinism."""

import json
import math
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest


def run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "secmeasure.cli", *args],
                          capture_output=True, text=True, **kw)


def test_moments_csv():
    r = run("moments", "--density", "cheb-u", "--n", "2")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "n,c_n"
    assert len(lines) == 4
    assert abs(float(lines[3].split(",")[1]) - 0.25) < 1e-12


def test_json_schema():
    r = run("--format", "json", "reducer", "--density", "cheb-u",
            "--x", "0.25")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["columns"] == ["x", "phi"]
    assert abs(obj["rows"][0][1] - 1.0) < 1e-9
    assert obj["meta"]["density"] == "cheb-u"


def test_ortho_and_secondary_run():
    assert run("ortho", "--density", "uniform", "--n", "3").returncode == 0
    r = run("--format", "json", "secondary", "--density", "cheb-u",
            "--grid", "3")
    assert r.returncode == 0
    assert abs(json.loads(r.stdout)["meta"]["d0"] - 0.25) < 1e-10


def test_family_density_and_scan():
    r = run("family", "density", "--density", "cheb-u", "--t", "2",
            "--grid", "3")
    assert r.returncode == 0
    mid = float(r.stdout.strip().split("\n")[2].split(",")[1])
    assert abs(mid - 1.0 / math.pi) < 1e-12
    r = run("family", "scan", "--density", "cheb-u", "--t-min", "0.5",
            "--t-max", "1.5", "--steps", "3")
    assert r.returncode == 0
    for line in r.stdout.strip().split("\n")[1:]:
        assert abs(float(line.split(",")[1]) - 1.0) < 1e-6


def test_roots_bracket():
    r = run("--format", "json", "roots", "--density", "cheb-u", "--t", "3",
            "--search", "1.001", "5.0")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["meta"]["n_roots"] == 1
    lo, hi = obj["rows"][0]
    assert 1.06 < lo < hi < 1.07


def test_roots_next_to_the_support():
    # Both roots lie 1.728e-4 off [0, 1], inside the gap a grid scan from
    # 1e-3 widths skipped.
    r = run("--format", "json", "roots", "--density", "uniform", "--t", "1.3")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["meta"]["n_roots"] == 2
    (llo, lhi), (rlo, rhi) = obj["rows"]
    assert -1.73e-4 < llo < lhi < -1.72e-4
    assert 1 + 1.72e-4 < rlo < rhi < 1 + 1.73e-4


def test_solve_exit_zero():
    r = run("solve", "--density", "cheb-u", "--lam", "-0.5",
            "--g", "1/(1+x^2)", "--grid", "5")
    assert r.returncode == 0
    for line in r.stdout.strip().split("\n")[1:]:
        assert abs(float(line.split(",")[2])) < 1e-5


def test_solve_reads_f_on_the_grid_from_T(monkeypatch, capsys):
    # In process: f on the grid comes from T's first call of the solver,
    # which holds the grid; the solver never runs on the grid alone.
    from secmeasure import Interval, cli
    seen = []
    real = cli.solve_integral_equation

    def spy(problem, x, spec):
        seen.append(np.array(x))
        return real(problem, x, spec)

    monkeypatch.setattr(cli, "solve_integral_equation", spy)
    assert cli.main(["solve", "--density", "cheb-u", "--lam", "-0.5",
                     "--g", "1/(1+x^2)", "--grid", "5"]) == 0
    grid = Interval(-1.0, 1.0).interior_grid(5, 2e-3)
    assert np.isin(grid, seen[0]).all()
    assert not any(np.array_equal(x, grid) for x in seen)
    assert len(capsys.readouterr().out.strip().split("\n")) == 6


def test_json_meta_keys_in_order(capsys):
    # density first, tol last, each command's own keys between.
    from secmeasure import cli
    cases = [
        (["moments"], []),
        (["ortho"], []),
        (["reducer", "--grid", "3"], []),
        (["secondary", "--grid", "3"], ["d0"]),
        (["family", "density", "--t", "0.5", "--grid", "3"], ["t"]),
        (["family", "scan", "--t-min", "0.5", "--t-max", "1",
          "--steps", "2"], []),
        (["roots", "--t", "3"], ["t", "n_roots"]),
        (["solve", "--lam", "-0.5", "--g", "x", "--grid", "3"],
         ["lambda", "g"]),
    ]
    for argv, own in cases:
        k = 2 if argv[0] == "family" else 1
        assert cli.main(["--format", "json", *argv[:k], "--density",
                         "cheb-u", *argv[k:]]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert list(meta) == ["density", *own, "tol"], argv


def test_solve_residual_limit_bites(monkeypatch, capsys):
    # A solution off by 3e-5 leaves a residual of 3e-5, above the 1e-5
    # limit that secm solve and residual_check share.
    from secmeasure import (DEFAULT_SPEC, IntegralEquationProblem, catalog,
                            cli, residual_check)
    real = cli.solve_integral_equation

    def shifted(problem, x, spec):
        return real(problem, x, spec) + 3e-5

    monkeypatch.setattr(cli, "solve_integral_equation", shifted)
    assert cli.main(["solve", "--density", "cheb-u", "--lam", "-0.5",
                     "--g", "1/(1+x^2)", "--grid", "5"]) == 1
    rows = [line.split(",") for line in
            capsys.readouterr().out.strip().split("\n")[1:]]
    assert abs(max(abs(float(r[2])) for r in rows) - 3e-5) < 1e-9
    problem = IntegralEquationProblem(catalog("cheb-u"), -0.5,
                                      lambda x: 1.0 / (1.0 + x ** 2))
    report = residual_check(problem,
                            lambda x: shifted(problem, x, DEFAULT_SPEC))
    assert not report.passed and abs(report.computed - 3e-5) < 1e-9


def test_custom_density_expression():
    r = run("moments", "--density-expr", "2*x", "--interval", "0", "1",
            "--n", "1")
    assert r.returncode == 0
    assert abs(float(r.stdout.strip().split("\n")[2].split(",")[1])
               - 2.0 / 3.0) < 1e-10


def test_negative_numbers_in_exponent_notation():
    # uniform density 1/1.2 on [-0.2, 1]: phi(x) = (2/1.2) ln((x+0.2)/(1-x))
    r = run("reducer", "--density-expr", "1/1.2", "--interval", "-2e-1", "1",
            "--x", "-3.6e-05", "0.5")
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in r.stdout.strip().split("\n")[1:]]
    for x, phi in rows:
        x = float(x)
        assert abs(float(phi) - 2.0 / 1.2 * math.log((x + 0.2) / (1.0 - x))) < 1e-9
    assert float(rows[0][0]) == -3.6e-05
    r = run("solve", "--density", "cheb-u", "--lam", "-1e-3",
            "--g", "1/(1+x^2)", "--grid", "3")
    assert r.returncode == 0, r.stderr


def test_usage_errors_exit_two():
    assert run("moments", "--density", "nope").returncode == 2
    assert run("moments").returncode == 2  # no density at all
    assert run("--tol", "banana", "verify").returncode == 2
    assert run("nonsense").returncode == 2
    assert run("solve", "--density", "cheb-u", "--lam", "-0.5",
               "--g", "1/(1+").returncode == 2
    assert run("family", "scan", "--density", "cheb-u", "--t-min", "2",
               "--t-max", "1", "--steps", "3").returncode == 2
    assert run("reducer", "--density-expr", "sin(x)", "--interval", "0",
               "1").returncode == 2  # mass far from 1


def test_non_finite_parameters_exit_two():
    # nan and inf used to print a column of NaN, or an empty table, and
    # exit 0.
    for t in ("nan", "inf"):
        assert run("family", "density", "--density", "cheb-u", "--t", t,
                   "--grid", "3").returncode == 2
    assert run("roots", "--density", "cheb-u", "--t", "nan").returncode == 2
    assert run("roots", "--density", "cheb-u", "--t", "-1").returncode == 2
    assert run("solve", "--density", "cheb-u", "--lam", "nan",
               "--g", "1").returncode == 2


def test_roots_search_touching_the_support_exits_two():
    # A search from the support's end used to be refused only by the
    # transform, inside the scan, which no t <= 1 scan runs.
    for t in ("0.5", "3"):
        r = run("roots", "--density", "cheb-u", "--t", t, "--search", "1", "3")
        assert r.returncode == 2 and "root scan" in r.stderr


def test_usage_errors_that_were_numerical_failures_exit_two():
    # Both exited 3: the degree cap was reported as an instability, and a
    # NaN point passed the reducer's domain check and failed in quadrature.
    assert run("ortho", "--density", "uniform", "--n", "21").returncode == 2
    assert run("ortho", "--density", "uniform", "--n", "20").returncode == 0
    assert run("reducer", "--density", "uniform", "--x", "0.5",
               "nan").returncode == 2


def test_long_sum_exits_zero():
    # 3,000 ones in one sum died in a RecursionError traceback, exit 1, and
    # were then refused, exit 2 ("tree taller than 100"); a chain is one
    # node, and this is the uniform density, phi = 0 at the midpoint.
    r = run("--format", "json", "reducer", "--density-expr",
            "+".join(["1"] * 3000) + "-2999", "--interval", "0", "1",
            "--x", "0.5")
    assert r.returncode == 0 and "Traceback" not in r.stderr
    assert json.loads(r.stdout)["rows"] == [[0.5, 0.0]]


def test_an_overflowing_literal_exits_two():
    # 1e999 parsed to inf, and the solver failed as a numerical failure,
    # exit 3 ("non-finite at some requested point").
    r = run("solve", "--density", "cheb-u", "--lam", "-0.5", "--g",
            "1e999*0+x", "--grid", "3")
    assert r.returncode == 2, r.stderr
    assert "overflows a float at offset 0" in r.stderr


def test_solve_takes_a_long_series():
    # The 121-term Taylor polynomial of e^x was refused, exit 2 ("tree
    # taller than 100 at offset 2904").
    from secmeasure.operators import RESIDUAL_LIMIT
    g = " + ".join(f"{1 / math.factorial(k):.17g}*x^{k}" for k in range(121))
    r = run("--format", "json", "solve", "--density", "cheb-u", "--lam",
            "-0.5", "--g", g, "--grid", "5")
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert len(rows) == 5
    assert all(abs(res) <= RESIDUAL_LIMIT for _, _, res in rows)


def test_non_finite_exponents_exit_two():
    # --alpha nan exited 3 ("not finite at level 2"); inf exited 2 only
    # because the mass underflowed.
    for flag in ("--alpha", "--beta"):
        for v in ("nan", "inf"):
            r = run("moments", "--density-expr", "1", "--interval", "0", "1",
                    flag, v)
            assert r.returncode == 2 and f"{flag[2:]}={v}" in r.stderr


def test_inputs_valid_for_the_library_run():
    # Both exited 2 on checks of the command line alone: the spec allows
    # one refinement level, and a command given --x builds no grid.
    r = run("--quad-levels", "1", "moments", "--density", "uniform",
            "--n", "2")
    assert r.returncode == 0
    assert r.stdout.split()[-1] == "2,0.33333333333333331"
    r = run("reducer", "--density", "uniform", "--x", "0.5", "--grid", "1")
    assert r.returncode == 0 and r.stdout.split()[-1] == "0.5,0"
    assert run("reducer", "--density", "uniform", "--grid", "1").returncode == 2


def test_seed_option_is_gone():
    assert run("--seed", "1", "verify").returncode == 2


def test_numerical_failure_exit_three():
    r = run("--quad-levels", "3", "--tol", "1e-14", "family", "scan",
            "--density", "sqrt32", "--t-min", "1.2", "--t-max", "1.8",
            "--steps", "3")
    assert r.returncode == 3
    for line in r.stdout.strip().split("\n")[1:]:
        assert line.split(",")[1] == "nan"
    # T of an unresolved oscillation fails loudly, not as a bad residual.
    assert run("solve", "--density", "uniform", "--lam", "0.5",
               "--g", "sin(1000*x)").returncode == 3


def test_one_suite(capsys):
    from secmeasure import SUITES, cli, run_suite
    assert list(SUITES) == ["paper"]
    with pytest.raises(ValueError, match=r"unknown suite 'quick'; have \['paper'\]"):
        run_suite("quick")
    assert cli.main(["verify", "--suite", "quick"]) == 2
    assert "invalid choice: 'quick'" in capsys.readouterr().err


def test_every_package_error_is_an_input_error_or_a_numerical_failure():
    # The exit status follows these two classes alone; an error class in
    # neither escaped the command line as a traceback with exit 1.
    from secmeasure import InputError, NumericalFailure, SecmeasureError
    assert issubclass(InputError, ValueError)
    assert issubclass(NumericalFailure, ArithmeticError)
    leaves, todo = set(), [SecmeasureError]
    while todo:
        for c in todo.pop().__subclasses__():
            todo.append(c)
            leaves.add(c)
    leaves -= {InputError, NumericalFailure}
    assert len(leaves) == 13
    for c in leaves:
        assert issubclass(c, InputError) != issubclass(c, NumericalFailure), c


def test_deep_nesting_exits_two(capsys):
    # Both raised RecursionError in the parser: a traceback and exit 1.
    from secmeasure import cli
    assert cli.main(["moments", "--density-expr", "(" * 2000 + "x" + ")" * 2000,
                     "--interval", "0", "1"]) == 2
    assert cli.main(["solve", "--density", "cheb-u", "--lam", "0.5",
                     "--g=" + "-" * 3000 + "x"]) == 2
    assert capsys.readouterr().err.count(
        "nesting deeper than 100 at offset 100") == 2


def test_quad_levels_above_sixteen_exit_two(capsys):
    # Each level doubles the nodes: an integral that never settled took
    # memory instead of raising NonConvergence (1.1 GB at 18 levels; a
    # traceback and exit 1 at 40 under a 1.5 GB limit).
    from secmeasure import cli
    assert cli.main(["--quad-levels", "17", "ortho", "--density",
                     "uniform", "--n", "2"]) == 2
    assert ("max_refinement_levels must be an integer from 1 to 16, got 17"
            in capsys.readouterr().err)


def test_refusals_exit_two(tmp_path, capsys):
    from secmeasure import cli
    one = tmp_path / "one.csv"
    one.write_text("x,y\n0,0\n1,nan\n")
    cases = [
        (["moments", "--density-expr", "1", "--interval", "0", "inf"],
         "interval endpoints must be finite, got [0.0, inf]"),
        (["solve", "--density", "cheb-u", "--lam", "0.5", "--g", "x$"],
         "unexpected character '$' at offset 1"),
        (["family", "scan", "--density", "cheb-u", "--t-min", "0.5",
          "--t-max", "1", "--steps", "1"], "--steps must be at least 2, got 1"),
        (["plot", "--input", str(one), "--x-col", "x", "--y-col", "y",
          "--output", str(tmp_path / "one.svg")],
         "need at least two finite data rows"),
    ]
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "one.svg").exists()


def test_csv_determinism():
    a = run("family", "scan", "--density", "uniform", "--t-min", "0.2",
            "--t-max", "1.0", "--steps", "5")
    b = run("family", "scan", "--density", "uniform", "--t-min", "0.2",
            "--t-max", "1.0", "--steps", "5")
    assert a.stdout == b.stdout and a.returncode == 0


def test_plot_svg(tmp_path):
    csv_path = tmp_path / "scan.csv"
    scan = run("family", "scan", "--density", "uniform", "--t-min", "0.2",
               "--t-max", "1.0", "--steps", "9")
    csv_path.write_text(scan.stdout)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        r = run("plot", "--input", str(csv_path), "--x-col", "t",
                "--y-col", "f", "--output", str(out))
        assert r.returncode == 0
    svg = out1.read_text()
    assert svg == out2.read_text()  # byte-identical
    xml.dom.minidom.parseString(svg)  # well-formed
    assert 'viewBox="0 0 800 600"' in svg and "<polyline" in svg


def test_plot_two_points(tmp_path):
    csv_path = tmp_path / "two.csv"
    csv_path.write_text("x,y\n0,0\n1,1\n")
    out = tmp_path / "two.svg"
    r = run("plot", "--input", str(csv_path), "--x-col", "x", "--y-col", "y",
            "--output", str(out))
    assert r.returncode == 0
    assert out.read_text().count(",") >= 2


def test_plot_of_a_flat_column(tmp_path):
    from secmeasure import cli
    flat = tmp_path / "flat.csv"
    flat.write_text("x,y\n0,1\n1,1\n2,1\n")
    svgs = []
    for name in ("a.svg", "b.svg"):
        assert cli.main(["plot", "--input", str(flat), "--x-col", "x",
                         "--y-col", "y", "--output", str(tmp_path / name)]) == 0
        svgs.append((tmp_path / name).read_text())
    assert svgs[0] == svgs[1]
    xml.dom.minidom.parseString(svgs[0])
    # The flat axis is padded by half of max(1, |y|) on each side.
    assert ">0.5</text>" in svgs[0] and ">1.5</text>" in svgs[0]


def test_plot_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("plot", "--input", str(empty), "--x-col", "x", "--y-col", "y",
               "--output", str(tmp_path / "o.svg")).returncode == 2
    good = tmp_path / "good.csv"
    good.write_text("x,y\n0,0\n1,1\n")
    assert run("plot", "--input", str(good), "--x-col", "x", "--y-col", "z",
               "--output", str(tmp_path / "o.svg")).returncode == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,zero\n1,1\n")
    assert run("plot", "--input", str(bad), "--x-col", "x", "--y-col", "y",
               "--output", str(tmp_path / "o.svg")).returncode == 2
    assert run("plot", "--input", str(tmp_path / "missing.csv"), "--x-col",
               "x", "--y-col", "y",
               "--output", str(tmp_path / "o.svg")).returncode == 2
