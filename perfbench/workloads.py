"""The benchmark's four workloads.

Each workload is a closed loop with one client that makes passes over a
fixed list of ``pass_size`` seeded inputs: input j is drawn from
``numpy.random.default_rng([seed, 0, j])``.  Every pass starts from the
same state, so a pass repeats the same work.  An op calls secmeasure
inside spans and checks every answer against ``oracle``.

secmeasure is imported in ``setup`` (so its import is part of set-up
time), through ``importlib.import_module``: the package attribute
``secmeasure.family`` is the function ``family``, not the module.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

import oracle
from spans import cpu_clock

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"


def load(*modules):
    return [importlib.import_module(f"secmeasure.{m}") for m in modules]


def draw_jacobi(rng, exponents=None) -> oracle.JacobiDensity:
    """Jacobi density on [0, 1]: exponents in (-1/2, 3/2), positive h of degree <= 3."""
    alpha, beta = rng.uniform(-0.5, 1.5, 2) if exponents is None else exponents
    shape = rng.uniform(0.2, 1.0, int(rng.integers(1, 5)))
    return oracle.JacobiDensity(0.0, 1.0, alpha, beta, shape)


def latin_exponents(rng, n):
    """n exponent pairs in (-1/2, 3/2)^2 with one in each of n strata per axis.

    A few densities carry a whole run; stratifying keeps the share of nearly
    singular ones, which set the cost and the worst accuracy, alike across
    seeds.
    """
    return list(zip(*(-0.5 + 2.0 * (rng.permutation(n) + rng.random(n)) / n
                      for _ in range(2))))


# Each check's relative tolerance is that of the paper suite (secm verify)
# where it checks the same quantity, else ten times the requested quadrature
# tolerance of 1e-10 for a single quadrature and 1e-8 for composed results.
# The moment-0 curve is held to the suite's 1e-6: at 1e-8 it misses on under
# one density in a thousand (min_digits reports the accuracy reached).
TOL_MOMENT0 = 1e-6


class Checks:
    """Oracle comparisons of one op: worst digits and the first miss."""

    def __init__(self):
        self.digits = 15.0
        self.cause = None

    def fail(self, what):
        if self.cause is None:
            self.cause = what

    def close(self, what, got, want, tol):
        """Pass when max |got - want| <= tol * max |want|."""
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.fail(f"{what}: shape {got.shape} != {want.shape}")
            self.digits = 0.0
            return
        s = float(np.max(np.abs(want)))
        err = float(np.max(np.abs(got - want))) / max(s, 1e-300)
        if not math.isfinite(err):
            err = math.inf
        self.digits = min(self.digits,
                          15.0 if err <= 1e-15 else max(0.0, -math.log10(err)))
        if not err <= tol:
            self.fail(f"{what}: relative error {err:.3e} > {tol:g}")

    def require(self, what, ok):
        if not ok:
            self.fail(what)


class Workload:
    """One seeded closed-loop workload; subclasses define ``inputs``,
    ``run`` and ``check``, and may extend ``setup`` and ``start_pass``."""

    name = ""
    pass_size = 1
    timed_size = 0  # inputs timed again after the first pass; 0 for all
    rss_of_children = False

    def __init__(self, tracer, seed: int):
        self.tr = tracer
        self.seed = seed

    def rng(self, i):
        return np.random.default_rng([self.seed, int(i < 0), abs(i)])

    def setup(self):
        """Import, build shared inputs and run one warm-up op."""
        self.op(-1)

    def start_pass(self):
        """Bring shared state back to where the first pass found it."""

    def op(self, i):
        """Run op i: (latency in CPU seconds, digits or None, failure cause
        or None).  The latency includes the secm processes the op waits for."""
        inp = self.inputs(i)
        t0 = cpu_clock()
        try:
            out = self.run(inp)
        except Exception as exc:  # a raising op counts as failed, the loop goes on
            return cpu_clock() - t0, None, f"{type(exc).__name__}: {exc}"
        latency = cpu_clock() - t0
        chk = Checks()
        try:
            self.check(inp, out, chk)
        except (ValueError, IndexError, OSError) as exc:
            chk.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        return latency, chk.digits, chk.cause


# ---------------------------------------------------------------------------
# density-sweep: the cold path
# ---------------------------------------------------------------------------

class DensitySweep(Workload):
    name = "density-sweep"
    pass_size = 1000
    timed_size = 200
    grid = np.linspace(0.01, 0.99, 41)

    def setup(self):
        (self.quad, self.measures, self.stieltjes,
         self.family) = load("quadrature", "measures", "stieltjes", "family")
        super().setup()

    def inputs(self, i):
        rng = self.rng(i)
        return {"rho": draw_jacobi(rng), "t": float(rng.uniform(0.2, 1.0))}

    def run(self, inp):
        q, m, st, fam, span = (self.quad, self.measures, self.stieltjes,
                               self.family, self.tr.span)
        oj = inp["rho"]
        unit = q.Interval(0.0, 1.0)
        rho = m.Density(unit, self.tr.counted(oj.smooth),
                        q.EndpointExponents(oj.alpha, oj.beta), "sweep")
        out = {}
        with span("quadrature.tanh_sinh"):
            out["mass"] = q.tanh_sinh(lambda x, dl, dr: rho.value_at(x, dl, dr),
                                      unit).real
        with span("measures.rule"):
            out["rule_mass"] = rho.rule().w.sum()
        with span("measures.moments"):
            out["moments"] = m.moments(rho, 6).values
        with span("stieltjes.reducer"):
            out["phi"] = st.reducer(rho, self.grid)
        with span("stieltjes.secondary_mass"):
            out["mu_mass"] = st.secondary_measure(rho).mass()
        with span("family.family_density"):
            out["rho_t"] = fam.family_density(rho, inp["t"], self.grid)
        with span("family.moment0_curve"):
            out["f_t"] = fam.moment0_curve(rho, inp["t"])
        return out

    def check(self, inp, out, chk):
        oj = inp["rho"]
        chk.close("tanh_sinh mass", out["mass"], 1.0, 1e-9)
        chk.close("rule mass", out["rule_mass"], 1.0, 1e-9)
        c = oj.moments(6)
        chk.close("moments", np.asarray(out["moments"]) / c, np.ones(7), 1e-9)
        chk.require("reducer finite", np.all(np.isfinite(out["phi"])))
        chk.close("mass of mu", out["mu_mass"], oj.variance, 1e-8)
        chk.require("rho_t positive", np.all(out["rho_t"] > 0))
        chk.close("moment-0 curve", out["f_t"], 1.0, TOL_MOMENT0)


# ---------------------------------------------------------------------------
# transform-scan: transforms, Perron inversion and root scans
# ---------------------------------------------------------------------------

class TransformScan(Workload):
    name = "transform-scan"
    pass_size = 40

    def setup(self):
        (self.quad, self.measures, self.stieltjes,
         self.family) = load("quadrature", "measures", "stieltjes", "family")
        self.exponents = latin_exponents(self.rng(-2), self.pass_size)
        super().setup()

    def inputs(self, i):
        rng = self.rng(i)
        r = rng.uniform(2.0, 4.0, 4)
        theta = rng.uniform(0.0, 2 * math.pi, 4)
        rho = draw_jacobi(rng, self.exponents[i] if i >= 0 else None)
        return {"rho": rho, "far_z": r * np.exp(1j * theta),
                "x0": float(rng.uniform(0.15, 0.85)),
                "t_low": float(rng.uniform(0.2, 1.0)),
                "t_high": float(rng.uniform(1.5, 4.0))}

    def run(self, inp):
        q, m, st, fam, span = (self.quad, self.measures, self.stieltjes,
                               self.family, self.tr.span)
        oj = inp["rho"]
        rho = m.Density(q.Interval(0.0, 1.0), self.tr.counted(oj.smooth),
                        q.EndpointExponents(oj.alpha, oj.beta), "scan")
        out = {"far": []}
        for z in inp["far_z"]:
            with span("stieltjes.transform_far"):
                out["far"].append(st.stieltjes_transform(rho, z))

        def S(z):
            with span("stieltjes.transform_near"):
                return st.stieltjes_transform(rho, z)

        with span("stieltjes.perron_invert"):
            out["perron"] = st.perron_invert(S, inp["x0"])
        with span("family.denominator_root_scan"):
            out["roots_low"] = fam.denominator_root_scan(
                rho, inp["t_low"], q.Interval(1.001, 11.0))
        with span("family.validate_parameter"):
            out["validity"] = fam.validate_parameter(rho, inp["t_high"]).validity
        cheb = m.Density(q.Interval(-1.0, 1.0),
                         self.tr.counted(lambda x: np.full(np.shape(x), 2 / math.pi)),
                         q.EndpointExponents(0.5, 0.5), "cheb-u")
        with span("family.denominator_root_scan"):
            out["roots_cheb"] = fam.denominator_root_scan(
                cheb, 3.0, q.Interval(1.002, 21.0))
        return out

    def check(self, inp, out, chk):
        oj = inp["rho"]
        chk.close("far transform", out["far"],
                  [oj.stieltjes(z) for z in inp["far_z"]], 1e-9)
        chk.close("perron inversion", out["perron"], oj.value(inp["x0"]), 1e-8)
        chk.require(f"roots at t={inp['t_low']:.3f} <= 1: {out['roots_low']}",
                    out["roots_low"] == [])
        want = oj.screen_outcomes(inp["t_high"])
        chk.require(f"validity at t={inp['t_high']:.3f}: {out['validity']} "
                    f"not in {sorted(want)}", out["validity"] in want)
        root = oracle.semicircle_root(3.0)
        br = out["roots_cheb"]
        chk.require(f"cheb-u roots at t=3: {br}",
                    len(br) == 1 and br[0][0] <= root <= br[0][1]
                    and 1.06 < br[0][0] and br[0][1] < 1.07)


# ---------------------------------------------------------------------------
# operator-solve: the warm path
# ---------------------------------------------------------------------------

class OperatorSolve(Workload):
    """A pool of densities shared by all ops; each pass starts from a fresh
    pool warmed by one op per density, so rule, moment and reducer caches
    are hit while every op still builds its own rho_t.

    Ops 3k, 3k + 1 and 3k + 2 (mod three times the pool) use pool density
    k, the first with a polynomial f and the others with a simple pole.
    Polynomial ops cost about twice as much, so with fixed shares of one
    third and two thirds the median latency falls inside the cheaper kind,
    not in the gap between the kinds, and stays alike across seeds.
    """

    name = "operator-solve"
    pass_size = 240
    pool_size = 40
    off_grid = np.linspace(0.02, 0.98, 30)

    def setup(self):
        (self.quad, self.measures, self.orthopoly,
         self.operators) = load("quadrature", "measures", "orthopoly", "operators")
        rng = self.rng(-1)
        self.pool_oracles = [draw_jacobi(rng, e)
                             for e in latin_exponents(rng, self.pool_size)]
        self.start_pass()

    def start_pass(self):
        q, m = self.quad, self.measures
        # The old pool's caches sit in reference cycles; free them now, so
        # that peak memory does not grow with the number of passes.
        self.pool = []
        gc.collect()
        for k, oj in enumerate(self.pool_oracles):
            rho = m.Density(q.Interval(0.0, 1.0), self.tr.counted(oj.smooth),
                            q.EndpointExponents(oj.alpha, oj.beta), f"pool{k}")
            nodes = rho.rule().x
            grid = np.sort(np.concatenate([nodes, np.linspace(0.05, 0.95, 20)]))
            self.pool.append((oj, rho, nodes, grid))
        for k in range(self.pool_size):
            self.op(-2 - k)

    def inputs(self, i):
        rng = self.rng(i)
        k = (-2 - i) if i < -1 else (i // 3) % self.pool_size
        oj = self.pool[k][0]
        lam = float(rng.uniform(0.0, 0.6))
        if i % 3 == 0:
            f = rng.uniform(-1.0, 1.0, int(rng.integers(2, 6)))
            fn = lambda x, c=f: P.polyval(x, c)
            g_coeffs = oj.equation_rhs_poly(f, lam)
            g = lambda x, c=g_coeffs: P.polyval(x, c)
            tc = oj.T_poly(f)
            T = lambda x, c=tc: P.polyval(x, c)
            var = oj.variance_of_poly(f)
        else:
            p = float(rng.uniform(1.5, 3.0))
            s, c1 = oj.T_pole_factor(p), oj.mean
            fn = lambda x, p=p: 1.0 / (np.asarray(x, dtype=float) + p)
            g = lambda x, p=p, s=s, c1=c1: (1.0 + lam * (np.asarray(x) - c1) * s) \
                / (np.asarray(x, dtype=float) + p)
            T = lambda x, p=p, s=s: s / (np.asarray(x, dtype=float) + p)
            var = oj.variance_of_pole(p)
        return {"k": k, "lam": lam, "f": fn, "g": g, "T": T, "var": var}

    def run(self, inp):
        ops, orth, span = self.operators, self.orthopoly, self.tr.span
        oj, rho, nodes, grid = self.pool[inp["k"]]
        f, g = self.tr.counted(inp["f"]), self.tr.counted(inp["g"])
        out = {}
        with span("operators.solve_integral_equation"):
            problem = ops.IntegralEquationProblem(rho, inp["lam"], g)
            out["solution"] = ops.solve_integral_equation(problem, grid)
        with span("orthopoly.apply_T_off_node"):
            out["T_off"] = orth.apply_T(rho, f, self.off_grid)
        with span("orthopoly.apply_T_on_node"):
            out["T_on"] = orth.apply_T(rho, f, nodes)
        with span("operators.isometry_check"):
            ctx = ops.make_context(rho, 1.0 / (1.0 + inp["lam"]))
            out["isometry"] = ops.isometry_check(ctx, f)
        with span("orthopoly.recurrence_coefficients"):
            out["recurrence"] = orth.recurrence_coefficients(rho, 10)
        return out

    def check(self, inp, out, chk):
        oj, _, nodes, grid = self.pool[inp["k"]]
        chk.close("integral-equation solution", out["solution"], inp["f"](grid), 1e-8)
        chk.close("T off-node", out["T_off"], inp["T"](self.off_grid), 1e-8)
        chk.close("T on-node", out["T_on"], inp["T"](nodes), 1e-8)
        rep = out["isometry"]
        chk.close("isometry left side", rep.expected, inp["var"], 1e-8)
        chk.close("isometry right side", rep.computed, inp["var"], 1e-6)
        chk.require("isometry report passed", rep.passed)
        a, b = oj.recurrence(10)
        rc = out["recurrence"]
        chk.close("recurrence a_n", rc.a, a, 1e-8)
        chk.close("recurrence b_n", rc.b, b, 1e-8)


# ---------------------------------------------------------------------------
# cli-cold: fresh secm processes
# ---------------------------------------------------------------------------

_SECM = "import sys; from secmeasure.cli import main; sys.exit(main())"
# One cycle: every subcommand but verify on one seeded draw of arguments,
# then the in-process expression op.
_CYCLE = ("moments", "ortho", "reducer", "secondary", "family_density",
          "family_scan", "roots", "solve", "plot", "expr")
_CYCLES_PER_PASS = 3


def _num(v) -> str:
    # Positional notation: secm's argparse reads "-3.6e-05" as an option.
    return np.format_float_positional(float(v), unique=True, trim="-")


def _poly_expr(coeffs) -> str:
    return " + ".join(f"({_num(c)})*x^{j}" for j, c in enumerate(coeffs))


def _csv(text):
    lines = text.strip().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


class CliCold(Workload):
    """A pass is three cycles of ``_CYCLE``, each with its own seeded
    arguments, and one ``secm verify --suite paper``."""

    name = "cli-cold"
    pass_size = len(_CYCLE) * _CYCLES_PER_PASS + 1
    # The runner starts no process besides the secm ones, so the children's
    # peak memory is that of the largest secm process.
    rss_of_children = True

    def setup(self):
        (self.quad, self.measures, self.expressions) = load(
            "quadrature", "measures", "expressions")
        SCRATCH.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.cycles = {}
        self.exponents = latin_exponents(self.rng(-2), _CYCLES_PER_PASS)
        self.op(-1)

    def cycle(self, c):
        if c not in self.cycles:
            self.cycles[c] = self._draw_cycle(c)
        return self.cycles[c]

    def _draw_cycle(self, c):
        rng = self.rng(c)
        oj = draw_jacobi(rng, self.exponents[c] if c >= 0 else None)
        a = float(rng.uniform(-2.0, 0.0))
        b = a + float(rng.uniform(0.5, 3.0))
        semi = oracle.semicircle(a, b)
        linear = oracle.JacobiDensity(a, b, 0.5, 0.5, [1.0, 1.0])
        lam = float(rng.uniform(0.0, 0.6))
        f = rng.uniform(-1.0, 1.0, int(rng.integers(2, 5)))
        s = rng.uniform(-0.95, 0.95, 5)
        return {
            "jacobi": oj, "a": a, "b": b, "semi": semi,
            "jacobi_args": ["--density-expr", _poly_expr(oj.q), "--interval", "0", "1",
                            "--alpha", _num(oj.alpha), "--beta", _num(oj.beta)],
            "semi_args": ["--density-expr", _num(semi.q[0]), "--interval",
                          _num(a), _num(b), "--alpha", "0.5", "--beta", "0.5"],
            # A density whose shape does not depend on [a, b], so neither do
            # its rule and the points its expression is evaluated at.
            "linear": linear,
            "linear_expr": f"({_num(linear.q[0])})*(1 + (x - ({_num(a)}))/({_num(b - a)}))",
            "reducer_x": 0.5 * (a + b) + 0.5 * (b - a) * s,
            "t_family": float(rng.uniform(0.3, 1.8)),
            "t_min": float(rng.uniform(0.2, 0.6)),
            "lam": lam, "f": f, "g": oj.equation_rhs_poly(f, lam),
            "scan_csv": None,
        }

    def inputs(self, i):
        if i == self.pass_size - 1:
            return {"which": "verify", "argv": ["verify", "--suite", "paper"],
                    "cycle": None}
        c, j = divmod(i, len(_CYCLE)) if i >= 0 else (i, 0)
        cy = self.cycle(c)
        which = _CYCLE[j]
        if which == "moments":
            argv = ["moments", *cy["jacobi_args"], "--n", "6"]
        elif which == "ortho":
            argv = ["ortho", *cy["jacobi_args"], "--n", "6"]
        elif which == "reducer":
            argv = ["reducer", *cy["semi_args"], "--x", *map(_num, cy["reducer_x"])]
        elif which == "secondary":
            argv = ["secondary", *cy["semi_args"], "--grid", "11"]
        elif which == "family_density":
            argv = ["family", "density", *cy["semi_args"], "--t",
                    _num(cy["t_family"]), "--grid", "11"]
        elif which == "family_scan":
            argv = ["family", "scan", *cy["jacobi_args"], "--t-min",
                    _num(cy["t_min"]), "--t-max", "1", "--steps", "5"]
        elif which == "roots":
            argv = ["roots", *cy["semi_args"], "--t", "3"]
        elif which == "solve":
            argv = ["solve", *cy["jacobi_args"], "--lam", _num(cy["lam"]),
                    "--g", _poly_expr(cy["g"]), "--grid", "21"]
        elif which == "plot":
            scan = SCRATCH / "scan.csv"
            scan.write_text(cy["scan_csv"] or "t,f\n0.5,1\n1,1\n")
            (SCRATCH / "scan.svg").unlink(missing_ok=True)
            argv = ["plot", "--input", str(scan), "--x-col", "t", "--y-col", "f",
                    "--output", str(SCRATCH / "scan.svg")]
        else:
            argv = None
        return {"which": which, "argv": argv, "cycle": cy}

    def run(self, inp):
        if inp["argv"] is None:
            return self._run_expr(inp["cycle"])
        if self.tr.enabled:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_probe.py"))]
        else:
            cmd = [sys.executable, "-c", _SECM]
        with self.tr.span("cli.process") as sp:
            proc = subprocess.run(cmd + inp["argv"], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=120)
            if self.tr.enabled:
                sp.child += self._fold_child_spans(proc.stderr)
        return proc

    def _fold_child_spans(self, stderr):
        for line in stderr.splitlines():
            if line.startswith("PERFBENCH-SPANS "):
                data = json.loads(line.split(" ", 1)[1])
                for name, (calls, self_s) in data["spans"].items():
                    self.tr.add_external(name, calls, self_s)
                return data["top_s"]
        return 0.0

    def _run_expr(self, cy):
        q, m, ex, span = self.quad, self.measures, self.expressions, self.tr.span
        a, b = cy["a"], cy["b"]
        with span("expressions.parse"):
            expr = ex.parse(cy["linear_expr"])
        rho = m.Density(q.Interval(a, b), self.tr.counted(expr.evaluate),
                        q.EndpointExponents(0.5, 0.5), "expr")
        with span("measures.rule"):
            nodes = rho.rule().x
        with span("expressions.evaluate"):
            vals = expr.evaluate(nodes)
        return {"nodes": nodes, "vals": vals}

    def check(self, inp, out, chk):
        which, cy = inp["which"], inp["cycle"]
        if which == "expr":
            chk.close("expression on rule nodes", out["vals"],
                      cy["linear"].smooth(out["nodes"]), 1e-13)
            return
        if out.returncode != 0:
            chk.fail(f"secm {which} exited {out.returncode}: {out.stderr.strip()[-200:]}")
            return
        if which == "verify":
            lines = out.stdout.strip().splitlines()
            done, total = lines[-1].split()[0].split("/")
            chk.require(f"secm verify: {lines[-1]}",
                        done == total and int(total) == len(lines) - 1
                        and all(ln.startswith("pass") for ln in lines[:-1]))
            return
        oj, semi, a, b = cy["jacobi"], cy["semi"], cy["a"], cy["b"]
        if which == "moments":
            chk.close("secm moments", _csv(out.stdout)[:, 1] / oj.moments(6),
                      np.ones(7), 1e-9)
        elif which == "ortho":
            tab = _csv(out.stdout)
            ra, rb = oj.recurrence(6)
            chk.close("secm ortho a_n", tab[:, 1], ra, 1e-8)
            chk.close("secm ortho b_n", tab[1:, 2], rb, 1e-8)
        elif which == "reducer":
            tab = _csv(out.stdout)
            chk.close("secm reducer", tab[:, 1], oracle.semicircle_reducer(a, b, tab[:, 0]),
                      1e-7)
        elif which == "secondary":
            tab = _csv(out.stdout)
            chk.close("secm secondary mu0", tab[:, 2], semi.value(tab[:, 0]), 1e-7)
            chk.close("secm secondary mu", tab[:, 1],
                      semi.variance * semi.value(tab[:, 0]), 1e-7)
        elif which == "family_density":
            tab = _csv(out.stdout)
            chk.close("secm family density", tab[:, 1],
                      oracle.semicircle_family(a, b, cy["t_family"], tab[:, 0]), 1e-7)
        elif which == "family_scan":
            cy["scan_csv"] = out.stdout
            chk.close("secm family scan", _csv(out.stdout)[:, 1], np.ones(5),
                      TOL_MOMENT0)
        elif which == "roots":
            tab = _csv(out.stdout)
            m, half = 0.5 * (a + b), 0.5 * (b - a) * oracle.semicircle_root(3.0)
            want = sorted([m - half, m + half])
            chk.require(f"secm roots {tab.tolist()} around {want}",
                        tab.shape == (2, 2) and all(
                            lo <= r <= hi for (lo, hi), r in zip(tab, want)))
        elif which == "solve":
            tab = _csv(out.stdout)
            chk.close("secm solve", tab[:, 1], P.polyval(tab[:, 0], cy["f"]), 1e-8)
        elif which == "plot":
            svg = (SCRATCH / "scan.svg").read_text()
            chk.require("secm plot svg", svg.startswith("<svg") and "<polyline" in svg)


WORKLOADS = {w.name: w for w in (DensitySweep, TransformScan, OperatorSolve, CliCold)}
