"""Mutation probe for the Tier-1 tests.

Each mutant replaces one exact piece of text, which must occur once, in one
file of the repository.  The probe first runs Tier-1 on an unchanged copy,
then, for each mutant one after another, copies the repository into a
temporary directory, applies the mutant there and runs Tier-1 with ``-x``.
A mutant under which every test passes survives: no test can tell the
mutated text from the real one.  The repository itself is never
written.  Run from its root:

    python tools/mutants.py

It prints one line per mutant and then the survivors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text).
MUTANTS = [
    ("src/secmeasure/stieltjes.py", "_PHI_CLAMP = 1e-9", "_PHI_CLAMP = 1e-6"),
    ("src/secmeasure/stieltjes.py", "NEAR_CUT_FRACTION = 5e-2",
     "NEAR_CUT_FRACTION = 5e-4"),
    ("src/secmeasure/stieltjes.py", "REDUCER_MARGIN = 1e-4",
     "REDUCER_MARGIN = 1e-3"),
    ("src/secmeasure/quadrature.py", "_TS_TMAX = 4.0", "_TS_TMAX = 3.0"),
    ("src/secmeasure/orthopoly.py", "QUOTIENT_FALLBACK = 1e-8",
     "QUOTIENT_FALLBACK = 1e-5"),
    ("src/secmeasure/orthopoly.py", "DERIVATIVE_STEP = 1e-6",
     "DERIVATIVE_STEP = 1e-3"),
    ("src/secmeasure/quadrature.py", "rel_tol: float = 1e-10",
     "rel_tol: float = 1e-6"),
    ("src/secmeasure/quadrature.py", "abs_tol: float = 1e-12",
     "abs_tol: float = 1e-6"),
    ("src/secmeasure/family.py", "_BRACKET_WIDTH = 1e-10",
     "_BRACKET_WIDTH = 1e-6"),
    ("src/secmeasure/stieltjes.py", "<= spec.rel_tol * (np.abs(cs)",
     "<= 1e-3 * spec.rel_tol * (np.abs(cs)"),
    ("src/secmeasure/orthopoly.py", "b = math.sqrt(q @ q)",
     "b = math.sqrt(1.01 * q @ q)"),
    ("src/secmeasure/stieltjes.py",
     "_ROUNDING_FLOOR = 100 * np.finfo(float).eps",
     "_ROUNDING_FLOOR = 1e-8"),
    ("src/secmeasure/stieltjes.py", "diffs[j - 1] > 1e-5 * max(",
     "diffs[j - 1] > 1e-1 * max("),
    ("src/secmeasure/stieltjes.py", "abs(est.imag) > 1e-6",
     "abs(est.imag) > 1e-1"),
    ("src/secmeasure/measures.py", "if abs(m - 1.0) <= 1e-2:",
     "if abs(m - 1.0) <= 1e-1:"),
    ("src/secmeasure/measures.py", "vals[step::2 * step] if odd",
     "vals[-1 - step::-2 * step] if odd"),
    ("src/secmeasure/stieltjes.py", "piece = np.concatenate([of_z, of_z + m])",
     "piece = np.concatenate([of_z, of_z])"),
    ("src/secmeasure/family.py", "(1.0 - self.t) * (x - self.c1)",
     "(1.0 - self.t) * (x + self.c1)"),
    ("src/secmeasure/stieltjes.py", "(a * d - b * c) * r / den",
     "(a * d + b * c) * r / den"),
    ("src/secmeasure/stieltjes.py", "a * c * (hp ** 2 + pr ** 2)",
     "a * c * hp ** 2"),
    ("src/secmeasure/stieltjes.py", "c = np.cos(math.pi * 2.0 ** level",
     "c = -np.cos(math.pi * 2.0 ** level"),
    ("src/secmeasure/stieltjes.py", "sigma = np.arcsinh(ratio / math.pi)",
     "sigma = ratio / math.pi"),
    ("src/secmeasure/stieltjes.py", "2 * c * odd_sums", "c * odd_sums"),
    ("src/secmeasure/stieltjes.py", "-np.maximum(dxr, clamp)).tolist()",
     "np.maximum(dxr, clamp)).tolist()"),
    ("src/secmeasure/stieltjes.py",
     "(sums[0], odd_sums[level - 1]) = sums[0]",
     "sums[0] = odd_sums[level - 1] = sums[0][0]"),
    ("src/secmeasure/stieltjes.py", "np.abs(cs + d) <= spec.rel_tol",
     "np.abs(cs + d) <= -spec.rel_tol"),
    ("src/secmeasure/family.py", "sa > 0.0 or sb < 0.0", "sa > 0.0"),
    ("src/secmeasure/stieltjes.py", "elif abs(h[k]) <= vanish:",
     "elif h[k] == 0.0:"),
    ("src/secmeasure/stieltjes.py", "if not math.isfinite(h[k]):",
     "if False:"),
    ("src/secmeasure/stieltjes.py", "(g, p)) + back", "(g, p))"),
    ("src/secmeasure/stieltjes.py", "        if p > 0:", "        if p >= 0:"),
    ("src/secmeasure/stieltjes.py", "a / c if c else s * a / d", "s"),
    ("src/secmeasure/stieltjes.py", "out.append(sign * math.inf)",
     "out.append(-sign * math.inf)"),
    ("src/secmeasure/orthopoly.py", "fx[gap != 0] = vals[:n]",
     "fx[gap != 0] = vals[1:n + 1]"),
    ("src/secmeasure/orthopoly.py", "todo[rows] = False", "todo[:] = False"),
    ("src/secmeasure/measures.py", "if tail > tol:", "if tail < tol:"),
    ("src/secmeasure/measures.py", " / (1.0 + self.exps.alpha)", ""),
    ("src/secmeasure/measures.py",
     "if not np.all((xs >= a + delta) & (xs <= b - delta)):",
     "if not np.all((xs >= a + delta) | (xs <= b - delta)):"),
    ("src/secmeasure/quadrature.py",
     "0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf",
     "0 < self.rel_tol and 0 < self.abs_tol"),
    ("src/secmeasure/quadrature.py",
     "-1 < self.alpha < math.inf and -1 < self.beta < math.inf",
     "-1 < self.alpha and -1 < self.beta"),
    ("src/secmeasure/quadrature.py", "        if n < 2:", "        if n < 1:"),
    ("src/secmeasure/measures.py", "if n_max < 0:", "if n_max < -1:"),
    ("src/secmeasure/orthopoly.py", "1 <= N <= MAX_DEGREE:",
     "1 <= N <= MAX_DEGREE + 1:"),
    # The root scan's point placement: the regula-falsi weight reversed,
    # the evenly spaced half dropped, and t = 1 sent through the scan.
    ("src/secmeasure/family.py", "ulo + dlo / (dlo - dhi) * (uhi - ulo)",
     "ulo + (1 - dlo / (dlo - dhi)) * (uhi - ulo)"),
    ("src/secmeasure/family.py", "np.concatenate([even, r - off, r + off])",
     "np.concatenate([r - off, r + off])"),
    ("src/secmeasure/family.py", "    if t <= 1.0:\n        return []",
     "    if t < 1.0:\n        return []"),
    # Only the Jacobi-matrix oracle holds the solver tighter than the
    # residual checks' 1e-5: t is off by 1.7e-8 at lambda = 0.7.
    ("src/secmeasure/operators.py", "return 1.0 / (1.0 + self.lam)",
     "return 1.0 / (1.0 + np.float32(self.lam))"),
    # The residual limit that secm solve and residual_check share, the CLI's
    # meta key order, the moments' bounded blocks and a derived density's
    # own spec for mass().
    ("src/secmeasure/operators.py", "RESIDUAL_LIMIT = 1e-5",
     "RESIDUAL_LIMIT = 1e-3"),
    ("src/secmeasure/cli.py", '{"density": rho.name, **meta,',
     '{**meta, "density": rho.name,'),
    ("src/secmeasure/measures.py", "kernel_sums(lambda n: x ** n, p, w)",
     "level_sums(x ** p, w)"),
    ("src/secmeasure/stieltjes.py", "self.spec if spec is None else spec",
     "DEFAULT_SPEC if spec is None else spec"),
    # The end transforms as rows of the far transform: the row at a taking
    # the old sign flip again, and the leading term measured from the far
    # end.  family's check that its base has mass 1, loosened.
    ("src/secmeasure/stieltjes.py", "out[end] = float(s)",
     "out[end] = float(s if end else -s)"),
    ("src/secmeasure/stieltjes.py", "g * np.where(left[sel, None], dl, dr) ** p",
     "g * np.where(left[sel, None], dr, dl) ** p"),
    ("src/secmeasure/family.py", "if abs(mass - 1.0) > 1e-6:",
     "if abs(mass - 1.0) > 1e-1:"),
    # The exit status from the exception classes: a numerical failure
    # taken for a refusal and the reverse.  The two bounds on outside
    # input, loosened, and the refusals that no other test reached.
    ("src/secmeasure/errors.py", "class NonConvergence(NumericalFailure):",
     "class NonConvergence(InputError):"),
    ("src/secmeasure/errors.py", "class DomainError(InputError):",
     "class DomainError(NumericalFailure):"),
    ("src/secmeasure/quadrature.py", "1 <= levels <= 16",
     "1 <= levels <= 17"),
    ("src/secmeasure/expressions.py", "_MAX_NESTING = 100",
     "_MAX_NESTING = 101"),
    ("src/secmeasure/cli.py", "if args.steps < 2:", "if args.steps < 1:"),
    ("src/secmeasure/cli.py", "if len(pts) < 2:", "if len(pts) < 1:"),
    ("src/secmeasure/quadrature.py",
     "if not (math.isfinite(self.a) and math.isfinite(self.b)):",
     "if False:"),
    # One first pass for both first levels: the next level's odd sums taken
    # from even-k columns, the first level's weights or the nested sum not
    # halved, and the pass built one level too coarse.
    ("src/secmeasure/quadrature.py", "zip((slice(None, None, 2), ODD), ws)",
     "zip((slice(None, None, 2), slice(0, -1, 2)), ws)"),
    ("src/secmeasure/quadrature.py", "(2.0 * w[::2], w[ODD])",
     "(w[::2], w[ODD])"),
    ("src/secmeasure/quadrature.py", "sums[act] = 0.5 * sums[act] + odd",
     "sums[act] = sums[act] + odd"),
    ("src/secmeasure/quadrature.py", "estimate(level + 1, act, False)",
     "estimate(level, act, False)"),
    # A chain as one node: its links folded right to left, a bracketed
    # chain that opens it spliced in without its links, and the flat print
    # dropping a link's operator.  Each refusal of a non-finite point.
    ("src/secmeasure/expressions.py", "for op, arg in node[2]:",
     "for op, arg in node[2][::-1]:"),
    ("src/secmeasure/expressions.py", "node[2] + tuple(links)",
     "tuple(links)"),
    ("src/secmeasure/expressions.py", "op + _print(arg)", "_print(arg)"),
    ("src/secmeasure/quadrature.py",
     "xs = _finite(np.asarray(x, dtype=float))",
     "xs = np.asarray(x, dtype=float)"),
    ("src/secmeasure/operators.py", "rho, xs = problem.rho, _finite(xs)",
     "rho = problem.rho"),
    ("src/secmeasure/stieltjes.py", "flat = _finite(zs.ravel())",
     "flat = zs.ravel()"),
    # phi at the nodes kept like rho's node values: the odd-k view taken
    # from the even-k nodes, the two ends' clamp-point phi swapped, and the
    # node rows sent back through the dict.  A literal that overflows.
    ("src/secmeasure/measures.py", "vals[step::2 * step] if odd",
     "vals[::2 * step] if odd"),
    ("src/secmeasure/stieltjes.py",
     "    if lo:\n"
     "        phi[:lo] = cache.setdefault(clamp, float(phi[lo - 1]))\n"
     "    if hi < len(dl):\n"
     "        phi[hi:] = cache.setdefault(-clamp, float(phi[hi]))\n",
     "    ends = (cache.setdefault(clamp, float(phi[lo - 1])),\n"
     "            cache.setdefault(-clamp, float(phi[hi])))\n"
     "    phi[:lo], phi[hi:] = ends[::-1]\n"),
    ("src/secmeasure/stieltjes.py",
     "return 0.5 * kept[2], rho._node_values(*node)",
     "r = rho._node_values(*node)\n"
     "            return 0.5 * _phi_values(rho, dl, dr, r, spec), r"),
    ("src/secmeasure/expressions.py", "if float(text) == np.inf:",
     "if False:"),
    # Less fixed cost per call: node points cached by width alone, the far
    # kernel's sides swapped, the lone-block return taken for several
    # blocks, a Neville column offset by one, the ladder's check dropped.
    ("src/secmeasure/measures.py", "key = self.interval\n",
     "key = self.interval.width\n"),
    ("src/secmeasure/stieltjes.py", "e_t = np.array([dr, -dl])",
     "e_t = np.array([-dl, dr])"),
    ("src/secmeasure/quadrature.py", "if len(blocks) == 1:",
     "if len(blocks) >= 1:"),
    ("src/secmeasure/stieltjes.py", "for j in range(1, 9)",
     "for j in range(2, 10)"),
    ("src/secmeasure/stieltjes.py", "if not np.isfinite(s).all():",
     "if False:"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def tier1_passes(mutant=None) -> bool:
    """Tier-1 on a temporary copy of the repository, with ``mutant``
    applied when given; True when every test passes."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_tmp"))
        if mutant is not None:
            path, old, new = mutant
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True,
                              text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited with {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return proc.returncode == 0


def main() -> int:
    for path, old, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{path}: {old!r} occurs {count} times, not once")
    if not tier1_passes():
        raise SystemExit("Tier-1 fails on the unchanged repository")
    survivors = []
    for mutant in MUTANTS:
        path, old, new = mutant
        survived = tier1_passes(mutant)
        print(f"{'SURVIVED' if survived else 'caught  '}  {path}: "
              f"{old!r} -> {new!r}", flush=True)
        if survived:
            survivors.append(mutant)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survive")
    for path, old, new in survivors:
        print(f"  {path}: {old!r} -> {new!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
