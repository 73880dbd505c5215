"""secmeasure benchmark: seeded workloads checked against closed forms.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density-sweep --seed 1 --seconds 25 --trace 0

Workloads: density-sweep, transform-scan, operator-solve and cli-cold (see
workloads.py and the reasons in BENCHMARK.json).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end numbers; with ``--trace 1`` they are per-span numbers
recorded around the benchmark's calls into each secmeasure module, plus
the tracing overhead.  The lines before it give the same numbers for a
reader, the tail percentile used, every failed op with its cause, and the
run's context.  The package is imported from ``src/`` of the checkout.

Op latencies and set-up times are CPU seconds (spans.cpu_clock) scaled to
a fixed machine speed: each is multiplied by REFERENCE_S over the mean CPU
time of a reference routine run just before and just after it
(spans.reference_s), which takes out most of the slowdown when the host is
busy.  ``ops_per_s`` is ops per second at that speed.  Span self times
are plain CPU time; ``--seconds`` is wall time.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# One client, no threads: an idle OpenBLAS worker spins and would be counted
# in the CPU time of every op.  The secm processes inherit this setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from spans import REFERENCE_S, Tracer, cpu_clock, reference_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
_wall = time.perf_counter

# An untraced run sets up this many times, each from a fresh import of
# secmeasure; setup_s is the median.
SETUPS = 5

# Which end-to-end metrics each group of spans should move, and where:
#   quadrature.tanh_sinh, measures.rule, measures.moments: user_points_per_op,
#     op_p50_ms on density-sweep, not cli-cold.
#   stieltjes.reducer, stieltjes.secondary_mass, family.family_density,
#     family.moment0_curve: op_p50_ms, ops_per_s, peak_rss_mb on
#     density-sweep and operator-solve, not transform-scan.
#   stieltjes.transform_far/_near/perron_invert, family.denominator_root_scan,
#     family.validate_parameter: ops_per_s, op_tail_ms, user_calls_per_op on
#     transform-scan, not density-sweep.
#   orthopoly.apply_T_off_node/_on_node/recurrence_coefficients,
#     operators.solve_integral_equation/isometry_check: op_p50_ms,
#     user_calls_per_op on operator-solve, not transform-scan.
#   expressions.*, cli.*, verify.*: op_p50_ms (import, expressions) and
#     op_tail_ms (verify) on cli-cold, not the in-process workloads.
IN_PROCESS_SPANS = (
    "quadrature.tanh_sinh", "measures.rule", "measures.moments",
    "stieltjes.reducer", "stieltjes.secondary_mass",
    "family.family_density", "family.moment0_curve",
    "stieltjes.transform_far", "stieltjes.transform_near",
    "stieltjes.perron_invert", "family.denominator_root_scan",
    "family.validate_parameter",
    "orthopoly.apply_T_off_node", "orthopoly.apply_T_on_node",
    "orthopoly.recurrence_coefficients", "operators.solve_integral_equation",
    "operators.isometry_check",
    "expressions.parse", "expressions.evaluate",
)
CLI_SPANS = ("cli.process", "cli.import", "cli.moments", "cli.ortho",
             "cli.reducer", "cli.secondary", "cli.family_density",
             "cli.family_scan", "cli.roots", "cli.solve", "cli.verify",
             "cli.plot")
VERIFY_SPANS = tuple("verify." + c for c in (
    "reducer_closed_forms", "moment0_values", "family_closed_forms",
    "equinormal_moments", "root_scans", "isometry_value",
    "integral_equation", "barycentric", "transform_relation",
    "property_suites"))


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for s in IN_PROCESS_SPANS:
        out += [(f"{s}.calls", "calls", "lower"), (f"{s}.self_ms", "ms", "lower"),
                (f"{s}.user_points", "points", "lower"),
                (f"{s}.failures", "count", "lower")]
    for s in CLI_SPANS:
        out += [(f"{s}.calls", "calls", "lower"), (f"{s}.self_ms", "ms", "lower")]
    out += [(f"{s}.self_ms", "ms", "lower") for s in VERIFY_SPANS]
    out += [("trace.top_span_share", "ratio", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("min_digits", "digits"),
              ("user_points_per_op", "points"), ("user_calls_per_op", "calls"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_setup(cls, seed):
    """Drop every secmeasure module, so that the import and the module-level
    caches start afresh as in a new process, then build and set up a
    workload.  Returns it and its set-up time, scaled."""
    for name in [m for m in sys.modules
                 if m == "secmeasure" or m.startswith("secmeasure.")]:
        del sys.modules[name]
    gc.collect()
    ref = reference_s()
    t0 = cpu_clock()
    wl = cls(Tracer(False), seed)
    wl.setup()
    seconds = cpu_clock() - t0
    ref = 0.5 * (ref + reference_s())
    return wl, seconds * REFERENCE_S / ref


def timed_phase(wl, seconds, trace):
    """Make passes over the workload's inputs for ``seconds`` of wall time,
    and at least one pass (two with ``trace``, where input j of pass p is
    traced when j + p is even, so that the two passes trace every input
    once).  Passes after those cover only the first ``timed_size`` inputs.

    Returns, for traced and untraced ops, each timed input's least scaled
    latency over the passes, the op count and the summed CPU time; the
    digits and the failures of every op; and the user-callable counts of
    the first pass and the span totals of the first two.  Interference from
    other processes only adds time, so the least latency of an input is its
    steadiest measure.
    """
    tr = wl.tr
    n = wl.timed_size or wl.pass_size
    best = {True: [math.inf] * n, False: [math.inf] * n}
    ops = {True: 0, False: 0}
    busy = {True: 0.0, False: 0.0}
    digits, failures = [], []
    window = None
    deadline = _wall() + seconds
    p = 0
    while p < 1 + trace or _wall() < deadline:
        tr.enabled = False
        if p:
            wl.start_pass()
        p0, c0 = tr.points, tr.calls
        ref = reference_s()
        for j in range(wl.pass_size if p < 1 + trace else n):
            if p >= 1 + trace and _wall() >= deadline:
                break
            traced = tr.enabled = bool(trace) and (j + p) % 2 == 0
            latency, dig, cause = wl.op(j)
            # Scale by the reference speed measured on both sides of the op.
            ref_before, ref = ref, reference_s()
            if j < n:
                best[traced][j] = min(best[traced][j], latency * REFERENCE_S
                                      / (0.5 * (ref_before + ref)))
            ops[traced] += 1
            busy[traced] += latency
            if dig is not None:
                digits.append(dig)
            if cause is not None:
                failures.append((p, j, cause))
        tr.enabled = False
        if p == trace:
            window = (tr.points - p0, tr.calls - c0,
                      {k: list(v) for k, v in tr.stats.items()})
        p += 1
    return best, ops, busy, digits, failures, window


def tail_pct(n):
    """Highest percentile with ten of n samples beyond it."""
    return 100.0 * (1 - 10 / n)


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "secmeasure").glob("*.py")))


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def peak_rss_mb(of_children):
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, setups, lat, digits, window):
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * np.percentile(lat, tail_pct(len(lat))),
        "min_digits": min(digits) if digits else 0.0,
        "user_points_per_op": window[0] / wl.pass_size,
        "user_calls_per_op": window[1] / wl.pass_size,
        "peak_rss_mb": peak_rss_mb(wl.rss_of_children),
    }


def per_layer(wl, lat, untraced_lat, n_traced, busy_traced, window):
    tr = wl.tr
    win = window[2]
    values = {}
    for name, _, _ in per_layer_metrics():
        span, field = name.rsplit(".", 1)
        if span == "trace":
            continue
        total = tr.stats.get(span, [0, 0.0, 0, 0])
        first = win.get(span, [0, 0.0, 0, 0])
        values[name] = {"calls": first[0] / wl.pass_size,
                        "self_ms": 1000 * total[1] / n_traced,
                        "user_points": first[2] / wl.pass_size,
                        "failures": total[3]}[field]
    values["trace.top_span_share"] = tr.top_s / busy_traced
    values["trace.overhead"] = sum(lat) / sum(untraced_lat)
    return values


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "secmeasure" / "__init__.py").is_file():
        print(f"perfbench: no secmeasure sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    setups = []
    for _ in range(1 if args.trace else SETUPS):
        wl = None  # free the last set-up's workload and modules first
        wl, seconds = fresh_setup(cls, args.seed)
        setups.append(seconds)

    best, ops, busy, digits, failures, window = timed_phase(
        wl, args.seconds, args.trace)
    attempted = ops[True] + ops[False]
    lat = best[False]
    if args.trace:
        metrics = per_layer(wl, best[True], lat, ops[True], busy[True], window)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = end_to_end(wl, setups, lat, digits, window)
        units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  closed loop, 1 client")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    if not args.trace:
        pct = tail_pct(len(lat))
        cut = np.percentile(lat, pct)
        beyond = sum(x > cut for x in lat)
        print(f"  latencies are each of the first {len(lat)} inputs' least over "
              f"the passes; op_tail_ms is p{pct:.4g} with {beyond} inputs "
              f"beyond it")
    print(f"  failed_op_share {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    for (j, cause), passes in sorted(Counter(f[1:] for f in failures).items()):
        print(f"  failed input {j} in {passes} pass(es): {cause}")
    context = {"python": platform.python_version(), "numpy": np.__version__,
               "nproc": os.cpu_count(), "commit": git_commit(),
               "src_lines": src_lines(), "seconds": args.seconds,
               "inputs_per_pass": wl.pass_size,
               "timed_inputs": len(lat)}
    print("context " + json.dumps(context))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
