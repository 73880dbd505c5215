"""Smoke test of the calls the benchmark in ``perfbench/`` makes into
secmeasure: set-up and the first ops of three workloads, seed 1.

transform-scan runs its whole first pass of 40 inputs, so that a validity
screen answer the oracle rejects fails here; the other two run three ops.
The full benchmark tests (``python -m pytest perfbench``) take over a
minute; this catches a broken call in a few seconds.  More tests bound
the user points and calls (the deterministic work counts) of the first
three ops.  It only imports ``perfbench/`` and writes nothing there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench(request):
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    mp.setattr(sys, "dont_write_bytecode", True)
    request.addfinalizer(mp.undo)
    from spans import Tracer
    from workloads import WORKLOADS
    return Tracer, WORKLOADS


@pytest.mark.parametrize("name", ["density-sweep", "transform-scan",
                                  "operator-solve"])
def test_benchmark_ops_pass_their_checks(perfbench, name):
    Tracer, WORKLOADS = perfbench
    wl = WORKLOADS[name](Tracer(False), 1)
    wl.setup()
    for i in range(wl.pass_size if name == "transform-scan" else 3):
        _, _, cause = wl.op(i)
        assert cause is None, f"{name} op {i}: {cause}"


# User points of ops 0-2, seed 1, after set-up.  When every level of a
# refinement evaluated all its nodes, density-sweep read 14,433 and
# operator-solve 49,827; evaluating only the nodes a coarser level lacks
# brought them to 8,608 and 23,206.  The bound is 0.7 of the former.
_POINTS_ALL_NODES = {"density-sweep": 14433, "operator-solve": 49827}


@pytest.mark.parametrize("name", sorted(_POINTS_ALL_NODES))
def test_benchmark_ops_evaluate_only_new_nodes(perfbench, name):
    Tracer, WORKLOADS = perfbench
    tracer = Tracer(False)
    wl = WORKLOADS[name](tracer, 1)
    wl.setup()
    before = tracer.points
    for i in range(3):
        wl.op(i)
    assert tracer.points - before <= 0.7 * _POINTS_ALL_NODES[name]


# User points of ops 0-2, seed 1, after set-up, before a density kept its
# values at the tanh-sinh nodes and near-cut rows at one Re z shared them.
# Reading those values cut density-sweep to 3,252, transform-scan to 3,855
# and operator-solve to 8,803; each bound fails on the count before.
_POINTS_BEFORE_NODE_VALUES = {"density-sweep": (9002, 0.5),
                              "transform-scan": (41843, 0.2),
                              "operator-solve": (10918, 0.9)}


@pytest.mark.parametrize("name", sorted(_POINTS_BEFORE_NODE_VALUES))
def test_benchmark_ops_read_kept_node_values(perfbench, name):
    Tracer, WORKLOADS = perfbench
    tracer = Tracer(False)
    wl = WORKLOADS[name](tracer, 1)
    wl.setup()
    before = tracer.points
    for i in range(3):
        wl.op(i)
    count, share = _POINTS_BEFORE_NODE_VALUES[name]
    assert tracer.points - before <= share * count


# User calls of ops 0-2, seed 1, after set-up, while every refinement
# evaluated its first level apart from the next level's odd-k nodes: 31
# (density-sweep), 37 (transform-scan) and 59 (operator-solve).  One first
# pass for both brought them to 25, 28 and 34; each bound fails on the
# count before.
_CALLS_BEFORE_FIRST_PASS = {"density-sweep": (31, 0.85),
                            "transform-scan": (37, 0.8),
                            "operator-solve": (59, 0.6)}


@pytest.mark.parametrize("name", sorted(_CALLS_BEFORE_FIRST_PASS))
def test_benchmark_ops_call_once_for_both_first_levels(perfbench, name):
    Tracer, WORKLOADS = perfbench
    tracer = Tracer(False)
    wl = WORKLOADS[name](tracer, 1)
    wl.setup()
    before = tracer.calls
    for i in range(3):
        wl.op(i)
    count, share = _CALLS_BEFORE_FIRST_PASS[name]
    assert tracer.calls - before <= share * count
