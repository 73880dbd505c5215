import math

import numpy as np
import pytest

import secmeasure.measures as measures
from secmeasure import DEFAULT_SPEC, Density, Interval, catalog
from secmeasure.quadrature import EndpointExponents, tanh_sinh_nodes

_acceptance_lines = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def spec():
    return DEFAULT_SPEC


@pytest.fixture(scope="session")
def cheb_u():
    return catalog("cheb-u")


@pytest.fixture(scope="session")
def cheb_t():
    return catalog("cheb-t")


@pytest.fixture(scope="session")
def uniform():
    return catalog("uniform")


@pytest.fixture(scope="session")
def linear2x():
    return catalog("linear2x")


@pytest.fixture(scope="session")
def sqrt32():
    return catalog("sqrt32")


@pytest.fixture(scope="session")
def all_catalog(cheb_u, cheb_t, uniform, linear2x, sqrt32):
    return (cheb_u, cheb_t, uniform, linear2x, sqrt32)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def counted_semicircle():
    """A fresh (uncached) semicircle density and the list of array sizes
    its smooth part was called with, one entry per call."""
    calls = []

    def h(x):
        calls.append(np.size(x))
        return np.full(np.shape(x), 2.0 / math.pi)

    rho = Density(Interval(-1.0, 1.0), h, EndpointExponents(0.5, 0.5),
                  "cheb-u")
    return rho, calls


@pytest.fixture
def wiggly():
    """A fresh density 1 + 0.5 sin(30x) on [0, 1] (unnormalized), whose
    integrals need more refinement levels than the catalog's."""
    return Density(Interval(0.0, 1.0), lambda x: 1.0 + 0.5 * np.sin(30.0 * x),
                   EndpointExponents(), "wiggly")


@pytest.fixture
def counted():
    """Wraps a callable; the wrapper keeps a copy of each argument it is
    called with in its ``args`` list."""

    def wrap(f):
        def g(x):
            g.args.append(np.array(x, dtype=float))
            return f(x)

        g.args = []
        return g

    return wrap


@pytest.fixture
def levels(monkeypatch):
    """Records every level of each refinement on a density's rule, as a
    list of (what, level, odd), one entry per level in the order run;
    ``what`` is the name the refinement gives in its errors."""
    seen = []
    real = measures.refine_levels

    def spy(estimate, count, spec, start, what, **kwargs):
        def recorded(level, act, odd):
            seen.append((what, level, odd))
            return estimate(level, act, odd)

        return real(recorded, count, spec, start, what, **kwargs)

    monkeypatch.setattr(measures, "refine_levels", spy)
    return seen


def assert_one_call_per_level(args, levels, interval, what="T against"):
    """The arguments ``args`` of a counted callable are one per pass of the
    recorded ``levels`` whose name starts with ``what``: the first pass
    holds all 8 2^L + 1 nodes of its level L on ``interval`` (the first
    level's next), each later one the odd-k nodes of the level after, each
    in order as one run; and no node is evaluated twice, the arguments
    holding as many nodes' values as the runs do."""
    ran = [(level, odd) for name, level, odd in levels
           if name.startswith(what)]
    assert len(ran) >= 1
    assert len(args) == len(ran)
    first = ran[0][0]
    assert ran == [(first + k, k > 0) for k in range(len(ran))]
    half, mid = 0.5 * interval.width, interval.midpoint
    runs = [mid + half * tanh_sinh_nodes(level, odd)[0] for level, odd in ran]
    assert len(runs[0]) == 8 * 2 ** first + 1
    for arg, nodes, (level, odd) in zip(args, runs, ran):
        starts = np.flatnonzero(arg == nodes[0])
        assert any(np.array_equal(arg[s:s + len(nodes)], nodes)
                   for s in starts), (level, odd)
    every = np.concatenate(runs)
    assert sum(np.count_nonzero(np.isin(arg, every)) for arg in args) \
        == len(every)
