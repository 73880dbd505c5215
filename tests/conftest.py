import math

import numpy as np
import pytest

from secmeasure import DEFAULT_SPEC, Density, Interval, catalog
from secmeasure.quadrature import EndpointExponents

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
