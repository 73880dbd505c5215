"""The density values a density keeps at the tanh-sinh nodes of its
interval: every reader at those nodes shares them, and results are bit for
bit those of a density that has kept nothing."""

import sys
import threading

import numpy as np
import pytest

from secmeasure import Density, Interval
from secmeasure import measures, stieltjes
from secmeasure.family import (denominator_root_scan, family_density,
                               moment0_curve)
from secmeasure.orthopoly import apply_T, recurrence_coefficients
from secmeasure.quadrature import EndpointExponents, tanh_sinh_nodes
from secmeasure.stieltjes import (_PERRON_EPS, _PHI_CLAMP, perron_invert,
                                  reducer, secondary_measure,
                                  stieltjes_transform)


def _counted_density(counted):
    h = counted(lambda x: 1.0 + x)
    return Density(Interval(0.0, 1.0), h, EndpointExponents(0.5, 0.0), "h"), h


def _distinct_nodes(rho, level):
    """The nodes of ``level`` whose abscissa no other node of the finest
    level reached shares (next to an end several nodes round to one x)."""
    x, c = np.unique(rho._node_points(rho._node_level)[0], return_counts=True)
    return np.intersect1d(rho._node_points(level)[0], x[c == 1])


def test_node_values_are_views_of_the_finest_level(counted):
    # A first level is evaluated in full, each finer one at its odd-k
    # nodes; every level at or below the finest reached is then read
    # without evaluating, equal to value_at at its nodes.
    rho, h = _counted_density(counted)
    plain, _ = _counted_density(counted)
    rho._node_values(3)
    rho._node_values(5, odd=True)
    assert [len(a) for a in h.args] == [65, 64, 128]
    assert rho._node_level == 5
    for level in (2, 3, 4, 5):
        for odd in (False, True):
            np.testing.assert_array_equal(
                rho._node_values(level, odd),
                plain.value_at(*plain._node_points(level, odd)))
    assert len(h.args) == 3


def _fresh_points(interval, level, odd):
    g, _, dm, dp = tanh_sinh_nodes(level, odd)
    half = 0.5 * interval.width
    return interval.midpoint + half * g, half * dp, half * dm


def test_node_points_are_read_only_views_shared_by_equal_intervals():
    # One cache entry per interval keeps the finest level asked for; every
    # level's points, full and odd, are views of it, bit for bit those
    # formed afresh.  Two intervals of the same width share nothing.
    flat = lambda x: np.ones_like(x)
    kept = []
    for iv in (Interval(0.0, 1.0), Interval(1e8, 1e8 + 1.0)):
        rho = Density(iv, flat, EndpointExponents(), "flat")
        rho._node_points(5)
        for level in (*range(2, 10), *range(9, 1, -1)):
            for odd in (False, True):
                pts = rho._node_points(level, odd)
                for got, want in zip(pts, _fresh_points(iv, level, odd)):
                    assert not got.flags.writeable
                    assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            pts[0][0] = 0.0
        twin = Density(Interval(iv.a, iv.b), flat, EndpointExponents(), "twin")
        for mine, its in zip(rho._node_points(4), twin._node_points(4)):
            assert np.shares_memory(mine, its)
        kept.append(rho._node_points(4))
    assert not any(np.shares_memory(u, v) for u, v in zip(*kept))


def test_node_point_cache_is_bounded():
    flat = lambda x: np.ones_like(x)
    for k in range(measures._NODE_POINT_INTERVALS + 3):
        Density(Interval(k, k + 2.0), flat, EndpointExponents(),
                "flat")._node_points(3)
    assert len(measures._node_point_cache) == measures._NODE_POINT_INTERVALS
    assert Interval(k, k + 2.0) in measures._node_point_cache


def test_node_point_cache_serves_threads_sharing_it():
    # More threads than cores, each with intervals of its own and together
    # more intervals than the cache holds, switching often: no call fails
    # (an unguarded cache loses an entry two threads drop at once), each
    # returns the fresh points, and the cache stays within its bound.
    flat = lambda x: np.ones_like(x)
    errors, switch = [], sys.getswitchinterval()

    def work(k):
        dens = [Density(Interval(k, k + 1.0 + j), flat, EndpointExponents(),
                        "flat") for j in range(3)]
        try:
            for i in range(30000):
                pts = dens[i % 3]._node_points(2 + i % 2)
            want = _fresh_points(dens[i % 3].interval, 2 + i % 2, False)
            assert all(u.tobytes() == v.tobytes() for u, v in zip(pts, want))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert len(measures._node_point_cache) <= measures._NODE_POINT_INTERVALS


def test_far_path_evaluates_no_cached_node(counted, spec):
    # The far transform at real x and every round of a root scan read the
    # levels the rule has reached and evaluate the density only at nodes
    # finer than those, each once.
    rho, h = _counted_density(counted)
    rule_level = rho.rule(spec).level
    h.args.clear()
    stieltjes_transform(rho, 1.5, spec)
    stieltjes_transform(rho, np.array([-0.5, 2.0, 1.0 + 1e-6]), spec)
    brackets = denominator_root_scan(rho, 3.0, Interval(1.001, 11.0), spec)
    assert len(brackets) == 1
    seen = np.concatenate(h.args)
    assert len(seen) > 0
    assert not np.isin(seen, _distinct_nodes(rho, rule_level)).any()
    on_node = seen[np.isin(seen, _distinct_nodes(rho, rho._node_level))]
    assert len(np.unique(on_node)) == len(on_node)


def test_secondary_and_family_evaluate_each_node_once(counted, spec):
    # mu and rho_t form their node values from rho's and the reducer; the
    # reducer takes rho at its points from them too, and its sums read
    # only node values.  So h sees nothing but nodes and the two clamp
    # points, and each node once, by whichever integral reaches it first.
    rho, h = _counted_density(counted)
    secondary_measure(rho, spec).mass()
    moment0_curve(rho, 0.5, spec)
    seen = np.concatenate(h.args)
    iv, clamp = rho.interval, _PHI_CLAMP * rho.interval.width
    assert np.isin(seen, np.append(rho._node_points(rho._node_level)[0],
                                   [iv.a + clamp, iv.b - clamp])).all()
    on_node = seen[np.isin(seen, _distinct_nodes(rho, rho._node_level))]
    assert len(on_node) > 100
    assert len(np.unique(on_node)) == len(on_node)


def test_reducer_evaluates_each_clamp_point_once(counted, spec):
    # The reducer moves points within _PHI_CLAMP widths of an end onto one
    # clamp point per end; each is one reducer row, and h sees it once.
    h = counted(lambda x: 1.0 + 0.5 * x)
    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(0.3, -0.2), "h")
    secondary_measure(rho, spec).mass()
    moment0_curve(rho, 0.5, spec)
    seen = np.concatenate(h.args)
    clamp = _PHI_CLAMP * rho.interval.width
    for x in (rho.interval.a + clamp, rho.interval.b - clamp):
        assert np.count_nonzero(seen == x) == 1


def _counted_rows(monkeypatch):
    """The (dxl, dxr) of every reducer row _phi_batch is handed, a pair of
    arrays per batch."""
    rows = []
    batch = stieltjes._phi_batch

    def counted(rho, dxl, dxr, rx, spec):
        rows.append((np.copy(dxl), np.copy(dxr)))
        return batch(rho, dxl, dxr, rx, spec)

    monkeypatch.setattr(stieltjes, "_phi_batch", counted)
    return rows


def test_family_density_reads_the_reducer_points_off_the_nodes(
        counted, spec, monkeypatch):
    # The dict keeps phi at points off the nodes: rho_t on the grid the
    # reducer has just served is its Moebius map, with no reducer row.
    rho, _ = _counted_density(counted)
    grid = np.linspace(0.01, 0.99, 40)
    rows = _counted_rows(monkeypatch)
    reducer(rho, grid, spec)
    assert sum(len(dl) for dl, _ in rows) == len(grid)
    family_density(rho, 0.5, grid, spec)
    assert sum(len(dl) for dl, _ in rows) == len(grid)


def test_node_rows_are_reduced_once_whatever_the_dict_holds(
        counted, spec, monkeypatch):
    # mu and rho_t read phi at rho's nodes from the node cache, so each
    # distinct node is one reducer row and each clamp point one, though
    # the dict is bounded far below the nodes they reach: it holds the
    # two clamp points only.
    monkeypatch.setattr(stieltjes, "_PHI_CACHE_SIZE", 4)
    rho, _ = _counted_density(counted)
    rows = _counted_rows(monkeypatch)
    secondary_measure(rho, spec).mass()
    moment0_curve(rho, 0.3, spec)
    moment0_curve(rho, 0.8, spec)
    dl, dr = (np.concatenate(v) for v in zip(*rows))
    clamp = _PHI_CLAMP * rho.interval.width
    assert np.count_nonzero(dl < clamp) == np.count_nonzero(dr < clamp) == 1
    inner = (dl >= clamp) & (dr >= clamp)
    keys = np.where(dl <= dr, dl, -dr)[inner]
    _, nl, nr = rho._node_points(rho._node_level)
    assert np.isin(keys, np.where(nl <= nr, nl, -nr)).all()
    assert len(np.unique(keys)) == len(keys) > 100
    assert sorted(rho._phi[spec]) == [-clamp, clamp]


def test_perron_ladder_costs_one_near_cut_point(counted, spec):
    # The 18 points of the ladder share Re z, so they share the two pieces
    # of the split support and rho's values on them.
    x0 = 0.3
    rho, h = _counted_density(counted)
    perron_invert(lambda z: stieltjes_transform(rho, z, spec), x0)
    one, h1 = _counted_density(counted)
    stieltjes_transform(one, x0 - 1j * _PERRON_EPS[-1], spec)
    assert sum(map(len, h.args)) == sum(map(len, h1.args)) > 0


def _warmed(counted, spec):
    """A density whose node values reach deep levels (a far transform next
    to an end, the recurrence) and whose reducer caches, the dict and the
    node cache, are still empty."""
    rho, _ = _counted_density(counted)
    stieltjes_transform(rho, np.array([1.0 + 1e-7, -1e-6]), spec)
    recurrence_coefficients(rho, 20, spec)
    assert rho._node_level > rho.rule(spec).level + 2
    assert not rho._phi and not rho._phi_nodes
    return rho


_GRID = np.linspace(0.05, 0.95, 7)
_Z = np.array([1.5, -0.25 + 0.5j, 0.4 + 1e-3j, 0.7 - 1e-6j, 1.0 + 1e-4])


@pytest.mark.parametrize("what", [
    lambda rho, spec: np.concatenate([rho.rule(spec).x, rho.rule(spec).w]),
    lambda rho, spec: reducer(rho, _GRID, spec),
    lambda rho, spec: stieltjes_transform(rho, _Z, spec),
    lambda rho, spec: secondary_measure(rho, spec).mass(),
    lambda rho, spec: moment0_curve(rho, 0.5, spec),
    lambda rho, spec: moment0_curve(rho, 2.5, spec),
    lambda rho, spec: apply_T(rho, lambda x: np.sin(3.0 * x), _GRID, spec),
], ids=["rule", "reducer", "transform", "mu-mass", "rho_t-mass",
        "rho_t-mass-t>1", "apply_T"])
def test_warm_density_gives_fresh_results_bit_for_bit(counted, spec, what):
    fresh, _ = _counted_density(counted)
    np.testing.assert_array_equal(what(_warmed(counted, spec), spec),
                                  what(fresh, spec))
