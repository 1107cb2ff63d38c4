"""Spaces, validation, shortest-path construction, neighborhoods."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmm import quasimetric
from ccmm.quasimetric import (
    MetricMeasureSpace,
    PointSet,
    ProbabilityMeasure,
    QuasiMetricSpace,
    ViolationReport,
    backward_neighborhood,
    diameter,
    forward_neighborhood,
    from_digraph,
    random_mm_space,
    reverse,
    validate,
)


def test_validate_symmetric_two_point():
    space = validate([[0, 1], [1, 0]])
    assert isinstance(space, QuasiMetricSpace)
    assert space.n == 2


def test_validate_asymmetric_two_point():
    space = validate([[0, 1], [2, 0]])
    assert isinstance(space, QuasiMetricSpace)
    assert space.dist[1, 0] == 2


def test_validate_triangle_violation_reported():
    report = validate([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert isinstance(report, ViolationReport)
    assert (0, 1, 2) in report.triangles
    assert not report.ok


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate([[0, 1, 2], [1, 0, 1]])
    with pytest.raises(ValueError):
        validate([[0, np.nan], [1, 0]])
    with pytest.raises(ValueError):
        validate([[0, -1], [1, 0]])


def test_validate_diag_and_positivity_reported():
    report = validate([[0.5, 1], [1, 0]])
    assert isinstance(report, ViolationReport)
    assert report.diagonal == (0,)
    report = validate([[0, 0], [1, 0]])
    assert (0, 1) in report.positivity


def test_validate_sampled_mode_finds_gross_violation():
    d = np.ones((30, 30)) + 9 * np.eye(30)[::-1]  # d[i, 29-i] = 10 breaks triangles
    np.fill_diagonal(d, 0.0)
    report = validate(d, sampled=True, seed=1)
    assert isinstance(report, ViolationReport)
    assert report.triangles


def test_validate_sampled_mode_finds_a_planted_violation(monkeypatch):
    # every triple (0, j, 1) breaks the triangle inequality, about one
    # sampled triple in n^2: some ten of the 10 n^2 sampled ones
    n = 30
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    d[0, 1] = 10.0
    report = validate(d, sampled=True, seed=3)
    assert isinstance(report, ViolationReport)
    assert report.triangles
    assert all((i, k) == (0, 1) for i, _, k in report.triangles)
    # the triples are drawn in blocks: seven to a block, they are the same
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 64 * 7)
    assert validate(d, sampled=True, seed=3) == report


def test_from_digraph_directed_cycle():
    space = from_digraph([(0, 1, 1), (1, 2, 1), (2, 0, 1)], 3)
    assert space.dist[0, 1] == 1.0
    assert space.dist[1, 0] == 2.0


def test_from_digraph_complete_symmetric():
    edges = [(i, j, 1.0) for i in range(4) for j in range(4) if i != j]
    space = from_digraph(edges, 4)
    off = space.dist[~np.eye(4, dtype=bool)]
    assert np.all(off == 1.0)


def test_from_digraph_two_node():
    space = from_digraph([(0, 1, 1), (1, 0, 3)], 2)
    assert space.dist.tolist() == [[0, 1], [3, 0]]


def test_from_digraph_unreachable_pair_named():
    with pytest.raises(ValueError, match="no path from"):
        from_digraph([(0, 1, 1)], 2)


def test_from_digraph_output_validates_exactly():
    # dyadic weights keep every path sum exact, so zero tolerance applies
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        edges = [(i, (i + 1) % n, float(rng.integers(1, 16)) / 8) for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((int(i), int(j), float(rng.integers(1, 16)) / 8))
        space = from_digraph(edges, n)
        assert isinstance(validate(space.dist, rel_tol=0.0), QuasiMetricSpace)


def test_forward_neighborhood_strictness():
    space = validate([[0, 1], [1, 0]])
    assert forward_neighborhood(space, [0], 1.0).members == (0,)
    assert forward_neighborhood(space, [0], 1.5).members == (0, 1)


def test_neighborhoods_asymmetric():
    space = QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert forward_neighborhood(space, [1], 2.0).members == (1,)
    assert backward_neighborhood(space, [1], 2.0).members == (0, 1)


def test_backward_equals_forward_on_symmetric():
    mm = random_mm_space(3, symmetric=True)
    for r in (0.3, 0.8, 1.7):
        f = forward_neighborhood(mm.space, [0, 1], r)
        b = backward_neighborhood(mm.space, [0, 1], r)
        assert f.members == b.members


def test_neighborhood_of_everything_is_everything():
    mm = random_mm_space(11)
    allpts = list(range(mm.n))
    assert forward_neighborhood(mm.space, allpts, 0.1).members == tuple(allpts)


def test_empty_set_rejected():
    space = validate([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        forward_neighborhood(space, [], 1.0)
    with pytest.raises(ValueError):
        diameter(space, [])


def test_reverse_swaps_and_is_involution():
    space = QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]]))
    rev = reverse(space)
    assert rev.dist.tolist() == [[0, 3], [1, 0]]
    assert np.array_equal(reverse(rev).dist, space.dist)


def test_reverse_swaps_neighborhoods():
    for seed in range(10):
        mm = random_mm_space(seed, n_low=3, n_high=8)
        rev = reverse(mm.space)
        for r in (0.4, 0.9, 1.6):
            fwd = forward_neighborhood(mm.space, [0, 2], r).members
            assert fwd == backward_neighborhood(rev, [0, 2], r).members


def test_diameter():
    space = QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert diameter(space, [0]) == 0.0
    assert diameter(space, [0, 1]) == 3.0
    sym = from_digraph([(i, j, 1.0) for i in range(4) for j in range(4) if i != j], 4)
    assert diameter(sym) == 1.0


def test_pointset_normalization_and_bounds():
    ps = PointSet.of([3, 1, 1, 2], n=5)
    assert ps.members == (1, 2, 3)
    with pytest.raises(ValueError):
        PointSet.of([5], n=5)
    with pytest.raises(ValueError):
        PointSet((2, 1))


def test_measure_invariants():
    with pytest.raises(ValueError):
        ProbabilityMeasure([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityMeasure([-0.1, 1.1])
    pm = ProbabilityMeasure.normalized([2, 2, 4])
    assert pm.weights.tolist() == [0.25, 0.25, 0.5]


def test_mm_space_length_mismatch():
    space = validate([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        MetricMeasureSpace(space, ProbabilityMeasure.uniform(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 2.0), st.floats(1.0, 3.0))
def test_neighborhood_monotone_in_radius(seed, r, factor):
    mm = random_mm_space(seed % 50, n_low=3, n_high=8)
    small = set(forward_neighborhood(mm.space, [0], r).members)
    large = set(forward_neighborhood(mm.space, [0], r * factor).members)
    assert small <= large
    small_b = set(backward_neighborhood(mm.space, [0], r).members)
    large_b = set(backward_neighborhood(mm.space, [0], r * factor).members)
    assert small_b <= large_b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(1e-6, 3.0))
def test_set_contained_in_own_neighborhood(seed, r):
    mm = random_mm_space(seed % 40, n_low=3, n_high=8)
    members = set(forward_neighborhood(mm.space, [0, 1], r).members)
    assert {0, 1} <= members
