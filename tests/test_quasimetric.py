"""Spaces, validation, shortest-path construction, neighborhoods."""
import tracemalloc

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
from oracles import min_plus_plain, shortest_paths_plain, triangle_violations_plain


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


@pytest.mark.parametrize("rel_tol", [0.0, 1e-3])
def test_validate_lists_the_plain_scans_violations(rel_tol):
    outcomes = set()
    for seed in range(40):
        mm = random_mm_space(seed, 3, 20)
        d = mm.dist.copy()
        n = len(d)
        rng = np.random.default_rng(seed)
        slack = rel_tol * max(1.0, float(d.max()))
        for i, k in rng.integers(0, n, (1 + seed % 4, 2)):
            if i == k:
                continue
            # the least two-step bound at (i, k), or just past it, or far past
            bound = min(d[i, j] + d[j, k] + slack for j in range(n))
            d[i, k] = (bound, np.nextafter(bound, np.inf), 1.5 * bound)[seed % 3]
        for max_report in (1, 3, 100):
            report = validate(d, rel_tol=rel_tol, max_report=max_report)
            triples, truncated = triangle_violations_plain(d, rel_tol, max_report)
            if triples:
                assert report.triangles == tuple(triples)
                assert report.truncated == truncated
                outcomes.add("truncated" if truncated else "listed")
            else:
                assert isinstance(report, QuasiMetricSpace)
                outcomes.add("valid")
    assert outcomes == {"valid", "listed", "truncated"}


def test_validate_lists_triangles_past_a_full_diagonal_listing():
    # four nonzero diagonal entries overflow max_report = 3 before any
    # triangle is listed; the triangle listing still fills to three
    d = np.ones((5, 5))
    np.fill_diagonal(d, 1.0)
    d[0, 4] = d[3, 1] = 10.0
    report = validate(d, max_report=3)
    triples, _ = triangle_violations_plain(d, 0.0, 3)
    assert len(triples) == 3
    assert report.triangles == tuple(triples)
    assert report.diagonal == (0, 1, 2) and report.truncated


def test_validate_at_max_report_zero_lists_nothing_and_accepts_nothing():
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    for sampled in (False, True):
        report = validate(d, sampled=sampled, max_report=0)
        assert report == ViolationReport(truncated=True)
        assert not report.ok
    bad_diagonal = d.copy()
    bad_diagonal[0, 2] = bad_diagonal[2, 0] = 2.0
    bad_diagonal[1, 1] = 0.5
    assert validate(bad_diagonal, max_report=0) == ViolationReport(truncated=True)
    for sampled in (False, True):
        valid = validate(np.ones((4, 4)) - np.eye(4), sampled=sampled, max_report=0)
        assert isinstance(valid, QuasiMetricSpace)


def test_validate_samples_triangles_past_a_full_diagonal_listing(monkeypatch):
    # diagonal entries of 0.5 overflow the diagonal listing and break no
    # triangle, so the sampled scan lists the triples of the zero diagonal
    n = 30
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[5, 7] = 10.0
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 64 * 7)
    for max_report in (2, 5, 100):
        want = validate(d, sampled=True, seed=3, max_report=max_report)
        half = d.copy()
        np.fill_diagonal(half, 0.5)
        got = validate(half, sampled=True, seed=3, max_report=max_report)
        assert got.triangles == want.triangles and len(got.triangles) > 1
        assert got.diagonal == tuple(range(min(n, max_report)))
        assert got.truncated == (want.truncated or n > max_report)


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


def _raises_exactly(message, edges, n):
    with pytest.raises(ValueError) as info:
        from_digraph(edges, n)
    assert str(info.value) == message


@pytest.mark.parametrize("edge, message", [
    ((-1, 0, 1.0), "edge (-1, 0) out of range for n=3"),
    ((0, -2, 1.0), "edge (0, -2) out of range for n=3"),
    ((3, 0, 1.0), "edge (3, 0) out of range for n=3"),
    ((0, 7, 1.0), "edge (0, 7) out of range for n=3"),
    ((5, 5, 1.0), "edge (5, 5) out of range for n=3"),  # a self-loop is range-checked
])
def test_from_digraph_out_of_range_message(edge, message):
    cycle = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]
    _raises_exactly(message, cycle[:1] + [edge] + cycle[1:], 3)


@pytest.mark.parametrize("weight, shown", [
    (0.0, "0.0"), (0, "0.0"), (-1.5, "-1.5"), (float("nan"), "nan"),
    (float("inf"), "inf"), (-float("inf"), "-inf"),
])
def test_from_digraph_bad_weight_message(weight, shown):
    _raises_exactly(f"edge (1, 0) has nonpositive weight {shown}",
                    [(0, 1, 1.0), (1, 0, weight)], 2)


def test_from_digraph_names_the_first_bad_edge_in_input_order():
    _raises_exactly("edge (1, 0) has nonpositive weight 0.0",
                    [(0, 1, 1.0), (1, 0, 0.0), (5, 0, 1.0), (0, 1, -1.0)], 2)
    _raises_exactly("edge (0, 5) out of range for n=2",
                    [(0, 1, 1.0), (0, 5, 1.0), (1, 0, 0.0), (0, 1, float("nan"))], 2)
    # an edge both out of range and badly weighted is named for its range
    _raises_exactly("edge (2, 0) out of range for n=2",
                    [(0, 1, 1.0), (2, 0, -1.0), (1, 0, 0.0)], 2)


def test_from_digraph_skips_self_loops_silently():
    loops = [(0, 0, 0.0), (1, 1, float("nan")), (0, 0, -2.0), (1, 1, float("inf"))]
    space = from_digraph(loops + [(0, 1, 1.0), (1, 0, 2.0), (0, 0, 0.5)], 2)
    assert space.dist.tolist() == [[0.0, 1.0], [2.0, 0.0]]


def test_from_digraph_parallel_edges_keep_the_cheapest():
    for edges in ([(0, 1, 3.0), (0, 1, 1.0), (0, 1, 2.0), (1, 0, 1.0)],
                  [(1, 0, 1.0), (0, 1, 1.0), (0, 1, 2.0), (0, 1, 3.0)]):
        assert from_digraph(edges, 2).dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    # a dearer parallel edge never replaces a cheaper path through a third point
    space = from_digraph([(0, 2, 5.0), (0, 1, 1.0), (1, 2, 1.0), (0, 2, 4.0),
                          (2, 0, 1.0), (1, 0, 7.0)], 3)
    assert space.dist.tolist() == [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]]


def test_from_digraph_accepts_a_generator():
    space = from_digraph(((i, (i + 1) % 4, 0.5 * (i + 1)) for i in range(4)), 4)
    assert space.dist[0].tolist() == [0.0, 0.5, 1.5, 3.0]
    assert space.dist[3].tolist() == [2.0, 2.5, 3.5, 0.0]


def test_from_digraph_single_point_and_no_edges():
    assert from_digraph([], 1).dist.tolist() == [[0.0]]
    assert from_digraph([(0, 0, 1.0)], 1).dist.tolist() == [[0.0]]
    assert from_digraph(iter(()), 1, labels=["a"]).labels == ("a",)
    _raises_exactly("digraph is not strongly connected: no path from 0 to 1", [], 2)


def test_from_digraph_unreachable_pair_message():
    # the first unreachable pair in row-major order is named
    _raises_exactly("digraph is not strongly connected: no path from 2 to 0",
                    [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], 3)
    _raises_exactly("digraph is not strongly connected: no path from 0 to 2",
                    [(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)], 4)


# weights whose path sums tie to within an ulp (0.1 + 0.2 is one ulp above
# 0.3), and weights below half an ulp of a unit path, so fl(d + w) == d
_NEAR_TIES = (0.1, 0.2, 0.3, 0.30000000000000004, 0.7, 1.0, 1.0 + 2.0 ** -52,
              2.0, 2.0 ** -54, 1e-17, 1e-300)


@st.composite
def _digraphs(draw):
    n = draw(st.integers(1, 9))
    weight = st.sampled_from(_NEAR_TIES) | st.floats(1e-3, 4.0)
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=3 * n))
    if draw(st.booleans()):
        # a chain whose every shortcut is dearer, so 0 -> n - 1 takes n - 1 hops
        edges += [(i, i + 1, 1.0) for i in range(n - 1)]
        edges += [(i, j, float(j - i) + 0.5) for i in range(n) for j in range(i + 2, n)]
    if edges and draw(st.booleans()):
        # duplicates of drawn edges, with weights of their own
        picks = draw(st.lists(st.sampled_from(edges), max_size=n))
        edges += [(i, j, draw(weight)) for i, j, _ in picks]
    if draw(st.booleans()):  # a cycle through every point: strongly connected
        edges += [(i, (i + 1) % n, draw(weight)) for i in range(n)]
    return draw(st.permutations(edges)), n


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_from_digraph_matches_plain_dijkstra(graph):
    edges, n = graph
    want = shortest_paths_plain(edges, n)
    unreachable = np.argwhere(np.isinf(want))
    if unreachable.size:
        i, j = unreachable[0]
        _raises_exactly(f"digraph is not strongly connected: no path from {i} to {j}",
                        edges, n)
    else:
        assert np.array_equal(from_digraph(edges, n).dist, want)


def test_from_digraph_one_source_row_per_block(monkeypatch):
    cases = [random_mm_space(seed, 3, 30).dist for seed in range(6)]
    graphs = []
    for dist in cases:  # complete digraphs, plus a ring of one-ulp ties
        n = len(dist)
        graphs.append(([(i, j, dist[i, j]) for i in range(n) for j in range(n)], n))
    ring = [(i, (i + 1) % 12, 0.1) for i in range(12)] + [(i, (i + 3) % 12, 0.30000000000000004)
                                                         for i in range(12)]
    graphs.append((ring, 12))
    before = [from_digraph(edges, n).dist for edges, n in graphs]
    # one source row per block and one frontier entry per chunk of relaxations
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 1)
    for (edges, n), dist in zip(graphs, before):
        after = from_digraph(edges, n).dist
        assert np.array_equal(after, dist)
        assert np.array_equal(after, shortest_paths_plain(edges, n))
    _raises_exactly("digraph is not strongly connected: no path from 2 to 0",
                    [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)], 3)


def test_closure_temporaries_stay_near_the_row_budget(monkeypatch):
    # a complete digraph: the first rounds relax whole rows of a block at
    # once, the largest frontier expansion a block can have
    dist = random_mm_space(0, 150, 150).dist
    n = len(dist)
    edges = [(i, j, dist[i, j]) for i in range(n) for j in range(n)]
    want = from_digraph(edges, n).dist
    budget = 1 << 16
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", budget)
    close, peaks = quasimetric._close_rows, []

    def traced(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        close(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(quasimetric, "_close_rows", traced)
    tracemalloc.start()
    try:
        got = from_digraph(edges, n).dist
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert len(peaks) > 1
    # every block's arrays together, frontier chunks included (about 1.3
    # budgets measured; sizing each array alone to the budget gave 10)
    assert max(peaks) <= 2 * budget, max(peaks) / budget


def min_plus_cases():
    """(dist, G) pairs: indicator rows of 0 and inf, no rows, one point, and
    real-valued rows on a 40-point space."""
    rng = np.random.default_rng(0)
    d7 = random_mm_space(3, n_low=7, n_high=7).dist
    yield d7, np.where(rng.random((9, 7)) < 0.4, 0.0, np.inf)
    yield d7, np.vstack([np.full(7, np.inf), np.zeros(7)])
    yield d7, np.empty((0, 7))
    yield np.zeros((1, 1)), np.array([[0.0], [np.inf], [2.5]])
    d40 = random_mm_space(4, n_low=40, n_high=40).dist
    yield d40, rng.uniform(-1.0, 3.0, (12, 40))


def test_min_plus_matches_the_triple_loop():
    for dist, G in min_plus_cases():
        got = quasimetric._min_plus(dist, G)
        assert got.shape == G.shape
        assert got.tobytes() == min_plus_plain(dist, G).tobytes()


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
