"""Concentration profiles, deviation inequalities, moments, constants, fits."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmm import build_space, catalog_entry, concentration, quasimetric
from ccmm.concentration import (
    CheckReport,
    ConcentrationProfile,
    SampledDecreasing,
    alpha,
    alpha_profile,
    check_linear_tail_decay,
    check_moment_concentration,
    deviation_check,
    enlargement_check_from_tail_bound,
    fit_profile,
    median_to_mean_tail_constants,
    moment_bound_from_normal_tails,
    moment_norm,
    normal_equivalence_constants,
    tail_bound_from_first_moment,
    tail_bound_from_square_moments,
    tail_envelope,
    _alpha_curve,
    _candidate_groups,
    _prefix_masses,
    _set_distance_rows,
    _sorted_chunks,
    _subset_masks,
)
from ccmm.isoperimetry import isoperimetric_profile, mesh_scale, profile_enlargement_check
from ccmm.lipschitz import LipschitzFamily, generate_family
from ccmm.quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    QuasiMetricSpace,
    _count_below,
    _mass_below,
    breakpoint_radii,
    random_mm_space,
    reverse,
    snap_threshold,
    validate,
)
from oracles import (
    alpha_bruteforce,
    alpha_curve_plain,
    mu_below_plain,
    tail_envelope_plain,
    transfer_margins_plain,
)


def two_point_uniform():
    return MetricMeasureSpace.with_uniform(validate([[0, 1], [1, 0]]))


# ---------------------------------------------------------------------------
# alpha
# ---------------------------------------------------------------------------

def test_alpha_two_point_values():
    mm = two_point_uniform()
    assert alpha(mm, 0.5) == 0.5
    assert alpha(mm, 1.5) == 0.0


def test_alpha_beyond_diameter_is_zero():
    mm = random_mm_space(9)
    assert alpha(mm, float(mm.dist.max()) * 1.01) == 0.0


def test_alpha_exact_matches_bruteforce():
    for seed in range(6):
        mm = random_mm_space(seed, n_low=3, n_high=7)
        for r in (0.3, 0.7, 1.1, 1.9):
            assert alpha(mm, r) == pytest.approx(alpha_bruteforce(mm, r), abs=1e-12)


def test_alpha_exact_rejects_large_n():
    mm = random_mm_space(0)
    big = MetricMeasureSpace.with_uniform(
        validate(np.ones((17, 17)) - np.eye(17)))
    with pytest.raises(ValueError, match="n <= 16"):
        alpha(big, 0.5, "exact")


def test_alpha_bounded_by_half_and_monotone():
    for seed in range(10):
        mm = random_mm_space(seed)
        prof = alpha_profile(mm)
        assert np.all(prof.alphas <= 0.5 + 1e-15)
        assert np.all(np.diff(prof.alphas) <= 1e-15)
        assert prof.alphas[-1] == 0.0


def test_alpha_reversal_invariance():
    for seed in range(8):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        rev = MetricMeasureSpace(reverse(mm.space), mm.measure)
        prof = alpha_profile(mm)
        prof_rev = alpha_profile(rev)
        assert np.array_equal(prof.alphas, prof_rev.alphas)


def test_family_below_exact_and_equal_on_tiny():
    for seed in range(12):
        mm = random_mm_space(seed, n_low=3, n_high=9)
        fam = generate_family(mm, count=2 * mm.n + 4, seed=seed)
        pe = alpha_profile(mm, "exact")
        pf = alpha_profile(mm, "family", family=fam)
        assert np.all(pf.alphas <= pe.alphas + 1e-12)
    for seed in range(20):
        mm = random_mm_space(seed, n_low=2, n_high=3)
        pe = alpha_profile(mm, "exact")
        pf = alpha_profile(mm, "family")
        assert np.allclose(pf.alphas, pe.alphas, atol=1e-12)


def test_two_point_profile_single_plateau():
    prof = alpha_profile(two_point_uniform())
    positive = prof.alphas[prof.alphas > 0]
    assert len(set(positive.tolist())) == 1


def test_profile_value_at_step_semantics():
    prof = alpha_profile(two_point_uniform())
    assert prof.value_at(0.2) == 0.5
    assert prof.value_at(1.0) == 0.5
    assert prof.value_at(1.0 + 1e-6) == 0.0
    assert prof.value_at(7.0) == 0.0
    with pytest.raises(ValueError):
        prof.value_at(0.0)


# ---------------------------------------------------------------------------
# deviation inequalities
# ---------------------------------------------------------------------------

def test_deviation_two_point_hand_value():
    mm = two_point_uniform()
    prof = alpha_profile(mm)
    rep = deviation_check(mm, [0.0, 1.0], prof)
    assert rep.passed
    assert rep.lipschitz == 1.0
    # hand values at r = 1: mu(|f - median| >= 1) = 1/2 <= 2 alpha(1) = 1
    f = np.array([0.0, 1.0])
    tail = float(mm.weights[np.abs(f - 0.0) >= 1.0].sum())
    assert tail == 0.5
    assert 2 * prof.value_at(1.0) == 1.0


def test_deviation_constant_field():
    mm = random_mm_space(1)
    rep = deviation_check(mm, np.zeros(mm.n), alpha_profile(mm))
    assert rep.passed


def test_deviation_family_holds_exhaustively():
    for seed in range(25):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        prof = alpha_profile(mm)
        fam = generate_family(mm, count=2 * mm.n + 4, seed=seed)
        for f in fam:
            assert deviation_check(mm, f, prof).passed


def test_deviation_refuses_family_profile():
    mm = random_mm_space(2)
    prof = alpha_profile(mm, "family")
    with pytest.raises(ValueError, match="exact"):
        deviation_check(mm, mm.dist[0], prof)


# ---------------------------------------------------------------------------
# moments and tail decay
# ---------------------------------------------------------------------------

def test_moment_norm_examples():
    mm = two_point_uniform()
    assert moment_norm(mm, [3.0, 3.0], 2) == 0.0
    assert moment_norm(mm, [0.0, 2.0], 2) == 1.0
    # q = 1 is the mean absolute deviation
    rng = np.random.default_rng(0)
    f = rng.normal(size=2)
    mu = f.mean()
    assert moment_norm(mm, f, 1) == pytest.approx(np.abs(f - mu).mean(), rel=1e-14)
    with pytest.raises(ValueError):
        moment_norm(mm, f, 0.5)


def test_check_moment_concentration_reports_largest():
    mm = two_point_uniform()
    fam = generate_family(mm)
    rep = check_moment_concentration(mm, fam, p=2, q=2, C=1.0)
    assert rep.holds
    # the family contains fields of deviation norm 1/2 only
    largest = rep.largest_constant
    assert check_moment_concentration(mm, fam, 2, 2, largest).holds
    assert not check_moment_concentration(mm, fam, 2, 2, 1.01 * largest).holds


def test_moment_constant_two_point_hand_value():
    # single field (0, 2), 1-Lipschitz at distance 2: deviation norm 1, so
    # the largest constant is q / norm^p = 2; constant-only families admit
    # every constant
    mm = MetricMeasureSpace.with_uniform(validate([[0, 2], [2, 0]]))
    from ccmm.lipschitz import LipschitzFamily
    fam = LipschitzFamily(mm.space, [[0.0, 2.0]], ("user",))
    rep = check_moment_concentration(mm, fam, p=2, q=2, C=1.0)
    assert rep.holds
    assert rep.largest_constant == pytest.approx(2.0, rel=1e-12)
    flat = LipschitzFamily(mm.space, [[3.0, 3.0]], ("user",))
    rep = check_moment_concentration(mm, flat, p=2, q=2, C=1e12)
    assert rep.holds and rep.largest_constant == math.inf


def test_linear_tail_decay_equality_case():
    mm = two_point_uniform()
    from ccmm.lipschitz import LipschitzFamily
    fam = LipschitzFamily(mm.space, [[0.0, 1.0]], ("user",))
    # f = (0, 2) scaled: use raw grid check at C = 1, r = 1 on values (0, 2)
    rep = check_linear_tail_decay(mm, fam, C=2.0, r_grid=[0.5])
    # mu(|f - 1/2| >= 1/2) = 1 <= 1/(2 * 0.5) = 1, equality
    assert rep.passed
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_linear_tail_decay_trivial_regimes():
    mm = random_mm_space(4)
    fam = generate_family(mm)
    big_r = 1000.0 / float(mm.dist.max())
    assert check_linear_tail_decay(mm, fam, C=1e-6, r_grid=[big_r]).passed


# ---------------------------------------------------------------------------
# the set-distance mass kernel
# ---------------------------------------------------------------------------

def test_mu_below_keeps_the_snap_on_many_rows():
    # 1 + 2e-12 is the strict-ball threshold just past the distance 1.0:
    # every row has half its mass below it, however many rows a call holds
    rows = np.tile([1.0, 10.0] * 4, (5000, 1))
    got = _mass_below(_prefix_masses(rows, np.full(8, 1 / 8)), np.array([1 + 2e-12]))
    assert np.array_equal(got, np.full((5000, 1), 0.5))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
       st.integers(1, 5000), st.integers(1, 8), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_count_below_matches_plain_loop_on_near_ties(bases, n_rows, n_cols, n_cuts, seed):
    rng = np.random.default_rng(seed)
    # each base value with its neighbours two snap tolerances away, as
    # entries and as cuts in any order, repeats included
    ties = np.array([t + k * 2e-12 * max(1.0, t) for t in bases for k in (-1, 0, 1)])
    rows = rng.choice(ties, size=(n_rows, n_cols))
    cuts = rng.choice(ties, size=n_cuts)
    weights = rng.random(n_cols) + 0.1
    weights /= weights.sum()
    assert np.array_equal(_count_below(rows, cuts), mu_below_plain(rows, np.ones(n_cols), cuts))
    np.testing.assert_allclose(_mass_below(_prefix_masses(rows, weights), cuts),
                               mu_below_plain(rows, weights, cuts), rtol=0, atol=1e-12)
    # each row its own cuts, as the median tails m +- L s read them, and
    # the count of entries at most a cut, read as -v < -t
    own = rng.choice(ties, size=(n_rows, n_cuts))
    want = np.array([mu_below_plain(row[None], np.ones(n_cols), c)[0]
                     for row, c in zip(rows[:200], own[:200])])
    assert np.array_equal(_count_below(rows, own)[:200], want)
    for c in (cuts, own):
        at_most = np.array([[sum(v <= t for v in row) for t in ts] for row, ts in
                            zip(rows[:200].tolist(), np.broadcast_to(c, own.shape).tolist())])
        assert np.array_equal((n_cols - _count_below(-rows, -c))[:200], at_most)


def test_checks_do_not_depend_on_radius_order():
    mm = random_mm_space(5)
    radii = breakpoint_radii(mm.space)
    shuffled = np.random.default_rng(0).permutation(radii)
    beta = tail_envelope(mm)
    env = tail_envelope(mm, radii=shuffled)
    assert np.array_equal(env.rs, beta.rs) and np.array_equal(env.values, beta.values)
    sorted_rep = enlargement_check_from_tail_bound(mm, beta, radii=radii)
    assert sorted_rep.conclusions_asserted
    for other in (shuffled, radii[::-1]):
        assert enlargement_check_from_tail_bound(mm, beta, radii=other) == sorted_rep
    scale = mesh_scale(mm)
    rep = profile_enlargement_check(mm, scale, [0.5, 1.0, 2.0], K=0.01)
    assert rep.conclusion_asserted
    assert profile_enlargement_check(mm, scale, [2.0, 0.5, 1.0], K=0.01) == rep


# ---------------------------------------------------------------------------
# the event kernel: alpha curves and transfer margins from segment ends
# ---------------------------------------------------------------------------

def dyadic_space(dist, counts):
    """The space on ``dist`` with weights counts / 64: every sum of weights is
    exact in any order, so the kernel and the plain loops agree bit for bit."""
    return MetricMeasureSpace(validate(dist), ProbabilityMeasure(np.asarray(counts) / 64))


def candidate_rows(mm, strategy, family=None):
    """(masses, m_fwd, m_bwd) of every candidate set, unsorted."""
    groups = _candidate_groups(mm, strategy, family, 0.0, 0)
    return tuple(np.concatenate(parts)
                 for parts in zip(*((masses, *build(slice(None))) for masses, build, _ in groups)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(1.0, 1.9), min_size=1, max_size=3), st.integers(2, 6),
       st.integers(0, 2**32 - 1))
def test_event_kernel_matches_plain_grid_loops(bases, n, seed):
    rng = np.random.default_rng(seed)
    # off-diagonal distances in [1, 2) always satisfy the triangle
    # inequality; each base comes with neighbours two snap tolerances away
    ties = np.array([t + k * 2e-12 * t for t in bases for k in (-1, 0, 1)])
    dist = rng.choice(ties, size=(n, n))
    np.fill_diagonal(dist, 0.0)
    # dyadic weights, points of zero weight included
    cuts = np.sort(rng.integers(0, 65, n - 1))
    mm = dyadic_space(dist, np.diff(cuts, prepend=0, append=64))
    radii = breakpoint_radii(mm.space)
    radii = rng.permutation(np.concatenate([radii, rng.choice(ties, 3)]))
    fam = generate_family(mm, count=2 * n + 4, seed=seed % 1000)
    for strategy in ("exact", "family"):
        rows = candidate_rows(mm, strategy, fam)
        want = alpha_curve_plain(*rows, mm.weights, radii)
        assert np.array_equal(_alpha_curve(mm, radii, strategy, family=fam), want)
    beta = tail_envelope(mm, family=fam, radii=radii)
    rep = enlargement_check_from_tail_bound(mm, beta, family=fam, radii=radii)
    assert rep.conclusions_asserted
    want = transfer_margins_plain(*candidate_rows(mm, "exact"), mm.weights, radii, beta)
    assert (rep.enlargement_margin, rep.alpha_margin) == want


def segment_betas(mm, radii):
    """Three betas whose smallest value on the first segment of the lightest
    point's rows lies at neither end of it: samples that never rise but start
    above the 1 in front of them, samples with a 5e-13 rise, and a callable
    with a dip.  Only the first is exactly non-increasing from its samples."""
    x = int(np.argmin(mm.weights))
    others = np.arange(mm.n) != x
    near = min(mm.dist[x, others].min(), mm.dist[others, x].min())
    rs = np.sort(radii)
    inside = rs[snap_threshold(rs) <= near]  # mu = w_x there, both ways
    assert len(inside) >= 3
    w = mm.weights[x]
    dip = w * inside[1]
    assert dip not in radii and dip not in radii / 2
    above_one = SampledDecreasing(np.array([w * inside[-1]]), np.array([1 + 5e-13]))
    rise = SampledDecreasing(np.array([dip, w * inside[-1]]),
                             np.array([1 - 2e-12, 1 - 1.5e-12]))
    return above_one, rise, lambda s: np.where(np.asarray(s) == dip, 0.75, 1.0)


def test_transfer_margins_match_the_grid_inside_a_segment():
    dist = random_mm_space(4, n_low=6, n_high=6).dist
    mm = dyadic_space(dist, [5, 9, 13, 11, 15, 11])
    radii = breakpoint_radii(mm.space)
    rows = candidate_rows(mm, "exact")
    # beyond every value of a row mu = 1: a beta that drops to 0 at the last
    # radius puts the smallest margin on the segments that reach it
    last_drop = SampledDecreasing(radii[-1:], np.zeros(1))
    for beta in (*segment_betas(mm, radii), last_drop):
        rep = enlargement_check_from_tail_bound(mm, beta, radii=radii)
        assert rep.conclusions_asserted
        want = transfer_margins_plain(*rows, mm.weights, radii, beta)
        assert (rep.enlargement_margin, rep.alpha_margin) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_smallest_half_mass_balls_give_the_curve_of_every_ball(n, tied, seed):
    # each center's balls nest, and a larger ball's enlargements hold the
    # smaller's: the alpha curve keeps only the smallest ball of mass >= 1/2
    rng = np.random.default_rng(seed)
    if tied:  # off-diagonal distances in {1, 2}: balls grow by tied groups
        dist = rng.integers(1, 3, (n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        space = validate(dist)
    else:
        space = random_mm_space(seed % 1000, n_low=n, n_high=n).space
    # dyadic weights, points of zero weight included
    cuts = np.sort(rng.integers(0, 65, n - 1))
    mm = MetricMeasureSpace(space, ProbabilityMeasure(np.diff(cuts, prepend=0, append=64) / 64))
    radii = breakpoint_radii(mm.space)
    # without the distance cones, whose median level sets are balls too
    fam = generate_family(mm, count=2 * n + 4, seed=seed % 1000)
    fam = LipschitzFamily(mm.space, fam.values[2 * n:], fam.tags[2 * n:])
    want = alpha_curve_plain(*candidate_rows(mm, "family", fam), mm.weights, radii)
    assert np.array_equal(_alpha_curve(mm, radii, "family", family=fam), want)


def near_half_counts(counts):
    """Weights counts / 128 on every point but 0, which weighs 1/2 - 2^-50,
    and point 1 another 2^-50: every sum is a multiple of 2^-50 below 8, so
    exact in any order, and a set holding point 0 but not point 1 weighs a
    rounding below 1/2."""
    weights = np.r_[0.5 - 2.0 ** -50, np.asarray(counts) / 128]
    weights[1] += 2.0 ** -50
    return weights


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_level_sets_that_are_balls_drop_without_moving_the_curve(n, near_half, seed):
    # each distance cone's median level set is one of the smallest half-mass
    # balls, and tied distances make more level sets balls; the curve of the
    # pruned candidates must equal the curve of every ball and level set
    rng = np.random.default_rng(seed)
    dist = rng.integers(2, 5, (n, n)) / 2.0  # off the diagonal in {1, 1.5, 2}
    np.fill_diagonal(dist, 0.0)
    if near_half:
        cuts = np.sort(rng.integers(0, 65, n - 2))
        weights = near_half_counts(np.diff(cuts, prepend=0, append=64))
    else:  # dyadic, points of zero weight included
        cuts = np.sort(rng.integers(0, 65, n - 1))
        weights = np.diff(cuts, prepend=0, append=64) / 64
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(weights))
    radii = breakpoint_radii(mm.space)
    fam = generate_family(mm, count=2 * n + 4, seed=seed % 1000)  # the cones included
    want = alpha_curve_plain(*candidate_rows(mm, "family", fam), mm.weights, radii)
    assert np.array_equal(_alpha_curve(mm, radii, "family", family=fam), want)


@pytest.mark.parametrize("cid, resolution, kept", [("t2", 16, 528), ("g1", 128, 144)])
def test_alpha_curve_reads_only_the_level_sets_that_are_no_ball(cid, resolution, kept):
    mm = build_space(catalog_entry(cid), resolution=resolution)
    fam = generate_family(mm, count=2 * mm.n + 8, seed=0)  # the suite's family
    *balls, (masses, _, _) = _candidate_groups(mm, "family", fam, 0.5, 0)
    assert len(balls) == 2 * mm.n  # one smallest ball per center and direction
    assert len(masses) == kept
    # the isoperimetric scans (min_mass = 0) still read every level set
    *_, (masses, _, _) = _candidate_groups(mm, "family", fam, 0.0, 0)
    assert len(masses) == 2 * len(fam)


@pytest.mark.parametrize("cid, resolution", [("t2", 16), ("g1", 128), ("r1", 64), ("s2", 8)])
def test_catalog_family_curves_equal_the_curve_of_every_ball(cid, resolution):
    # without exact sums a dropped ball could still lower a value by an ulp;
    # on the catalog spaces none does
    mm = build_space(catalog_entry(cid), resolution=resolution)
    fam = generate_family(mm, seed=0)
    radii = breakpoint_radii(mm.space)
    thresholds = snap_threshold(radii)
    want = np.zeros(len(radii))
    for masses, *dirs in _sorted_chunks(mm, "family", fam, 0.0, 0):  # every ball
        half = masses >= 0.5
        for side in dirs:
            mu = _mass_below(tuple(rows[half] for rows in side), thresholds)
            want = np.maximum(want, (1.0 - mu).max(axis=0, initial=0.0))
    assert np.array_equal(_alpha_curve(mm, radii, "family", family=fam), want)


def same_envelope(got, want):
    return np.array_equal(got.rs, want.rs) and np.array_equal(got.values, want.values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1.0, 1.9), min_size=1, max_size=3), st.integers(2, 7),
       st.sampled_from([0.3, 0.6, 1.0, 3.0]), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans(), st.booleans())
def test_tail_envelope_matches_the_whole_grid(bases, n, scale, seed, tiny, given_family,
                                              whole_grid):
    rng = np.random.default_rng(seed)
    # each base with neighbours one and two ulps and two snap tolerances
    # away; off-diagonal distances in [scale, 2 scale) are a quasi-metric,
    # and the scales put the radii below 1, across it and above it
    ties = np.array([u for t in bases for u in (t, np.nextafter(t, 2.0),
                                                np.nextafter(np.nextafter(t, 2.0), 2.0),
                                                t * (1 - 2e-12), t * (1 + 2e-12))]) * scale
    dist = rng.choice(ties, size=(n, n))
    np.fill_diagonal(dist, 0.0)
    # points of zero weight, and with ``tiny`` subsets of mass below 1e-9
    w = rng.random(n) * (rng.random(n) < 0.7)
    w[0] += 0.1
    if tiny:
        w[rng.integers(1, n)] = 1e-11
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
    # shuffled radii, with row values and ulp-near ties among them
    radii = breakpoint_radii(mm.space)
    radii = rng.permutation(np.concatenate([radii, rng.choice(ties, 3)]))
    fam = generate_family(mm, count=2 * n + 4, seed=seed % 1000) if given_family else None
    want = tail_envelope_plain(mm, family=fam, radii=radii, seed=seed % 7)
    with pytest.MonkeyPatch.context() as patch:
        if not whole_grid:  # read at the stretch ends, however small the space
            patch.setattr(concentration, "_CONE_GRID_PAIRS", 0)
        got = tail_envelope(mm, family=fam, radii=radii, seed=seed % 7)
    assert same_envelope(got, want)


def test_cone_front_reads_a_stretch_whose_ends_sit_on_a_cut(monkeypatch):
    # one row: the set's point of mass m at 0, a value x of weight w, and a
    # value past every radius; x makes lo = x at r0 in exact arithmetic, and
    # the radii are r0 and its nearest floats.  On them the float lo falls on
    # either side of x: both ends count x as above lo, one radius inside as
    # at most lo, and its tail, larger than the ends', sets the front
    m, w, r0 = 0.30426198884343914, 0.19246114309947948, 0.4284978517983858
    x = (r0 * (1 - m - w - m * (1 - 1e-9)) + 1e-12) / (1 - w)
    radii = [r0]
    for _ in range(3):
        radii = [np.nextafter(radii[0], 0.0), *radii, np.nextafter(radii[-1], 1.0)]
    ms, ws = np.array([[0.0, x, 1.5 * r0]]), np.array([[m, w, 1 - m - w]])
    cw = np.append(0.0, np.cumsum(ws))[None]
    cw[:, -1] = 1.0
    fronts = []
    for grid_pairs in (10**9, 0):  # every radius, then the stretch ends
        monkeypatch.setattr(concentration, "_CONE_GRID_PAIRS", grid_pairs)
        fronts.append(concentration._cone_front((np.empty(0), np.empty(0)), np.array([m]),
                                                ms, ws, cw, np.array(radii)))
    (s, v), (s_ends, v_ends) = fronts
    assert len(s) == 2 and v[0] > v[1] and s[0] < m * radii[-1]
    assert np.array_equal(s_ends, s) and np.array_equal(v_ends, v)


def test_cone_front_reads_a_crossing_among_ulp_near_radii(monkeypatch):
    # one row: the set's point of mass m at 0, values a and x, and one past
    # every radius; x makes hi = x at r0 in exact arithmetic.  The stretch
    # runs from 0.98 r0 to 1.02 r0, both ends well clear of every cut, and
    # holds r0 and its nearest floats, on which the float hi falls on either
    # side of x.  Placed by interpolation, the crossing lands among them, so
    # its readings miss the margin and the stretch is read whole
    m, wa, w, r0 = 0.3, 0.3, 0.2, 0.33235842142899386
    a = 0.1 * r0
    x = (wa * a + r0 * (1 - m - wa - w + m * (1 - 1e-9)) - 1e-12) / (1 - w)
    radii = [r0]
    for _ in range(4):
        radii = [np.nextafter(radii[0], 0.0), *radii, np.nextafter(radii[-1], 1.0)]
    radii = np.array([0.98 * r0, *radii, 1.02 * r0])
    ms, ws = np.array([[0.0, a, x, 1.5 * r0]]), np.array([[m, wa, w, 1 - m - wa - w]])
    cw = np.append(0.0, np.cumsum(ws))[None]
    cw[:, -1] = 1.0
    fronts = []
    for grid_pairs in (10**9, 0):  # every radius, then the stretch ends
        monkeypatch.setattr(concentration, "_CONE_GRID_PAIRS", grid_pairs)
        fronts.append(concentration._cone_front((np.empty(0), np.empty(0)), np.array([m]),
                                                ms, ws, cw, radii))
    (s, v), (s_ends, v_ends) = fronts
    assert len(s) == 2 and m * radii[0] < s[0] < m * radii[-2]
    assert np.array_equal(s_ends, s) and np.array_equal(v_ends, v)


def test_tail_envelope_reads_at_most_a_quarter_of_the_grid(monkeypatch):
    mm = random_mm_space(0, n_low=12, n_high=12)
    pairs = []
    real = concentration._cone_thresholds

    def counted(mass, rho, *rest):
        pairs.append(np.broadcast(mass, rho).size)
        return real(mass, rho, *rest)

    monkeypatch.setattr(concentration, "_cone_thresholds", counted)
    env = tail_envelope(mm)
    assert same_envelope(env, tail_envelope_plain(mm))
    # every subset's two rows at every radius, against the pairs read
    grid = 2 * (2 ** mm.n - 1) * len(breakpoint_radii(mm.space))
    assert 0 < sum(pairs) <= grid / 4, (sum(pairs), grid)


def test_empty_threshold_grid_reads_no_tails():
    mm = random_mm_space(0, 6, 6)
    fam = generate_family(mm, count=12, seed=0)
    stack = fam._stacked(mm.weights)
    assert stack.tails(np.empty(0)).shape == (len(fam), 0)
    for thresholds in (np.empty(0), np.empty((len(fam), 0))):
        assert _mass_below(stack.values, thresholds).shape == (len(fam), 0)
        assert _count_below(-stack.values[0], -thresholds).shape == (len(fam), 0)


def test_transfer_check_on_a_one_point_space_is_vacuous():
    # no positive distance, so no breakpoint: the trivial envelope of an
    # empty grid, and nothing for the transfer to check
    mm = MetricMeasureSpace.with_uniform(QuasiMetricSpace([[0.0]]))
    rep = enlargement_check_from_tail_bound(mm, tail_envelope(mm))
    assert rep.hypothesis_ok and rep.conclusions_asserted and rep.passed
    assert (rep.hypothesis_margin, rep.enlargement_margin, rep.alpha_margin) == (math.inf,) * 3


def test_deviation_check_on_a_one_point_space_is_vacuous():
    mm = MetricMeasureSpace.with_uniform(QuasiMetricSpace([[0.0]]))
    rep = deviation_check(mm, [0.0], alpha_profile(mm, "exact"))
    assert rep.upper == rep.lower == rep.twosided == CheckReport(True, math.inf)
    assert rep.passed


def test_tail_envelope_on_no_radii_is_the_trivial_bound():
    mm = random_mm_space(0, 6, 6)
    env = tail_envelope(mm, radii=np.array([]))
    assert env.rs.shape == env.values.shape == (0,)
    assert env(0.5) == 1.0


def test_tail_envelope_never_rises():
    # the transfer check reads the envelope at segment ends only on this
    for seed in range(60):
        mm = random_mm_space(seed)
        assert np.all(np.diff(tail_envelope(mm).values) <= 0), seed


# ---------------------------------------------------------------------------
# subset rows in blocks under the byte budget
# ---------------------------------------------------------------------------

def one_row_blocks(monkeypatch):
    """Shrink the row budget below one row, so every blocked scan builds one
    row per block."""
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 1)


def test_subset_rows_sum_tied_masses_in_stable_order():
    # distances of 1 and 2 tie within every row, and unequal weights make
    # the prefix masses depend on the order the tied points are taken in
    rng = np.random.default_rng(0)
    n = 12
    dist = rng.integers(1, 3, (n, n)).astype(float)
    np.fill_diagonal(dist, 0.0)
    w = rng.random(n) + 0.05
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
    chunks = list(_sorted_chunks(mm, "exact", None, 0.0, 0))
    for d, built in enumerate(_set_distance_rows(mm.dist, _subset_masks(n))):
        ws, cws = (np.concatenate([chunk[1 + d][f] for chunk in chunks]) for f in (1, 2))
        for k in range(0, len(built), 5):
            order = sorted(range(n), key=lambda x: built[k, x])  # a stable sort
            cw = [0.0]
            for x in order:
                cw.append(cw[-1] + mm.weights[x])
            cw[-1] = 1.0  # a whole row has mass one by definition
            assert ws[k].tolist() == mm.weights[order].tolist(), (d, k)
            assert cws[k].tolist() == cw, (d, k)


@pytest.mark.parametrize("n", range(1, 17))
def test_lattice_rows_equal_min_plus_rows(n):
    rng = np.random.default_rng(n)
    # off-diagonal distances in {2, 3, 4}: a metric with ties in every row
    dist = rng.integers(2, 5, (n, n)).astype(float)
    np.fill_diagonal(dist, 0.0)
    w = rng.random(n) + 0.05
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
    masks = _subset_masks(n)
    want = _set_distance_rows(mm.dist, masks)
    masses = masks @ mm.weights
    for min_mass in (0.0, 0.5):
        (got, build, _), = _candidate_groups(mm, "exact", None, min_mass, 0)
        keep = np.flatnonzero(masses >= min_mass)
        assert np.array_equal(got, masses[keep])
        # slices as the sorted chunks take them, index arrays as the
        # isoperimetric stride takes them
        for sel in (slice(None), slice(len(keep) // 3, None, 2), slice(-1, None),
                    np.arange(len(keep))[::-7], np.array([], dtype=int)):
            rows = build(sel)
            assert all(np.array_equal(r, m[keep[sel]]) for r, m in zip(rows, want)), sel


def test_set_distance_rows_blocks_match_one_block(monkeypatch):
    mm = random_mm_space(7, n_low=9, n_high=9)
    masks = _subset_masks(mm.n)
    whole = _set_distance_rows(mm.dist, masks)
    one_row_blocks(monkeypatch)
    blocked = _set_distance_rows(mm.dist, masks)
    assert all(np.array_equal(b, w) for b, w in zip(blocked, whole))
    for mask, fwd, bwd in zip(masks[::29], *(rows[::29] for rows in blocked)):
        assert np.array_equal(fwd, mm.dist[mask].min(axis=0))
        assert np.array_equal(bwd, mm.dist[:, mask].min(axis=1))


def test_family_scans_in_blocks_match_one_block(monkeypatch):
    mm = build_space(catalog_entry("g1"), resolution=24)
    fam = generate_family(mm, count=2 * mm.n + 8, seed=0)
    radii = breakpoint_radii(mm.space)
    scale = mesh_scale(mm)
    curve = _alpha_curve(mm, radii, "family", family=fam)
    profile = isoperimetric_profile(mm, scale, "family", family=fam)
    one_row_blocks(monkeypatch)
    assert np.array_equal(_alpha_curve(mm, radii, "family", family=fam), curve)
    assert isoperimetric_profile(mm, scale, "family", family=fam) == profile


@pytest.mark.parametrize("min_mass", [0.0, 0.5, 0.9])
def test_ball_rows_match_prefix_minima_over_every_point(monkeypatch, min_mass):
    calls = []
    real = concentration._ball_rows
    monkeypatch.setattr(concentration, "_ball_rows",
                        lambda *args: calls.append(args) or real(*args))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        # off-diagonal distances in {1, 2}: many ties among each center's distances
        dist = rng.integers(1, 3, (n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        w = rng.random(n) * (rng.random(n) < 0.8)
        w[0] += 0.1
        mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
        start = len(calls)
        list(concentration._candidate_groups(mm, "family", generate_family(mm), min_mass, 0))
        # every row keeps its whole ball, so there is one group per row, in
        # scan order: c0 forward, c0 backward, c1 forward, ...
        scan = [np.argsort(v, kind="stable") for c in range(n) for v in (dist[c], dist[:, c])]
        assert len(calls) - start == len(scan)
        assert all(np.array_equal(order, want) for (_, order, _), want in zip(calls[start:], scan))
    # tied prefixes are always left out, and the center alone (end 0) is
    # left out only when min_mass drops it
    assert any(len(ends) < ends[-1] + 1 for _, _, ends in calls)
    assert any(ends[0] > 0 for _, _, ends in calls) == (min_mass > 0)
    for dist, order, ends in calls:
        # slices as the scans take them, strided and empty picks as the
        # isoperimetric scan takes them
        for sel in (slice(0, len(ends)), slice(len(ends) // 2, None), slice(-1, None),
                    np.arange(len(ends))[1::2], np.array([], dtype=int)):
            want = (np.minimum.accumulate(dist[order, :], axis=0)[ends[sel]],
                    np.minimum.accumulate(dist.T[order, :], axis=0)[ends[sel]])
            got = real(dist, order, ends)(sel)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_tail_envelope_in_blocks_matches_one_block(monkeypatch):
    spaces = [random_mm_space(seed, n_low=6, n_high=8) for seed in range(4)]
    whole = [tail_envelope(mm) for mm in spaces]
    one_row_blocks(monkeypatch)
    for mm, env in zip(spaces, whole):
        assert same_envelope(tail_envelope(mm), env)
        assert same_envelope(tail_envelope_plain(mm), env)
    # one-row blocks read at their stretch ends, not at every radius
    monkeypatch.setattr(concentration, "_CONE_GRID_PAIRS", 0)
    for mm, env in zip(spaces, whole):
        assert same_envelope(tail_envelope(mm), env)


# ---------------------------------------------------------------------------
# the enlargement transfer (measured tail hypothesis)
# ---------------------------------------------------------------------------

def test_transfer_with_trivial_beta():
    mm = random_mm_space(3, n_low=3, n_high=8)
    rep = enlargement_check_from_tail_bound(mm, lambda s: np.ones_like(s))
    assert rep.hypothesis_ok and rep.passed


def test_transfer_with_measured_envelope():
    for seed in range(10):
        mm = random_mm_space(seed, n_low=3, n_high=9)
        fam = generate_family(mm, count=2 * mm.n + 8, seed=seed)
        beta = tail_envelope(mm, family=fam)
        rep = enlargement_check_from_tail_bound(mm, beta, family=fam)
        assert rep.hypothesis_ok
        assert rep.conclusions_asserted
        assert rep.passed, (seed, rep)


def test_transfer_rejects_low_beta():
    mm = random_mm_space(5, n_low=4, n_high=8)
    rep = enlargement_check_from_tail_bound(mm, lambda s: np.zeros_like(s))
    assert not rep.hypothesis_ok
    assert not rep.conclusions_asserted


def test_sampled_decreasing_evaluation():
    sd = SampledDecreasing(np.array([1.0, 2.0]), np.array([0.4, 0.1]))
    assert sd(0.5) == 1.0
    assert sd(1.0) == 0.4
    assert sd(1.5) == 0.4
    assert sd(3.0) == 0.1
    with pytest.raises(ValueError):
        SampledDecreasing(np.array([1.0, 2.0]), np.array([0.1, 0.4]))


def test_sampled_decreasing_without_samples_is_one():
    sd = SampledDecreasing(np.empty(0), np.empty(0))
    assert sd(0.0) == 1.0 and sd(1.0) == 1.0
    out = sd(np.array([[0.5, 2.0], [1e9, -1.0]]))
    assert out.shape == (2, 2) and np.all(out == 1.0)


# ---------------------------------------------------------------------------
# explicit constants (hand-derived frozen values)
# ---------------------------------------------------------------------------

def test_median_to_mean_constants():
    C1, kappa1, c1 = median_to_mean_tail_constants(1.0, 1.0, 1.0)
    assert kappa1 == 1.0
    assert c1 == pytest.approx(1.0, rel=1e-9)
    assert C1 == pytest.approx(math.e, rel=1e-9)
    C2, kappa2, c2 = median_to_mean_tail_constants(1.0, 1.0, 2.0)
    assert kappa2 == 0.5
    assert c2 == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-9)
    assert c2 == pytest.approx(0.8862269254527580, rel=1e-9)


def test_normal_equivalence_constants():
    C2, c2 = normal_equivalence_constants("forward", 0.5, 2.0)
    assert C2 == pytest.approx(math.exp(math.pi / 4.0), rel=1e-9)
    assert C2 == pytest.approx(2.1932800507380155, rel=1e-9)
    assert c2 == 1.0
    C, c = normal_equivalence_constants("backward", 1.7, 4.0)
    assert (C, c) == (1.7, 1.0)


def test_moment_bound_value_and_scaling():
    v = moment_bound_from_normal_tails(1.0, 1.0, 1.0)
    assert v == pytest.approx(
        math.sqrt(2 * math.pi) * math.exp(1 / (4 * math.e) - 0.5), rel=1e-12)
    assert v == pytest.approx(1.6668046219284187, rel=1e-9)
    assert moment_bound_from_normal_tails(1.0, 1.0, 4.0) == pytest.approx(2 * v, rel=1e-12)
    assert moment_bound_from_normal_tails(1.0, 4.0, 1.0) == pytest.approx(v / 2, rel=1e-12)


def test_tail_from_square_moments_regimes():
    regime, v = tail_bound_from_square_moments(math.e, 1.0)
    assert regime == "normal"
    assert v == pytest.approx(math.exp(-0.5), rel=1e-9)
    regime, v = tail_bound_from_square_moments(math.e, 2.0)
    assert regime == "normal" and v == pytest.approx(math.exp(-2.0), rel=1e-9)
    regime, v = tail_bound_from_square_moments(math.e, 0.5)
    assert regime == "linear" and v == pytest.approx(math.exp(-0.5) / 0.5, rel=1e-9)


def test_tail_from_first_moment():
    assert tail_bound_from_first_moment(1.0, 3.0, 2.0) == 0.5
    assert tail_bound_from_first_moment(16.0, 4.0, 2.0) == pytest.approx(0.25, rel=1e-12)
    assert tail_bound_from_first_moment(4.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# profile fits
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_model():
    rs = np.linspace(0.2, 3.0, 12)
    for model, p in (("normal", 2), ("exponential", 1)):
        al = 0.37 * np.exp(-0.9 * rs ** p)
        prof = ConcentrationProfile(rs, np.minimum(al, 0.5), model_strategy := "exact")
        fit = fit_profile(prof, model)
        assert fit.certified
        assert fit.C == pytest.approx(0.37, rel=1e-9)
        assert fit.c == pytest.approx(0.9, rel=1e-9)


def test_fit_always_dominates():
    for seed in range(10):
        mm = random_mm_space(seed)
        prof = alpha_profile(mm)
        for model in ("normal", "exponential"):
            fit = fit_profile(prof, model)
            assert fit.certified
            assert np.all(fit.bound(prof.radii) >= prof.alphas - 1e-15)


def test_fit_two_point_plateau():
    prof = alpha_profile(two_point_uniform())
    fit = fit_profile(prof, "exponential")
    assert fit.certified
    assert fit.C >= 0.5 * math.exp(fit.c * 1.0) - 1e-12


def test_fit_degenerate_all_zero():
    mm = MetricMeasureSpace(validate([[0, 1], [1, 0]]), ProbabilityMeasure([1.0, 0.0]))
    prof = alpha_profile(mm)
    assert np.all(prof.alphas == 0.0)
    fit = fit_profile(prof, "normal")
    assert fit.degenerate and fit.certified and fit.C == 0.5


def test_thm37_chain_end_to_end():
    # certified normal fit -> forward constants -> moment bound, q in {1,2,4,8}
    for seed in range(10):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        prof = alpha_profile(mm)
        fit = fit_profile(prof, "normal")
        C2, c2 = normal_equivalence_constants("forward", fit.C, fit.c)
        fam = generate_family(mm, count=2 * mm.n + 4, seed=seed)
        for q in (1, 2, 4, 8):
            bound = moment_bound_from_normal_tails(C2, c2, q)
            for f in fam:
                assert moment_norm(mm, f, q) <= bound * (1 + 1e-9)
