"""Minkowski contents, isoperimetric profiles, the Gaussian comparison."""
import math

import numpy as np
import pytest

from ccmm.concentration import _candidate_groups
from ccmm.finsler import build_space, catalog_entry
from ccmm.isoperimetry import (
    _MAX_SUBSETS,
    _strided_rows,
    gaussian_alpha_bound,
    gaussian_phi,
    gaussian_phi_inv,
    isoperimetric_profile,
    mesh_scale,
    minkowski_content,
    normal_concentration_bound,
    obsdiam_bound_from_curvature,
    profile_enlargement_check,
)
from ccmm.quasimetric import (
    MetricMeasureSpace,
    breakpoint_radii,
    from_digraph,
    random_mm_space,
    reverse,
    validate,
)
from ccmm.lipschitz import generate_family
from oracles import (
    isoperimetric_profile_bruteforce,
    isoperimetric_profile_grouped_plain,
    profile_enlargement_check_both_directions,
    strided_enlargement_rows_plain,
)


def path3():
    edges = [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)]
    return MetricMeasureSpace.with_uniform(from_digraph(edges, 3))


def test_content_full_set_zero():
    mm = path3()
    c = minkowski_content(mm, [0, 1, 2], 1.0)
    assert (c.forward, c.backward) == (0.0, 0.0)
    with pytest.raises(ValueError):
        minkowski_content(mm, [], 1.0)


def test_content_strictness_sensitivity():
    # at scale exactly 1 the open ball adds nothing; just past it, one point
    mm = path3()
    at_jump = minkowski_content(mm, [0], 1.0)
    assert at_jump.forward == 0.0
    past = minkowski_content(mm, [0], 1.0 + 1e-9)
    assert past.forward == pytest.approx((1 / 3) / (1 + 1e-9), rel=1e-12)
    assert past.scale == 1.0 + 1e-9


def test_content_symmetric_space_balanced():
    mm = random_mm_space(4, symmetric=True)
    c = minkowski_content(mm, [0, 1], 0.4)
    assert c.forward == pytest.approx(c.backward, abs=1e-15)


def test_content_reversal_swaps_directions():
    for seed in range(6):
        mm = random_mm_space(seed, n_low=3, n_high=8)
        rev = MetricMeasureSpace(reverse(mm.space), mm.measure)
        for scale in (0.3, 0.9):
            c = minkowski_content(mm, [0, 2], scale)
            cr = minkowski_content(rev, [0, 2], scale)
            assert c.forward == pytest.approx(cr.backward, abs=1e-15)
            assert c.backward == pytest.approx(cr.forward, abs=1e-15)


def test_isoperimetric_profile_two_point():
    mm = MetricMeasureSpace.with_uniform(validate([[0, 1], [1, 0]]))
    scale = 1.0 + 1e-9
    prof = dict(isoperimetric_profile(mm, scale))
    assert prof[0.0] == 0.0
    assert prof[1.0] == 0.0
    assert prof[0.5] == pytest.approx(0.5 / scale, rel=1e-12)


def test_isoperimetric_profile_matches_bruteforce():
    for seed in range(5):
        mm = random_mm_space(seed, n_low=3, n_high=7)
        scale = float(mm.dist[mm.dist > 0].min()) * 1.1
        got = dict(isoperimetric_profile(mm, scale))
        want = dict(isoperimetric_profile_bruteforce(mm, scale))
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-12)


@pytest.mark.parametrize("n", [14, 16])
def test_profile_groups_as_the_plain_dict_loop(n):
    # one minimum per Python-rounded mass, the same floats and keys as a
    # dict lowered candidate by candidate
    for seed in range(2):
        mm = random_mm_space(seed, n_low=n, n_high=n)
        scale = float(mm.dist[mm.dist > 0].min()) * 1.1
        for strategy in ("exact", "family"):
            got = isoperimetric_profile(mm, scale, strategy)
            want = isoperimetric_profile_grouped_plain(mm, scale, strategy)
            assert repr(got) == repr(want), (seed, strategy)


def test_family_profile_above_exact():
    for seed in range(6):
        mm = random_mm_space(seed, n_low=3, n_high=9)
        scale = float(mm.dist[mm.dist > 0].min()) * 1.1
        exact = isoperimetric_profile(mm, scale, "exact")
        fam = isoperimetric_profile(mm, scale, "family")
        for mass, content in fam:
            # masses from different summation orders can differ in rounding
            matches = [c for m, c in exact if abs(m - mass) <= 1e-9]
            assert matches
            assert content >= min(matches) - 1e-12


# ---------------------------------------------------------------------------
# the Gaussian comparison profile
# ---------------------------------------------------------------------------

def test_phi_midpoint_and_symmetry():
    assert gaussian_phi(0.0) == 0.5
    assert gaussian_phi_inv(0.5) == 0.0
    for t in (0.3, 1.7, 4.2):
        assert gaussian_phi(-t) == pytest.approx(1 - gaussian_phi(t), abs=1e-14)


def test_phi_against_stdlib_erf():
    for t in np.concatenate([np.linspace(-8.4, 8.4, 97), [-12.0, 12.0]]):
        exact = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        assert gaussian_phi(float(t)) == pytest.approx(exact, abs=2e-13)


def test_phi_quantile_example():
    assert gaussian_phi(1.6448536) == pytest.approx(0.95, abs=1e-7)
    assert gaussian_phi_inv(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)


def test_phi_inverse_roundtrip():
    for v in (1e-8, 1e-4, 0.025, 0.3, 0.5, 0.77, 0.999, 1 - 1e-8):
        assert gaussian_phi(gaussian_phi_inv(v)) == pytest.approx(v, abs=1e-10)
    with pytest.raises(ValueError):
        gaussian_phi_inv(0.0)
    with pytest.raises(ValueError):
        gaussian_phi_inv(1.0)


def test_phi_strictly_increasing():
    ts = np.linspace(-6, 6, 121)
    vals = [gaussian_phi(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# concentration consequences
# ---------------------------------------------------------------------------

def test_gaussian_alpha_bound_values():
    assert gaussian_alpha_bound(True, 0.0) == 0.5
    assert gaussian_alpha_bound(True, 40.0) == pytest.approx(0.0, abs=1e-300)
    with pytest.raises(ValueError):
        gaussian_alpha_bound(False, 1.0)


def test_gaussian_alpha_bound_two_routes_agree():
    # via phi^{-1}(1/2) = 0 shortcut versus the full composition
    for r in (0.1, 0.8, 2.3):
        direct = 1.0 - gaussian_phi(r)
        composed = 1.0 - gaussian_phi(gaussian_phi_inv(0.5) + r)
        assert direct == pytest.approx(composed, abs=1e-10)
        assert gaussian_alpha_bound(True, r) == direct


def test_gaussian_tail_dominated_by_half_gaussian():
    # 1 - phi(r) <= (1/2) e^{-r^2/2}, the tail bound behind the normal form
    for r in np.linspace(0.0, 6.0, 61):
        assert 1.0 - gaussian_phi(float(r)) <= 0.5 * math.exp(-0.5 * r * r) + 1e-13


def test_normal_bound_dominates_rescaled_gaussian_bound():
    for K in (0.5, 1.0, 2.0):
        for r in np.linspace(0.01, 4.0, 40):
            lhs = 1.0 - gaussian_phi(math.sqrt(K) * float(r))
            assert lhs <= normal_concentration_bound(K, float(r)) + 1e-12


def test_normal_bound_values_and_scaling():
    assert normal_concentration_bound(1.0, 0.0) == 0.5
    assert normal_concentration_bound(2.0, 1.0) == pytest.approx(0.5 * math.exp(-1), rel=1e-12)
    assert normal_concentration_bound(4.0, 1.5) == pytest.approx(
        normal_concentration_bound(1.0, 2.0 * 1.5), rel=1e-12)
    with pytest.raises(ValueError):
        normal_concentration_bound(0.0, 1.0)


def test_curvature_obsdiam_bound():
    assert obsdiam_bound_from_curvature(2.0, 1 / math.e) == pytest.approx(2.0, rel=1e-12)
    assert obsdiam_bound_from_curvature(1.0, 0.999999) < 1e-2
    assert obsdiam_bound_from_curvature(4.0, 0.3) == pytest.approx(
        obsdiam_bound_from_curvature(1.0, 0.3) / 2.0, rel=1e-12)


def test_enlargement_check_gates_on_hypothesis():
    # a generic random space will not dominate the Gaussian target
    mm = random_mm_space(0, n_low=4, n_high=8)
    scale = float(mm.dist[mm.dist > 0].min()) * (1 + 1e-9)
    rep = profile_enlargement_check(mm, scale, [0.5, 1.0], K=50.0)
    assert not rep.hypothesis_ok
    assert not rep.conclusion_asserted


@pytest.mark.parametrize("count, total", [(45, 510), (46, 512), (47, 514), (320, 1060)])
def test_strided_rows_match_plain_stride(count, total):
    # n = 15: 420 balls of mass < 1 in groups of 14, plus two median level
    # sets per member, so the family scan sits just below, at and just above
    # the row cap; at stride 3 the groups start at every offset of the stride
    mm = random_mm_space(0, n_low=15, n_high=15)
    fam = generate_family(mm, count=count, seed=0)
    *got, n_sets = _strided_rows(_candidate_groups(mm, "family", fam, 0.0, 0))
    want = strided_enlargement_rows_plain(
        ((masses, *build(slice(None)))
         for masses, build, _ in _candidate_groups(mm, "family", fam, 0.0, 0)), _MAX_SUBSETS)
    assert n_sets == total
    stride = -(-total // _MAX_SUBSETS)
    assert len(got[0]) == -(-total // stride) <= _MAX_SUBSETS
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_enlargement_check_labels_its_stride():
    mm = random_mm_space(1, n_low=10, n_high=10)
    scale = float(mm.dist[mm.dist > 0].min()) * (1 + 1e-9)
    rep = profile_enlargement_check(mm, scale, [0.5, 1.0], K=50.0)
    # 1022 proper nonempty subsets, every second one kept
    assert rep.subsets == "exact (strided to 511 rows)"


@pytest.mark.parametrize("space, K, gate", [
    ("g1@32", 1.0, True), ("g1@32", 10.0, False),
    ("g1@64", 1.0, True), ("g1@64", 10.0, False),
    ("s2@8", 1.0, False), ("s2@8", 0.1, True),
    ("random-1", 1.0, False), ("random-1", 0.1, True),
])
def test_enlargement_check_one_direction_at_a_time_matches_both_at_once(space, K, gate):
    if space.startswith("random"):
        mm = random_mm_space(int(space.split("-")[1]))
    else:
        name, resolution = space.split("@")
        mm = build_space(catalog_entry(name), resolution=int(resolution))
    scale = mesh_scale(mm)
    rs = breakpoint_radii(mm.space)
    rs = rs[rs > scale][::8]
    rep = profile_enlargement_check(mm, scale, rs, K=K)
    assert rep.hypothesis_ok is gate
    assert rep == profile_enlargement_check_both_directions(mm, scale, rs, K=K)
