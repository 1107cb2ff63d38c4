"""Partial and observable diameters, the generalized inverse, bound checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmm import observable, quasimetric
from ccmm.concentration import alpha_profile
from ccmm.lipschitz import LipschitzFamily, _FamilyStack, generate_family
from ccmm.observable import (
    alpha_inverse,
    observable_diameter,
    observable_diameters,
    obsdiam_bound_exponential,
    obsdiam_bound_normal,
    obsdiam_vs_alpha_check,
    partial_diameter,
    pushforward_partial_diameter,
)
from ccmm.quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    random_mm_space,
    validate,
)
from ccmm.finsler import build_space, catalog_entry
from oracles import (
    partial_diameter_bruteforce,
    partial_diameter_heuristic_plain,
    pushforward_pardiam_plain,
    window_pardiam_bruteforce,
)


def two_point_uniform():
    return MetricMeasureSpace.with_uniform(validate([[0, 1], [1, 0]]))


def test_partial_diameter_examples():
    mm = two_point_uniform()
    assert partial_diameter(mm, 0.6) == 0.0       # one point carries mass 1/2
    assert partial_diameter(mm, 0.3) == 1.0       # both points needed
    point_mass = MetricMeasureSpace(validate([[0, 1], [1, 0]]),
                                    ProbabilityMeasure([1.0, 0.0]))
    assert partial_diameter(point_mass, 0.5) == 0.0
    with pytest.raises(ValueError):
        partial_diameter(mm, 1.5)


def test_partial_diameter_matches_bruteforce():
    spaces = [random_mm_space(seed, n_low=3, n_high=8) for seed in range(8)]
    # twelve points reach the subset lattice's eleventh doubling
    spaces += [random_mm_space(seed, n_low=12, n_high=12) for seed in range(2)]
    for mm in spaces:
        for kappa in (0.2, 0.5, 0.8):
            assert partial_diameter(mm, kappa) == pytest.approx(
                partial_diameter_bruteforce(mm, kappa), abs=1e-12)


def test_partial_diameter_heuristic_upper_bound():
    for seed in range(5):
        mm = random_mm_space(seed, n_low=5, n_high=10)
        for kappa in (0.3, 0.6):
            exact = partial_diameter(mm, kappa)
            heur = partial_diameter(mm, kappa, exact=False)
            assert heur >= exact - 1e-12


def test_partial_diameter_heuristic_matches_the_center_loop():
    spaces = [random_mm_space(seed, n_low=5, n_high=20) for seed in range(10)]
    spaces += [build_space(catalog_entry("t2"), resolution=4),
               build_space(catalog_entry("g1"), resolution=24)]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 24))
        # off-diagonal distances in {1, 2}: many ties in every center's row
        dist = rng.integers(1, 3, (n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        # points of zero weight, and weights tied among the rest
        w = rng.integers(0, 3, n).astype(float)
        w[0] += 1.0
        spaces.append(MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum())))
    for mm in spaces:
        for kappa in (0.05, 0.3, 0.5, 0.75, 0.95):
            assert partial_diameter(mm, kappa, exact=False) == \
                partial_diameter_heuristic_plain(mm, kappa)


def test_pushforward_pardiam_examples():
    pm = ProbabilityMeasure.uniform(4)
    assert pushforward_partial_diameter(pm, [5.0, 5.0, 5.0, 5.0], 0.3) == 0.0
    assert pushforward_partial_diameter(pm, [0.0, 1.0, 2.0, 3.0], 0.5) == 1.0
    assert pushforward_partial_diameter(pm, [0.0, 1.0, 2.0, 3.0], 1e-9) == 3.0


def test_pushforward_pardiam_falls_back_to_the_full_range():
    # on a probability measure no window misses the bar except through
    # rounding; weights of total 0.3 stand in for that case
    light, vals = np.full(3, 0.1), [0.0, 1.0, 3.0]
    got = observable._pardiams(_FamilyStack(np.array([vals]), light).values, [0.5])
    assert got[0, 0] == pushforward_pardiam_plain(light, vals, 0.5) == 3.0


def test_pushforward_pardiam_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 1, n)
        pm = ProbabilityMeasure(w / w.sum())
        vals = rng.normal(size=n).round(1)
        for kappa in (0.15, 0.4, 0.75):
            assert pushforward_partial_diameter(pm, vals, kappa) == pytest.approx(
                window_pardiam_bruteforce(pm.weights, vals, kappa), abs=1e-12)


def test_pushforward_pardiam_monotone_in_kappa():
    pm = ProbabilityMeasure.normalized([1, 3, 2, 2, 1])
    vals = np.array([0.0, 0.3, 1.1, 2.0, 5.0])
    prev = math.inf
    for kappa in (0.1, 0.3, 0.5, 0.7, 0.9):
        cur = pushforward_partial_diameter(pm, vals, kappa)
        assert cur <= prev + 1e-12
        prev = cur


def test_observable_diameter_two_point():
    mm = two_point_uniform()
    fam = generate_family(mm)
    res = observable_diameter(mm, 0.4, fam)
    assert res.value == 1.0
    assert res.family_size == len(fam)
    constant_only = LipschitzFamily(mm.space, np.zeros((1, 2)), ("user",))
    assert observable_diameter(mm, 0.4, constant_only).value == 0.0


def test_observable_diameter_monotone_in_family():
    mm = random_mm_space(5)
    small = generate_family(mm, count=2 * mm.n, seed=0)
    large = generate_family(mm, count=2 * mm.n + 6, seed=0)
    for kappa in (0.2, 0.5):
        assert observable_diameter(mm, kappa, large).value >= \
            observable_diameter(mm, kappa, small).value - 1e-15


def test_observable_diameter_rejects_bad_member():
    mm = two_point_uniform()
    with pytest.raises(ValueError, match="family member 0 fails 1-Lipschitz certification"):
        LipschitzFamily(mm.space, [[0.0, 5.0]], ("user",))
    # certified on a space with longer distances, so certified again on mm's
    wide = LipschitzFamily(validate([[0, 5], [5, 0]]), [[0.0, 1.0], [0.0, 5.0]], ("user",) * 2)
    with pytest.raises(ValueError, match="family member 1 fails 1-Lipschitz certification"):
        observable_diameter(mm, 0.5, wide)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_observable_diameters_match_the_sliding_window(n, members, seed):
    rng = np.random.default_rng(seed)
    # off-diagonal distances of 8 make every field of range below 8 1-Lipschitz
    dist = np.full((n, n), 8.0)
    np.fill_diagonal(dist, 0.0)
    w = rng.random(n) * (rng.random(n) < 0.7)  # points of zero weight
    w[rng.integers(n)] += 0.1
    mm = MetricMeasureSpace(validate(dist), ProbabilityMeasure(w / w.sum()))
    # near-tie values: a few bases, each with its neighbours one ulp away
    bases = rng.uniform(0.0, 4.0, 3)
    pool = np.concatenate([bases, np.nextafter(bases, 5.0), np.nextafter(bases, -1.0)])
    values = rng.choice(pool, size=(members, n))
    fam = LipschitzFamily(mm.space, values, ("user",) * members)
    # kappas near 0 and 1, and ones whose mass bar lands within an ulp of the
    # mass of a window of the first member
    cw = np.concatenate([[0.0], np.cumsum(mm.weights[np.argsort(values[0], kind="stable")])])
    i, j = sorted(rng.integers(0, n + 1, 2))
    bar = 1.0 - (cw[j] - cw[i]) - 1e-12
    kappas = [k for k in (1e-15, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-15, bar,
                          np.nextafter(bar, 0.0), np.nextafter(bar, 1.0)) if 0.0 < k < 1.0]
    got = observable_diameters(mm, kappas, fam)
    for kappa in kappas:
        want = [pushforward_pardiam_plain(mm.weights, v, kappa) for v in values]
        assert got[kappa] == observable_diameter(mm, kappa, fam)
        assert (got[kappa].value, got[kappa].witness) == (max(want), want.index(max(want)))
        assert [pushforward_partial_diameter(mm.measure, v, kappa) for v in values] == want


def test_observable_diameters_do_not_depend_on_the_block_size(monkeypatch):
    grid = [k / 10 for k in range(1, 10)]
    spaces = [random_mm_space(seed, n_low=3, n_high=12) for seed in range(4)]
    fams = [generate_family(mm, count=2 * mm.n + 8, seed=1) for mm in spaces]
    default = [observable_diameters(mm, grid, fam) for mm, fam in zip(spaces, fams)]
    monkeypatch.setattr(quasimetric, "_ROW_BUDGET", 1)  # one member per block
    assert [observable_diameters(mm, grid, fam) for mm, fam in zip(spaces, fams)] == default


def test_observable_at_most_partial_diameter():
    for seed in range(10):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        fam = generate_family(mm, count=2 * mm.n + 4, seed=seed)
        for kappa in (0.25, 0.5, 0.75):
            obs = observable_diameter(mm, kappa, fam).value
            assert obs <= partial_diameter(mm, kappa) + 1e-12


def test_alpha_inverse_step_semantics():
    mm = two_point_uniform()
    prof = alpha_profile(mm)
    assert alpha_inverse(prof, 0.5) == 0.0    # alpha never exceeds 1/2
    assert alpha_inverse(prof, 0.4) == 1.0    # jump at the plateau end
    assert alpha_inverse(prof, 1e-9) == 1.0


def test_alpha_inverse_monotone_and_consistent():
    for seed in range(8):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        prof = alpha_profile(mm)
        delta = 1e-9 * float(mm.dist.max())
        prev = math.inf
        for eps in (0.05, 0.1, 0.2, 0.35, 0.5):
            r = alpha_inverse(prof, eps)
            assert r <= prev + 1e-15
            prev = r
            assert prof.value_at(r + delta) <= eps + 1e-15


def test_alpha_inverse_requires_exact():
    mm = random_mm_space(2)
    prof = alpha_profile(mm, "family")
    with pytest.raises(ValueError):
        alpha_inverse(prof, 0.2)


def test_obsdiam_vs_alpha_two_point():
    mm = two_point_uniform()
    rep = obsdiam_vs_alpha_check(mm, [0.8])
    # LHS <= 1, RHS = 2 alpha^{-1}(0.4) = 2
    assert rep.passed
    assert rep.witness["bound"] == 2.0


def test_obsdiam_vs_alpha_random_suite():
    for seed in range(20):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        rep = obsdiam_vs_alpha_check(mm, [k / 10 for k in range(1, 10)])
        assert rep.passed, (seed, rep.witness)


def test_obsdiam_vs_alpha_reads_given_diameters(monkeypatch):
    grid = [k / 10 for k in range(1, 10)]
    builds = []

    def counting(mm, kappas, family=None, seed=0):
        builds.append(len(kappas))
        return observable_diameters(mm, kappas, family, seed)

    monkeypatch.setattr(observable, "observable_diameters", counting)
    for seed in range(5):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        fam = generate_family(mm, seed=0)
        prof = alpha_profile(mm, "exact")
        diameters = {eps: observable_diameter(mm, eps, fam) for eps in grid}
        builds.clear()
        given = obsdiam_vs_alpha_check(mm, grid, profile=prof, diameters=diameters)
        assert builds == []
        assert obsdiam_vs_alpha_check(mm, grid, family=fam, profile=prof) == given
        assert builds == [len(grid)]  # the whole grid in one build


def test_obsdiam_bounds_closed_forms():
    assert obsdiam_bound_normal(0.5, 1.0, 1 / math.e) == pytest.approx(2.0, rel=1e-12)
    assert obsdiam_bound_exponential(0.5, 1.0, 1 / math.e) == pytest.approx(2.0, rel=1e-12)
    assert obsdiam_bound_normal(0.25, 1.0, 0.5) == 0.0   # 2C = eps clamps
    assert obsdiam_bound_exponential(0.25, 1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        obsdiam_bound_normal(0.5, 1.0, 1.5)


@pytest.mark.parametrize("sections, calls", [
    (("sec5",), 0),   # cor55 skips without a curvature certificate
    (("sec4",), 9),   # thm41, obnor and obex share one build of all nine epsilons
    (("sec4", "sec5", "sec6"), 9),
])
def test_run_verify_builds_observable_diameters_only_when_read(monkeypatch,
                                                              sections, calls):
    # builds counted where the suite makes them, where thm41's check would,
    # and under observable_diameter, which is one build at one epsilon
    from ccmm import verify
    builds = []

    def counting(mm, kappas, family=None, seed=0):
        builds.append(len(kappas))
        return observable_diameters(mm, kappas, family, seed)

    monkeypatch.setattr(verify, "observable_diameters", counting)
    monkeypatch.setattr(observable, "observable_diameters", counting)
    verify.run_verify(random_mm_space(3), sections=sections, restarts=2)
    assert builds == ([calls] if calls else [])
