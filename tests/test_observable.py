"""Partial and observable diameters, the generalized inverse, bound checks."""
import math

import numpy as np
import pytest

from ccmm.concentration import alpha_profile
from ccmm.lipschitz import LipschitzFamily, ScalarField, generate_family
from ccmm.observable import (
    alpha_inverse,
    observable_diameter,
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
from oracles import partial_diameter_bruteforce, window_pardiam_bruteforce


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
    for seed in range(8):
        mm = random_mm_space(seed, n_low=3, n_high=8)
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


def test_pushforward_pardiam_examples():
    pm = ProbabilityMeasure.uniform(4)
    assert pushforward_partial_diameter(pm, [5.0, 5.0, 5.0, 5.0], 0.3) == 0.0
    assert pushforward_partial_diameter(pm, [0.0, 1.0, 2.0, 3.0], 0.5) == 1.0
    assert pushforward_partial_diameter(pm, [0.0, 1.0, 2.0, 3.0], 1e-9) == 3.0


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
    constant_only = LipschitzFamily((ScalarField(np.zeros(2)),), ("user",))
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
    bad = LipschitzFamily((ScalarField(np.array([0.0, 5.0])),), ("user",))
    with pytest.raises(ValueError, match="certification"):
        observable_diameter(mm, 0.5, bad)


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


def test_obsdiam_vs_alpha_reads_given_diameters():
    grid = [k / 10 for k in range(1, 10)]
    for seed in range(5):
        mm = random_mm_space(seed, n_low=3, n_high=10)
        fam = generate_family(mm, seed=0)
        prof = alpha_profile(mm, "exact")
        diameters = {eps: observable_diameter(mm, eps, fam) for eps in grid}
        assert (obsdiam_vs_alpha_check(mm, grid, profile=prof, diameters=diameters)
                == obsdiam_vs_alpha_check(mm, grid, family=fam, profile=prof))


def test_obsdiam_bounds_closed_forms():
    assert obsdiam_bound_normal(0.5, 1.0, 1 / math.e) == pytest.approx(2.0, rel=1e-12)
    assert obsdiam_bound_exponential(0.5, 1.0, 1 / math.e) == pytest.approx(2.0, rel=1e-12)
    assert obsdiam_bound_normal(0.25, 1.0, 0.5) == 0.0   # 2C = eps clamps
    assert obsdiam_bound_exponential(0.25, 1.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        obsdiam_bound_normal(0.5, 1.0, 1.5)


@pytest.mark.parametrize("sections, calls", [
    (("sec5",), 0),   # cor55 skips without a curvature certificate
    (("sec4",), 9),   # thm41, obnor and obex share one diameter per epsilon
    (("sec4", "sec5", "sec6"), 9),
])
def test_run_verify_builds_observable_diameters_only_when_read(monkeypatch,
                                                              sections, calls):
    # counted where the suite builds them and where thm41's check would
    from ccmm import observable, verify
    seen = []

    def counting(mm, eps, family):
        seen.append(eps)
        return observable_diameter(mm, eps, family)

    monkeypatch.setattr(verify, "observable_diameter", counting)
    monkeypatch.setattr(observable, "observable_diameter", counting)
    verify.run_verify(random_mm_space(3), sections=sections, restarts=2)
    assert len(seen) == calls
