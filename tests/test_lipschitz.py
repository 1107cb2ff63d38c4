"""Lipschitz constants, medians, means, inf-convolution, families."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccmm.finsler import build_space, catalog_entry
from ccmm.lipschitz import (
    ScalarField,
    _lipschitz_constants,
    _positive,
    _slopes,
    generate_family,
    inf_convolution,
    lipschitz_constant,
    mean,
    median,
)
from ccmm.quasimetric import (
    ProbabilityMeasure,
    QuasiMetricSpace,
    random_mm_space,
)
from ccmm.spectrum import dual_slope
from oracles import lipschitz_constant_bruteforce, slopes_plain


def test_constant_field_has_zero_constant():
    mm = random_mm_space(0)
    assert lipschitz_constant(mm.space, np.ones(mm.n)) == 0.0


def test_distance_cone_is_one_lipschitz():
    for seed in range(10):
        mm = random_mm_space(seed)
        for p in range(mm.n):
            assert lipschitz_constant(mm.space, mm.dist[p, :]) <= 1 + 1e-12
            assert lipschitz_constant(mm.space, -mm.dist[:, p]) <= 1 + 1e-12


def test_asymmetric_pair_order():
    space = QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]]))
    assert lipschitz_constant(space, [0.0, 2.0]) == 2.0


def test_lipschitz_constant_matches_bruteforce():
    for seed in range(8):
        mm = random_mm_space(seed, n_low=3, n_high=8)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=mm.n)
        assert lipschitz_constant(mm.space, f) == pytest.approx(
            lipschitz_constant_bruteforce(mm.space, f), rel=1e-12)


def test_median_lower_choice():
    assert median(ProbabilityMeasure.uniform(2), [0.0, 10.0]) == 0.0
    assert median(ProbabilityMeasure([1.0, 0.0]), [3.0, 9.0]) == 3.0
    assert median(ProbabilityMeasure.uniform(3), [1.0, 2.0, 3.0]) == 2.0


def test_median_half_mass_conditions():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        w = rng.uniform(0.05, 1, n)
        pm = ProbabilityMeasure(w / w.sum())
        f = rng.normal(size=n).round(1)  # ties likely
        m = median(pm, f)
        assert m in set(f)
        assert pm.weights[f <= m].sum() >= 0.5 - 1e-12
        assert pm.weights[f >= m].sum() >= 0.5 - 1e-12


def test_mean_examples_and_affinity():
    assert mean(ProbabilityMeasure.uniform(2), [0.0, 10.0]) == 5.0
    assert mean(ProbabilityMeasure([1.0, 0.0]), [7.0, 1.0]) == 7.0
    assert mean(ProbabilityMeasure([0.25, 0.75]), [0.0, 4.0]) == 3.0
    pm = ProbabilityMeasure.normalized([1, 2, 3])
    f = np.array([0.5, -1.0, 2.0])
    assert mean(pm, 3 * f + 2) == pytest.approx(3 * mean(pm, f) + 2, rel=1e-14)


def test_inf_convolution_fixes_lipschitz_fields():
    mm = random_mm_space(5)
    g = mm.dist[0, :]
    out = inf_convolution(mm.space, g)
    assert np.allclose(out.values, g, atol=0)


def test_inf_convolution_recovers_distance_cone():
    mm = random_mm_space(6)
    g = np.full(mm.n, 1e9)
    g[2] = 0.0
    out = inf_convolution(mm.space, g)
    assert np.array_equal(out.values, mm.dist[2, :])


def test_inf_convolution_output_certified():
    for seed in range(10):
        mm = random_mm_space(seed)
        rng = np.random.default_rng(seed)
        g = rng.uniform(-5, 5, mm.n)
        out = inf_convolution(mm.space, g)
        assert lipschitz_constant(mm.space, out) <= 1 + 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_inf_convolution_idempotent(seed):
    mm = random_mm_space(seed % 60, n_low=3, n_high=9)
    rng = np.random.default_rng(seed)
    g = rng.uniform(0, 3, mm.n)
    once = inf_convolution(mm.space, g)
    twice = inf_convolution(mm.space, once)
    # equality up to one rounding of the sums f(z) + d(z, x)
    assert np.allclose(twice.values, once.values, rtol=1e-14, atol=1e-14)


def test_generate_family_contents():
    mm = random_mm_space(2)
    fam = generate_family(mm)  # default count 2n
    assert len(fam) == 2 * mm.n
    assert set(fam.tags) == {"distance-to-point", "negative-distance-from-point"}
    for p in range(mm.n):
        assert np.array_equal(fam.values[p], mm.dist[p, :])
        assert np.array_equal(fam.values[mm.n + p], -mm.dist[:, p])


def test_generate_family_deterministic_and_certified():
    mm = random_mm_space(3)
    a = generate_family(mm, count=2 * mm.n + 5, seed=42)
    b = generate_family(mm, count=2 * mm.n + 5, seed=42)
    assert np.array_equal(a.values, b.values)
    assert all(lipschitz_constant(mm.space, f) <= 1 + 1e-10 for f in a.values)
    assert a.tags.count("inf-convolution") == 5


def test_generate_family_count_too_small():
    mm = random_mm_space(4)
    with pytest.raises(ValueError):
        generate_family(mm, count=2 * mm.n - 1)


def test_scalar_field_validation():
    with pytest.raises(ValueError):
        ScalarField(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        ScalarField(np.zeros((2, 2)))


def test_lipschitz_constants_are_the_largest_ascending_slopes():
    cases = []
    for seed in range(40):
        mm = random_mm_space(seed)
        raw = np.random.default_rng(seed).normal(size=(5, mm.n))
        cases.append((mm, np.concatenate([generate_family(mm, 2 * mm.n + 8, seed).values, raw])))
    for name in ("t2", "g1"):
        mm = build_space(catalog_entry(name))
        cases.append((mm, generate_family(mm, 2 * mm.n + 8).values))
    for mm, rows in cases:
        slopes = np.array([dual_slope(mm, f).max() for f in rows])
        assert np.array_equal(_lipschitz_constants(mm.dist, rows), slopes)


def test_slopes_on_signed_zeros_and_ties_match_the_plain_loop():
    # fields of +0.0, -0.0 and tied values, so that quotients of -0.0, +0.0
    # and ties meet the unfilled diagonal's +0.0 and the zero floor; the
    # slopes must equal the plain loop's in every bit, the sign of zero too
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        dist = rng.integers(1, 4, (n, n)).astype(float)
        np.fill_diagonal(dist, 0.0)
        F = rng.choice([0.0, -0.0, -1.0, 1.0, 0.5], size=(3, n))
        got = _slopes(_positive(dist), F)
        for f, row in zip(F, got):
            assert row.tobytes() == slopes_plain(dist, f).tobytes(), trial
            assert row.tobytes() == _slopes(_positive(dist), f).tobytes(), trial
