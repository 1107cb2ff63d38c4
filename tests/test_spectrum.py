"""Slopes, Rayleigh quotients, the Jacobi oracle, the descent, the bounds.

The in-place Jacobi solver, the vectorized subgradient and every row of the
batched descent are pinned bit for bit to the plain loops of
``tests/oracles.py``, and concurrent ``first_eigenvalue`` calls must equal
serial ones exactly.
"""
import math
import os
import platform
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import ccmm
from ccmm.finsler import build_space, catalog_entry
from ccmm.quasimetric import (
    MetricMeasureSpace,
    ProbabilityMeasure,
    QuasiMetricSpace,
    from_digraph,
    random_mm_space,
    validate,
)
from ccmm.spectrum import (
    ChengInputs,
    alpha_bound_from_spectral_gap,
    cheng_upper_bound,
    dual_slope,
    first_eigenvalue,
    obsdiam_bound_from_spectral_gap,
    rayleigh_quotient,
    spectral_mass_decay_check,
    symmetric_oracle,
    symmetric_oracle_field,
)
from ccmm import quasimetric
from ccmm.lipschitz import _positive, _slopes
from ccmm.spectrum import (
    _descend,
    _jacobi_eigh,
    _oracle_matrix,
    _quotients,
    _smooth_grad,
    _subgradient,
)

from oracles import (
    descend_plain,
    jacobi_eigh_plain,
    normalized_plain,
    oracle_weights_plain,
    smooth_value_grad_plain,
    subgradient_plain,
)


def two_point_uniform():
    return MetricMeasureSpace.with_uniform(validate([[0, 1], [1, 0]]))


def cycle_mm(n, radius=1.0):
    h = 2 * math.pi * radius / n
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, h))
        edges.append(((i + 1) % n, i, h))
    return MetricMeasureSpace.with_uniform(from_digraph(edges, n))


# ---------------------------------------------------------------------------
# slopes and quotients
# ---------------------------------------------------------------------------

def test_dual_slope_examples():
    mm = two_point_uniform()
    assert dual_slope(mm, np.zeros(2), 0) == 0.0
    asym = MetricMeasureSpace.with_uniform(QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]])))
    assert dual_slope(asym, [0.0, 2.0], 0) == 2.0
    assert dual_slope(asym, [0.0, 2.0], 1) == 0.0


def test_dual_slope_of_distance_cone_bounded():
    for seed in range(8):
        mm = random_mm_space(seed)
        for p in range(mm.n):
            assert np.all(dual_slope(mm, mm.dist[p, :]) <= 1 + 1e-12)


def test_rayleigh_two_point_and_symmetry():
    mm = two_point_uniform()
    assert rayleigh_quotient(mm, [0.0, 1.0]) == 2.0
    assert rayleigh_quotient(mm, [1.0, 0.0]) == 2.0
    with pytest.raises(ValueError):
        rayleigh_quotient(mm, [4.0, 4.0])


def test_rayleigh_affine_invariance():
    for seed in range(10):
        mm = random_mm_space(seed)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=mm.n)
        base = rayleigh_quotient(mm, f)
        assert rayleigh_quotient(mm, 3.5 * f + 2.0) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# the Jacobi eigensolver and the Laplacian oracle
# ---------------------------------------------------------------------------

def test_jacobi_against_numpy():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12):
        m = rng.normal(size=(n, n))
        a = m + m.T
        vals, vecs = _jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(vals, ref, atol=1e-10 * max(1, np.abs(ref).max()))
        # residual of each eigenpair
        for k in range(n):
            assert np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-8


def oracle_matrix(mm):
    """The oracle matrix ``first_eigenvalue`` diagonalizes for its first start."""
    sym = 0.5 * (mm.dist + mm.dist.T)
    return _oracle_matrix(sym, mm.weights, 4)[0]


def catalog_oracle_matrix(cid, resolution):
    return oracle_matrix(build_space(catalog_entry(cid), resolution=resolution))


JACOBI_INPUTS = {
    "t2@4": lambda: catalog_oracle_matrix("t2", 4),
    # exactly symmetric: uniform weights scale both sides alike
    "t2@8": lambda: catalog_oracle_matrix("t2", 8),
    "g1@16": lambda: catalog_oracle_matrix("g1", 16),
    # not symmetric, and many sweeps
    "g1@64": lambda: catalog_oracle_matrix("g1", 64),
    **{f"random-{seed}": (lambda seed=seed: oracle_matrix(random_mm_space(seed)))
       for seed in range(20)},
    "1x1": lambda: np.array([[2.5]]),
    "zero": lambda: np.zeros((4, 4)),
    # theta < 0: the rotation angle takes its negative branch
    "2x2-negative": lambda: np.array([[1.0, -0.5], [-0.5, 3.0]]),
    # point 0 is already decoupled: every (0, q) rotation is skipped
    "zero-row": lambda: np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.3, 0.2],
                                  [0.0, 0.3, 2.0, 0.1], [0.0, 0.2, 0.1, 3.0]]),
}


@pytest.mark.parametrize("name", sorted(JACOBI_INPUTS))
def test_jacobi_bit_identical_to_plain_loop(name):
    a = JACOBI_INPUTS[name]()
    vals, vecs = _jacobi_eigh(a)
    ref_vals, ref_vecs = jacobi_eigh_plain(a)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


def test_oracle_weights_match_the_plain_loop_bit_for_bit():
    # seed 97's symmetrized distances include one whose square by the C
    # library's pow differs from x * x in the last bit
    for seed in range(200):
        mm = random_mm_space(seed)
        sym, w = 0.5 * (mm.dist + mm.dist.T), mm.weights
        S = oracle_weights_plain(sym, w, 4)
        S = S + S.T
        inv_sqrt = 1.0 / np.sqrt(w)
        want = (np.diag(S.sum(axis=1)) - S) * inv_sqrt[:, None] * inv_sqrt[None, :]
        B, got_inv_sqrt = _oracle_matrix(sym, w, 4)
        assert np.array_equal(B, want), seed
        assert np.array_equal(got_inv_sqrt, inv_sqrt)


def test_jacobi_random_oracle_matrices_not_bitwise_symmetric():
    # nonuniform weights make the similarity transform round differently on
    # the two sides, so the pin above covers a non-symmetric input too
    assert any(not np.array_equal(a, a.T)
               for a in (oracle_matrix(random_mm_space(seed)) for seed in range(20)))
    a = JACOBI_INPUTS["g1@64"]()
    assert not np.array_equal(a, a.T)
    a = JACOBI_INPUTS["t2@8"]()
    assert np.array_equal(a, a.T)


# Emulates an AVX2 host on an AVX-512 one: numpy's AVX-512 kernels off, and
# OpenBLAS on its Haswell kernels.
EMULATED_AVX2 = {"OPENBLAS_CORETYPE": "Haswell",
                 "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

_JACOBI_CHILD = """
import sys
import numpy as np
from ccmm.spectrum import _jacobi_eigh
with np.load(sys.argv[1]) as inputs:
    np.savez(sys.argv[2], **{name: np.concatenate([part.ravel() for part in _jacobi_eigh(a)])
                             for name, a in inputs.items()})
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="x86-64 emulation")
def test_jacobi_is_bit_identical_on_an_emulated_avx2_host(tmp_path):
    # the oracle start must not depend on the host's SIMD level or BLAS
    # kernel: only elementwise multiplies and adds may touch the pairs
    inputs = {name: make() for name, make in JACOBI_INPUTS.items()}
    inputs["t2@6"] = catalog_oracle_matrix("t2", 6)
    inputs["g1@32"] = catalog_oracle_matrix("g1", 32)
    np.savez(tmp_path / "inputs.npz", **inputs)
    src = os.path.dirname(os.path.dirname(ccmm.__file__))
    env = {**os.environ, **EMULATED_AVX2,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", _JACOBI_CHILD, str(tmp_path / "inputs.npz"),
                            str(tmp_path / "out.npz")], capture_output=True, text=True, env=env)
    if "cannot disable CPU feature" in child.stderr:
        pytest.skip("numpy keeps these CPU features in its baseline")
    assert child.returncode == 0, child.stderr
    with np.load(tmp_path / "out.npz") as out:
        for name, a in inputs.items():
            want = np.concatenate([part.ravel() for part in _jacobi_eigh(a)])
            assert out[name].tobytes() == want.tobytes(), name


def test_oracle_two_point_hand_laplacian():
    # uniform unit two-point space, k = 1: generalized gap is 4
    mm = two_point_uniform()
    assert symmetric_oracle(mm, k=1) == pytest.approx(4.0, rel=1e-10)


def test_oracle_cycle_converges_to_one():
    # discretized unit circle: the continuum gap is 1
    vals = {n: symmetric_oracle(cycle_mm(n)) for n in (16, 32, 64)}
    assert abs(vals[64] - 1.0) < 0.05
    assert abs(vals[64] - 1.0) <= abs(vals[16] - 1.0) + 1e-12


def test_oracle_two_clusters_near_zero():
    d = np.full((6, 6), 10.0)
    for i in range(3):
        for j in range(3):
            d[i, j] = abs(i - j) * 0.1
            d[3 + i, 3 + j] = abs(i - j) * 0.1
    np.fill_diagonal(d, 0.0)
    mm = MetricMeasureSpace.with_uniform(validate(d))
    assert symmetric_oracle(mm) < 0.05


def test_oracle_rejects_asymmetric():
    asym = MetricMeasureSpace.with_uniform(QuasiMetricSpace(np.array([[0.0, 1.0], [3.0, 0.0]])))
    with pytest.raises(ValueError):
        symmetric_oracle(asym)


# ---------------------------------------------------------------------------
# the descent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("T", [1e-1, 1e-3, 1e-6])
def test_smooth_value_grad_bit_identical_to_temporaries(T):
    # three rows at once, each at its own temperature, and each row alone
    spaces = [build_space(catalog_entry("t2"), resolution=4)] + \
        [random_mm_space(seed) for seed in range(8)]
    temps = T * np.array([1.0, 3.0, 0.5])
    for mm in spaces:
        F = np.random.default_rng(mm.n).normal(size=(3, mm.n))
        invd = 1.0 / _positive(mm.dist)
        buf = np.empty((3, mm.n, mm.n))
        grads = _smooth_grad(invd, mm.weights, F, temps, buf)
        for f, t, grad in zip(F, temps, grads):
            _, ref_grad = smooth_value_grad_plain(mm.dist, mm.weights, f, t)
            assert np.array_equal(grad, ref_grad)
            alone = _smooth_grad(invd, mm.weights, f[None], np.array([t]), buf)
            assert np.array_equal(alone[0], ref_grad)


def test_quotients_refuse_a_buffer_with_no_flat_view():
    # the diagonal is written through a view of the flattened buffer; a
    # buffer that only a copy could flatten raises rather than lose it
    F = np.array([[0.0, 1.0, 3.0]])
    invd = 1.0 / _positive(np.ones((3, 3)) - np.eye(3))
    q = _quotients(invd, F, np.empty((2, 3, 3)))
    assert np.diag(q[0]).tolist() == [-np.inf] * 3
    with pytest.raises(ValueError):
        _quotients(invd, F, np.empty((2, 3, 3)).transpose(0, 2, 1))


def test_subgradient_bit_identical_to_plain_loop():
    shared = 0
    for seed in range(12):
        mm = random_mm_space(seed)
        rng = np.random.default_rng(seed)
        peak = np.zeros(mm.n)
        peak[seed % mm.n] = 10.0 * float(mm.dist.max())
        F = np.array([peak, peak + rng.normal(size=mm.n), rng.normal(size=mm.n),
                      mm.dist[0, :], -mm.dist[:, 1]])
        dpos = _positive(mm.dist)
        buf = np.empty((len(F), mm.n, mm.n))
        grads = _subgradient(1.0 / dpos, mm.weights, F, buf)
        for f, got in zip(F, grads):
            want = subgradient_plain(mm.dist, mm.weights, f)
            assert np.array_equal(got, want)
            assert np.array_equal(_subgradient(1.0 / dpos, mm.weights, f[None], buf)[0], want)
            q = (f[None, :] - f[:, None]) / dpos
            np.fill_diagonal(q, -np.inf)
            active = q.max(axis=1) > 0
            shared += np.bincount(q.argmax(axis=1)[active], minlength=mm.n).max() >= 2
    # most fields send several points to one argmax target, where the
    # accumulation order decides the last bits
    assert shared >= 30


def _descent_spaces():
    return [random_mm_space(seed) for seed in range(20)] + \
        [build_space(catalog_entry("t2"), resolution=4),
         build_space(catalog_entry("g1"), resolution=16)]


def _stalling_start(mm):
    """A measure with one massless point and a start whose first candidate
    leaves the unit-variance sphere: the start's tiny variance blows the
    massless point up to a value whose square overflows, so the candidate's
    variance is 0 * inf."""
    w = mm.weights.copy()
    w[-1] = 0.0
    w /= w.sum()
    f0 = 1e-8 * mm.dist[0, :]
    f0[-1] = 1e150
    return w, f0


def test_descent_rows_bit_identical_to_plain_loop():
    checked = 0
    for mm in _descent_spaces():
        n = mm.n
        rng = np.random.default_rng(n)
        dpos = _positive(mm.dist)
        invd = 1.0 / dpos
        w_stall, stall = _stalling_start(mm)
        cases = [
            # random fields, a constant field (no start), two distance cones
            (mm.weights, np.vstack([rng.normal(size=(4, n)), np.full((1, n), 0.3),
                                    mm.dist[1, :], -mm.dist[:, 0]])),
            # the stalling start between two ordinary ones
            (w_stall, np.vstack([mm.dist[0, :], stall, rng.uniform(size=n)])),
        ]
        for w, F0 in cases:
            # the stalling start overflows on purpose, in both descents
            with np.errstate(over="ignore", invalid="ignore"):
                vals, fields = _descend(dpos, invd, w, F0, np.empty((len(F0), n, n)))
                want = [descend_plain(mm.dist, w, f0) for f0 in F0]
            for val, field, (want_val, want_field) in zip(vals, fields, want):
                assert val == want_val
                assert np.array_equal(field, want_field)
                checked += 1
        # the stalling start does stall on its first candidate
        f = normalized_plain(stall, w_stall)
        T = 0.1 * float(_slopes(dpos, f).max())
        with np.errstate(over="ignore", invalid="ignore"):
            _, grad = smooth_value_grad_plain(mm.dist, w_stall, f, T)
            gmax = float(np.max(np.abs(grad)))
            assert 0.0 < gmax < math.inf
            assert normalized_plain(f - 0.25 * (grad / gmax), w_stall) is None
        assert np.array_equal(fields[1], f)
    assert checked == 22 * 10


@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_first_eigenvalue_blocks_match_one_block(monkeypatch, rows_per_block):
    spaces = [random_mm_space(3), random_mm_space(11),
              build_space(catalog_entry("t2"), resolution=4),
              build_space(catalog_entry("g1"), resolution=16)]
    whole = [first_eigenvalue(mm, restarts=8, seed=1) for mm in spaces]
    for mm, want in zip(spaces, whole):
        monkeypatch.setattr(quasimetric, "_ROW_BUDGET", rows_per_block * 8 * mm.n ** 2)
        got = first_eigenvalue(mm, restarts=8, seed=1)
        assert got.value == want.value
        assert np.array_equal(got.certificate.values, want.certificate.values)


def test_descent_raises_no_floating_point_warning():
    # rows that left their stage, or never started, are still computed on
    # at every step: none of them may overflow or divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(40):
            mm = random_mm_space(seed)
            first_eigenvalue(mm, restarts=8, seed=seed)
            # a constant and a zero field, which cannot start, beside a cone
            F0 = np.vstack([np.full(mm.n, 0.3), np.zeros(mm.n), mm.dist[0]])
            dpos = _positive(mm.dist)
            _descend(dpos, 1.0 / dpos, mm.weights, F0, np.empty((len(F0), mm.n, mm.n)))


def test_first_eigenvalue_needs_two_points_of_mass():
    atom = MetricMeasureSpace(validate([[0, 1], [2, 0]]), ProbabilityMeasure([1.0, 0.0]))
    with pytest.raises(ValueError, match="two points of positive mass"):
        first_eigenvalue(atom)


def test_first_eigenvalue_concurrent_calls_match_serial():
    # the descent's scratch buffers belong to one call: three threads on
    # three spaces, switching often, must each get the serial result
    spaces = [build_space(catalog_entry("g1"), resolution=32),
              build_space(catalog_entry("t2"), resolution=5), random_mm_space(7)]
    serial = [first_eigenvalue(mm, restarts=4, seed=2) for mm in spaces]
    results = [None] * len(spaces)
    barrier = threading.Barrier(len(spaces), timeout=60)

    def run(i):
        barrier.wait()
        results[i] = first_eigenvalue(spaces[i], restarts=4, seed=2)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(spaces))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got.value == want.value
        assert np.array_equal(got.certificate.values, want.certificate.values)


def test_first_eigenvalue_two_point_exact():
    est = first_eigenvalue(two_point_uniform(), restarts=4, seed=0)
    assert est.value == pytest.approx(2.0, rel=1e-9)
    assert rayleigh_quotient(two_point_uniform(), est.certificate) == \
        pytest.approx(est.value, rel=1e-10)


def test_first_eigenvalue_reproducible():
    mm = random_mm_space(8)
    a = first_eigenvalue(mm, restarts=6, seed=3)
    b = first_eigenvalue(mm, restarts=6, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.certificate.values, b.certificate.values)


def test_first_eigenvalue_below_oracle_quotient():
    mm = cycle_mm(24)
    vec = symmetric_oracle_field(mm)
    est = first_eigenvalue(mm, restarts=8, seed=0)
    assert est.value <= rayleigh_quotient(mm, vec) * 1.0001


def test_first_eigenvalue_scaling_covariance():
    mm = random_mm_space(12)
    est = first_eigenvalue(mm, restarts=6, seed=1)
    scaled = MetricMeasureSpace(QuasiMetricSpace(2.0 * mm.dist), mm.measure)
    est2 = first_eigenvalue(scaled, restarts=6, seed=1)
    assert est2.value == pytest.approx(est.value / 4.0, rel=1e-8)


# ---------------------------------------------------------------------------
# spectral bounds and the mass-decay recursion
# ---------------------------------------------------------------------------

def test_alpha_bound_from_gap_values():
    r_star = math.sqrt(2.0) / (math.sqrt(4.0) * math.log(2.0))
    assert alpha_bound_from_spectral_gap(4.0, r_star) == pytest.approx(1 / math.e, rel=1e-12)
    assert alpha_bound_from_spectral_gap(1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    a = alpha_bound_from_spectral_gap(1.0, 1.3)
    b = alpha_bound_from_spectral_gap(4.0, 1.3)
    assert b == pytest.approx(a ** 2, rel=1e-12)


def test_decay_check_full_space_trivial():
    mm = random_mm_space(6)
    rep = spectral_mass_decay_check(mm, list(range(mm.n)), 0.5)
    assert rep.passed
    assert rep.steps[0].b == 0.0
    assert rep.terminated == "complement exhausted"


def test_decay_check_two_point_at_canonical_epsilon():
    # lambda = 2 on this space, so eps = sqrt(2/lambda) = 1; the closed
    # enlargement reaches everything in one step and halving holds trivially
    mm = two_point_uniform()
    rep = spectral_mass_decay_check(mm, [0], 1.0)
    assert rep.passed
    assert rep.steps[0].b == 0.0


def test_decay_check_halving_factor():
    # with lambda_f eps^2 = 2 and a_k >= 1/2 the per-step factor is <= 1/2
    mm = two_point_uniform()
    rep = spectral_mass_decay_check(mm, [0], 1.0)
    for s in rep.steps:
        if not math.isnan(s.lambda_f):
            assert s.bound <= 0.5 * (1.0 - s.a) + 1e-12


def test_decay_check_known_discrete_counterexample():
    # the recursion with the measured test-function quotient fails on the
    # two-point space below the diameter: the discrete slope of the test
    # function does not vanish on the far set, unlike its continuum gradient
    mm = two_point_uniform()
    rep = spectral_mass_decay_check(mm, [0], 0.5)
    assert not rep.passed
    step = rep.steps[0]
    assert step.lambda_f == pytest.approx(2.0, rel=1e-12)
    assert step.bound == pytest.approx(0.4, rel=1e-12)
    assert step.b == 0.5


def test_decay_check_input_validation():
    from ccmm.quasimetric import ProbabilityMeasure
    mm = MetricMeasureSpace(validate([[0, 1], [1, 0]]), ProbabilityMeasure([0.7, 0.3]))
    with pytest.raises(ValueError, match="mass at least"):
        spectral_mass_decay_check(mm, [1], 0.5)
    with pytest.raises(ValueError):
        spectral_mass_decay_check(mm, [], 0.5)
    with pytest.raises(ValueError):
        spectral_mass_decay_check(mm, [0], -1.0)


def test_decay_check_accepts_half_mass_up_to_rounding():
    # a start set whose mass sums to 1/2 only up to rounding of the measure
    # sum is a half-mass set; mass 0.3 above stays rejected
    from ccmm.quasimetric import ProbabilityMeasure
    a0 = 0.5 - 1e-16
    assert a0 < 0.5
    mm = MetricMeasureSpace(validate([[0, 1], [1, 0]]), ProbabilityMeasure([a0, 1.0 - a0]))
    rep = spectral_mass_decay_check(mm, [0], 1.0)
    assert rep.steps[0].a == a0
    assert rep.passed


# ---------------------------------------------------------------------------
# the diameter bound
# ---------------------------------------------------------------------------

def test_cheng_bound_values():
    assert cheng_upper_bound(ChengInputs(2, 0.0, 0.0, 1.0)) == pytest.approx(4608.0)
    # K = 0 closed form: max(128 n^2, 1152 n^2) / D^2
    for n in (2, 3, 5):
        got = cheng_upper_bound(ChengInputs(n, 0.0, 0.0, 2.0))
        assert got == pytest.approx(1152.0 * n * n / 4.0, rel=1e-12)


def test_cheng_bound_monotonicity():
    base = cheng_upper_bound(ChengInputs(2, 0.0, 0.0, 1.0))
    assert cheng_upper_bound(ChengInputs(2, 0.5, 0.0, 1.0)) > base
    assert cheng_upper_bound(ChengInputs(2, 0.0, -1.0, 1.0)) > base
    assert cheng_upper_bound(ChengInputs(3, 0.0, 0.0, 1.0)) > base
    with pytest.raises(ValueError):
        ChengInputs(1, 0.0, 0.0, 1.0)


def test_gap_obsdiam_bound_values():
    assert obsdiam_bound_from_spectral_gap(1.0, 2 / math.e) == pytest.approx(
        2 * math.sqrt(2) / math.log(2), rel=1e-12)
    assert obsdiam_bound_from_spectral_gap(1.0, 0.9) > 2 * math.sqrt(2) - 1e-12
    assert obsdiam_bound_from_spectral_gap(4.0, 0.3) == pytest.approx(
        obsdiam_bound_from_spectral_gap(1.0, 0.3) / 2.0, rel=1e-12)
