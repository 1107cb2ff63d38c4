"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The 200-space random suite (seeds 0..199, 3 <= n <= 12) is built once and
shared; criterion budgets cover the work attributed to each criterion, not
the shared setup of others.  Criterion 1's timed work runs once per process
through a cached helper, so the 60 s budget of criterion 1 plus its
mass-decay clause 1b covers the same work in any test order.

Two clauses check statements that hold on finite spaces rather than their
continuum templates (the analysis lives in the tests' docstrings): 1b
checks the mass-decay report against a plain-loop chain and counts, rather
than forbids, violations of the continuum recursion, since the discrete
slope does not vanish on the far set; 4b compares the descent with an
independent search of the slope quotient, since the oracle eigenvector is a
Laplacian mode, not a minimiser of that quotient.
"""
import math
import time

import numpy as np
import pytest

from ccmm.concentration import (
    VERDICT_TOL,
    alpha_profile,
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
)
from ccmm.finsler import build_space, catalog_entry
from ccmm.isoperimetry import gaussian_phi, normal_concentration_bound
from ccmm.lipschitz import generate_family
from ccmm.observable import (
    observable_diameter,
    obsdiam_bound_exponential,
    obsdiam_bound_normal,
    obsdiam_vs_alpha_check,
)
from ccmm.quasimetric import MetricMeasureSpace, QuasiMetricSpace, from_digraph, random_mm_space
from ccmm.spectrum import (
    ChengInputs,
    cheng_upper_bound,
    first_eigenvalue,
    rayleigh_quotient,
    spectral_mass_decay_check,
    symmetric_oracle_field,
)
from oracles import mass_decay_chain_bruteforce, symmetric_slope_quotient_minimum

SEEDS = range(200)
EPS_GRID = [k / 10 for k in range(1, 10)]

_CACHE: dict = {}


def suite_spaces():
    """The shared 200-space suite with families and exact profiles."""
    if "spaces" not in _CACHE:
        t0 = time.perf_counter()
        rows = []
        for seed in SEEDS:
            mm = random_mm_space(seed)
            fam = generate_family(mm, count=2 * mm.n + 8, seed=seed)
            prof = alpha_profile(mm, "exact")
            rows.append((seed, mm, fam, prof))
        _CACHE["spaces"] = rows
        _CACHE["setup_seconds"] = time.perf_counter() - t0
    return _CACHE["spaces"]


def _line(tag: str, ok: bool, detail: str = "") -> bool:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# criterion 1: exact finite-space theorem suite on 200 random spaces
# ---------------------------------------------------------------------------

def criterion1_run():
    """Criterion 1's timed work, run once per process.

    Returns the failures and the seconds spent, the shared suite setup
    included, so that every clause gated on criterion 1's budget measures
    the same work whichever test runs first.
    """
    if "crit1" not in _CACHE:
        rows = suite_spaces()
        t0 = time.perf_counter()
        failures = []
        for seed, mm, fam, prof in rows:
            for f in fam:
                rep = deviation_check(mm, f, prof)
                if not rep.passed:
                    failures.append((seed, "median-deviation"))
                    break
            beta = tail_envelope(mm, family=fam)
            transfer = enlargement_check_from_tail_bound(mm, beta, family=fam)
            if not (transfer.hypothesis_ok and transfer.passed):
                failures.append((seed, "tail-transfer"))
            if not obsdiam_vs_alpha_check(mm, EPS_GRID, family=fam, profile=prof).passed:
                failures.append((seed, "obsdiam-vs-alpha"))
        elapsed = time.perf_counter() - t0 + _CACHE["setup_seconds"]
        _CACHE["crit1"] = (failures, elapsed)
    return _CACHE["crit1"]


def test_criterion1_exact_theorem_suite():
    failures, elapsed = criterion1_run()
    ok = not failures and elapsed < 60.0
    _line("1 (exact theorem suite, 200 spaces)", ok,
          f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"criterion 1 budget exceeded: {elapsed:.1f}s"


def test_criterion1_mass_decay_recursion():
    """The two-set recursion along the enlargement chain, on finite spaces.

    The chain enlarges a minimal half-mass set at the step the proof itself
    uses (epsilon with lambda eps^2 = 2).  Every step of the report must
    agree with a plain-loop recomputation of the chain.  The continuum form
    b_k <= (1 - a_k) / (1 + lambda_f eps^2 a_k) with the full test-function
    quotient is not a theorem here: the continuum proof uses that the test
    function's gradient vanishes on the far set, while its discrete
    ascending slope does not (the two-point space at radii below the
    diameter is already a counterexample), so its violations are counted,
    not asserted away.  What holds on any finite quasi-metric space is the
    same inequality with lambda_f replaced by the quotient whose numerator
    counts only the band A_{k+1} minus A_k: there the slope is at most
    (1/a + 1/b) / eps, and the variance is at least 1/a + 1/b.  The report
    does not carry that quotient, so the band form is asserted on the plain
    loop's own numbers: a consistency check of the recomputation, while the
    program is checked by the step-by-step agreement.
    """
    rows = suite_spaces()
    _, crit1_seconds = criterion1_run()
    t0 = time.perf_counter()
    chains = []
    for seed, mm, fam, prof in rows:
        lam = first_eigenvalue(mm, restarts=4, seed=seed).value
        eps = math.sqrt(2.0 / lam)
        order = np.argsort(mm.dist[0], kind="stable")
        cum = np.cumsum(mm.weights[order])
        k = int(np.searchsorted(cum, 0.5, side="left"))
        A = sorted(int(i) for i in order[: k + 1])
        chains.append((seed, mm, A, eps, spectral_mass_decay_check(mm, A, eps)))
    total = crit1_seconds + time.perf_counter() - t0

    mismatches = []
    recursion_failures = []
    continuum_violations = []
    worst = math.inf
    for seed, mm, A, eps, rep in chains:
        steps, terminated = mass_decay_chain_bruteforce(mm, A, eps)
        if not rep.passed:
            continuum_violations.append(seed)
        if (len(rep.steps) != len(steps) or rep.terminated != terminated
                or rep.passed != all(o["margin"] >= -VERDICT_TOL for o in steps)):
            mismatches.append((seed, "chain"))
            continue
        for s, o in zip(rep.steps, steps):
            same = (abs(s.a - o["a"]) <= 1e-12 and abs(s.b - o["b"]) <= 1e-12
                    and math.isclose(s.bound, o["bound"], rel_tol=1e-9, abs_tol=1e-12)
                    and abs(s.margin - o["margin"]) <= 1e-9
                    and (s.margin >= -VERDICT_TOL) == (o["margin"] >= -VERDICT_TOL))
            if math.isnan(o["lambda_f"]):
                same = same and math.isnan(s.lambda_f)
            else:
                same = same and abs(s.lambda_f - o["lambda_f"]) <= 1e-9 * o["lambda_f"]
            if not same:
                mismatches.append((seed, s.k))
            if s.b > 0.0:
                bound = (1.0 - s.a) / (1.0 + o["lambda_band"] * eps * eps * s.a)
                worst = min(worst, bound - s.b)
                if bound - s.b < -VERDICT_TOL:
                    recursion_failures.append((seed, s.k, round(bound - s.b, 4)))
    ok = not mismatches and not recursion_failures and total < 60.0
    _line("1b (mass-decay recursion, 200 spaces)", ok,
          f"worst band-form margin {worst:+.4f}, "
          f"{len(continuum_violations)} continuum-form violations "
          f"(seeds {continuum_violations}), criterion total {total:.1f}s")
    assert total < 60.0, f"criterion 1 budget exceeded: {total:.1f}s"
    assert not mismatches, f"report disagrees with the plain-loop chain: {mismatches}"
    assert not recursion_failures, (
        f"finite-space recursion violated: {recursion_failures}")


# ---------------------------------------------------------------------------
# criterion 2: constants pipeline
# ---------------------------------------------------------------------------

def test_criterion2_constants_pipeline():
    rows = suite_spaces()
    t0 = time.perf_counter()
    ok = True
    # hand-derived values, 1e-9 relative
    C1, kap1, cf1 = median_to_mean_tail_constants(1.0, 1.0, 1.0)
    ok &= abs(C1 - math.e) / math.e < 1e-9 and kap1 == 1.0 and abs(cf1 - 1) < 1e-9
    _, kap2, cf2 = median_to_mean_tail_constants(1.0, 1.0, 2.0)
    ok &= kap2 == 0.5 and abs(cf2 - 0.8862269254527580) < 1e-9
    C2f, c2f = normal_equivalence_constants("forward", 0.5, 2.0)
    ok &= abs(C2f - 2.1932800507380155) / 2.1932800507380155 < 1e-9 and c2f == 1.0
    ok &= normal_equivalence_constants("backward", 1.0, 4.0) == (1.0, 1.0)
    v = moment_bound_from_normal_tails(1.0, 1.0, 1.0)
    ok &= abs(v - 1.6668046219284187) / 1.6668046219284187 < 1e-9
    ok &= abs(moment_bound_from_normal_tails(1.0, 1.0, 4.0) - 2 * v) < 1e-9
    reg, b = tail_bound_from_square_moments(math.e, 1.0)
    ok &= abs(b - 0.6065306597126334) < 1e-9
    _, b = tail_bound_from_square_moments(math.e, 2.0)
    ok &= abs(b - 0.1353352832366127) < 1e-9
    reg, b = tail_bound_from_square_moments(math.e, 0.5)
    ok &= reg == "linear" and abs(b - 1.2130613194252668) < 1e-9
    ok &= abs(tail_bound_from_first_moment(16.0, 4.0, 2.0) - 0.25) < 1e-9
    ok &= abs(tail_bound_from_first_moment(4.0, 2.0, 1.0) - 0.5) < 1e-9

    # end-to-end chain on every suite space
    chain_failures = []
    for seed, mm, fam, prof in rows:
        fit = fit_profile(prof, "normal")
        assert fit.certified
        C2, c2 = normal_equivalence_constants("forward", fit.C, fit.c)
        for q in (1.0, 2.0, 4.0, 8.0):
            bound = moment_bound_from_normal_tails(C2, c2, q)
            worst = max(moment_norm(mm, f, q) for f in fam)
            if worst > bound * (1 + 1e-9):
                chain_failures.append((seed, q))
    elapsed = time.perf_counter() - t0
    ok = ok and not chain_failures and elapsed < 5.0
    _line("2 (constants pipeline)", ok, f"{elapsed:.2f}s")
    assert ok, (chain_failures, elapsed)


# ---------------------------------------------------------------------------
# criterion 3: Gaussian concentration on the weighted line
# ---------------------------------------------------------------------------

def test_criterion3_gaussian_line_trend():
    t0 = time.perf_counter()
    entry = catalog_entry("g1")
    slacks = {}
    for res in (64, 128, 256):
        mm = build_space(entry, resolution=res)
        prof = alpha_profile(mm, "family")
        bound = 0.5 * np.exp(-0.5 * prof.radii ** 2)
        slack = float(np.max(prof.alphas / bound - 1.0, initial=0.0))
        slacks[res] = max(slack, 0.0)
    trend_ok = slacks[64] >= slacks[128] - 1e-12 >= slacks[256] - 2e-12
    size_ok = slacks[256] <= 0.25
    # the Gaussian tail is dominated by the half-Gaussian to quadrature
    # precision, for the certified curvature constant
    K = entry.certified["K"]
    quad_ok = all(
        1.0 - gaussian_phi(math.sqrt(K) * r) <= normal_concentration_bound(K, r) + 1e-12
        for r in np.linspace(0.01, 8.0, 160))
    elapsed = time.perf_counter() - t0
    ok = trend_ok and size_ok and quad_ok and elapsed < 120.0
    _line("3 (Gaussian line, slack trend)", ok,
          f"slacks {slacks[64]:.4f} >= {slacks[128]:.4f} >= {slacks[256]:.4f}, "
          f"{elapsed:.1f}s")
    assert ok, (slacks, elapsed)


# ---------------------------------------------------------------------------
# criterion 4: eigenvalue solver on the symmetric cycle
# ---------------------------------------------------------------------------

def _cycle(n: int) -> MetricMeasureSpace:
    h = 2 * math.pi / n
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, h))
        edges.append(((i + 1) % n, i, h))
    return MetricMeasureSpace.with_uniform(from_digraph(edges, n))


def test_criterion4_scaling_and_runtime():
    mm = _cycle(64)
    t0 = time.perf_counter()
    est = first_eigenvalue(mm, restarts=32, seed=0)
    elapsed = time.perf_counter() - t0
    _CACHE["cycle_estimate"] = est
    scaled = MetricMeasureSpace(QuasiMetricSpace(2.0 * mm.dist), mm.measure)
    est2 = first_eigenvalue(scaled, restarts=32, seed=0)
    rel = abs(est2.value - est.value / 4.0) / (est.value / 4.0)
    ok = rel <= 1e-8 and elapsed < 30.0
    _line("4 (rescaling covariance and runtime)", ok,
          f"relative drift {rel:.2e}, {elapsed:.1f}s at 32 restarts")
    assert ok, (rel, elapsed)


def test_criterion4_eigen_vs_oracle_band():
    """The descent lands within 5% of an independent upper bound on the
    minimum of the slope quotient, and never loses the oracle start.

    The oracle eigenvector is a Laplacian mode, not a minimiser of the slope
    quotient: its ascending slope near the minimum is dominated by
    long-range quotients (max over t of (1 - cos t)/t = 0.7246 instead of
    the vanishing local derivative), which puts its quotient near 1.292.
    ``first_eigenvalue`` promises only an upper bound of the discrete
    infimum that is at most the oracle start's quotient, so the band is
    taken around a converged Powell search of the same quotient over fields
    symmetric about point 0, computed without ``ccmm.spectrum``.  That
    search is local, so its value bounds the minimum from above.
    """
    mm = _cycle(64)
    est = _CACHE.get("cycle_estimate") or first_eigenvalue(mm, restarts=32, seed=0)
    oracle_value = rayleigh_quotient(mm, symmetric_oracle_field(mm))
    reference = symmetric_slope_quotient_minimum(mm)
    rel = abs(est.value - reference) / reference
    upper_ok = est.value <= oracle_value * 1.0001
    ok = upper_ok and rel <= 0.05
    _line("4b (eigenvalue within 5% of an independent search)", ok,
          f"estimate {est.value:.4f} vs Powell {reference:.4f}, "
          f"gap {100 * rel:.1f}%; oracle quotient {oracle_value:.4f}")
    assert upper_ok, "the oracle start must never be lost"
    assert rel <= 0.05, (
        f"descent reaches {est.value:.4f}, {100 * rel:.1f}% from the "
        f"independent Powell value {reference:.4f}")


# ---------------------------------------------------------------------------
# criterion 5: the diameter bound on the flat torus
# ---------------------------------------------------------------------------

def test_criterion5_cheng_bound_on_torus():
    entry = catalog_entry("t2")
    mm = build_space(entry)
    t0 = time.perf_counter()
    est = first_eigenvalue(mm, restarts=32, seed=0)
    elapsed = time.perf_counter() - t0
    D = entry.certified["D"]
    product = est.value * D * D
    bound = cheng_upper_bound(ChengInputs(2, 0.0, 0.0, D)) * D * D
    # context: the analytic flat-torus value is lambda1 D^2 = 2 pi^2, the
    # first nonzero eigenvalue (2 pi / L)^2 at the half-diagonal diameter
    context = 2 * math.pi ** 2
    ok = product <= bound + 1e-9
    _line("5 (diameter bound, flat torus)", ok,
          f"lambda*D^2 = {product:.2f} <= {bound:.0f}; analytic value "
          f"{context:.2f}, {elapsed:.1f}s")
    assert bound == pytest.approx(4608.0, rel=1e-12)
    assert ok, (product, bound)


# ---------------------------------------------------------------------------
# criterion 6: observable diameter bounds
# ---------------------------------------------------------------------------

def test_criterion6_obsdiam_bounds():
    rows = suite_spaces()
    t0 = time.perf_counter()
    failures = []
    for seed, mm, fam, prof in rows:
        rep = obsdiam_vs_alpha_check(mm, EPS_GRID, family=fam, profile=prof)
        if not rep.passed:
            failures.append((seed, "vs-alpha-inverse"))
        fits = {"normal": fit_profile(prof, "normal"),
                "exponential": fit_profile(prof, "exponential")}
        for eps in EPS_GRID:
            obs = observable_diameter(mm, eps, fam).value
            if fits["normal"].certified:
                if obs > obsdiam_bound_normal(fits["normal"].C,
                                              fits["normal"].c, eps) + 1e-9:
                    failures.append((seed, "normal", eps))
            if fits["exponential"].certified:
                if obs > obsdiam_bound_exponential(fits["exponential"].C,
                                                   fits["exponential"].c, eps) + 1e-9:
                    failures.append((seed, "exponential", eps))
    elapsed = time.perf_counter() - t0
    ok = not failures
    _line("6 (observable diameter bounds)", ok,
          f"{len(failures)} failures, {elapsed:.1f}s")
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 7: byte-identical reports
# ---------------------------------------------------------------------------

def test_criterion7_determinism(tmp_path):
    import subprocess
    import sys

    from ccmm.io import save_space

    space = tmp_path / "space.json"
    save_space(random_mm_space(11), space)
    blobs = []
    for i, threads in enumerate((1, 1, 8)):
        out = tmp_path / f"rep{i}.json"
        res = subprocess.run(
            [sys.executable, "-m", "ccmm.cli", "verify", "all", str(space),
             "--seed", "4", "--threads", str(threads), "--restarts", "4",
             "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode in (0, 1), res.stderr
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _line("7 (byte-identical reports)", ok,
          f"two runs and thread counts 1/8, {len(blobs[0])} bytes")
    assert ok
