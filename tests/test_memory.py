"""Peak memory of the subset-row scans, of family certification and of the
first eigenvalue: the RSS of a fresh interpreter, and the traced
allocations of one call.

``ru_maxrss`` is a process's high-water mark, so every RSS measurement runs
in its own subprocess.  Linux carries the mark across exec: a child started
straight from the test process would report at least the test process's
own peak, so a small launcher interpreter starts the measured one.  The
peak includes the interpreter, numpy and the space itself: about 38 MB
before the scan on a 2-core x86-64 Linux VM (Python 3.11, numpy 2.4; 43 MB
with t2 at resolution 16 built), and about 66 MB while the package
imported scipy for its shortest paths.  On that machine the scans peaked at
49 MB (family profile of t2, which keeps the family's sort orders and
deviations) and 45 MB (enlargement check on g1) with the family certified
one row's (n, n) quotients at a time and the enlargement rows sorted one
direction at a time; at 52 MB and 47 MB with (rows, n, n) blocks and both
directions sorted at once; and at 584 MB and 181 MB when every row was
built at once (both with scipy loaded).  The full suite on a random
n = 16 space peaked at 73 MB with each exact reader building the rows of
its 65535 subsets off one bit-code lattice, 17 MB at n = 16, and sorting
them a block at a time.
It peaked at 102 MB when one run shared every subset's sorted rows,
weights and prefix masses; with scipy loaded, at 99 MB when the run shared
only the rows and their sort order, and at 147 MB when the exact profile,
the tail envelope and the transfer check each built them by min-plus
products and the envelope kept every row's tops.  Sampled validation of a
1024-point matrix, the check ``io.load_space`` makes above 2000 points,
peaked at 70 MB with its triples drawn in blocks (89 MB in an earlier
measurement on the same VM), against 556 MB (with scipy) when all 10 n^2
were drawn at once.  ``first_eigenvalue`` on g1 at resolution 128, its
oracle start from LAPACK, peaked at 40.7 MB (39.6 MB while a forked child
ran the Jacobi oracle, the child itself at 26.6 MB), and ``run_verify``
with every section on g1 at resolution 128 at 45.7 MB (45.6 MB, the child
at 25.4 MB).  Each bound is the peak measured without scipy plus
about 40 MB of headroom.  The same code reads up to about 1.5 MB apart
from one checkout directory to another, through the allocation layout.

The traced tests read the tracemalloc peak of one call in process, which
counts numpy's allocations and nothing of the interpreter: 0.9 MB and
3.8 MB for the default families of g1 and t2 (9.4 MB and 11.3 MB with the
family certified in (rows, n, n) blocks) and 3.5 MB for the enlargement
check on g1 (5.0 MB with both directions sorted at once).  Each bound
lies between the two.
"""
import os
import subprocess
import sys
import textwrap
import tracemalloc

from ccmm import build_space, catalog_entry
from ccmm.isoperimetry import mesh_scale, profile_enlargement_check
from ccmm.lipschitz import generate_family
from ccmm.quasimetric import breakpoint_radii

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

T2_FAMILY_PROFILE_MB = 92      # measured 49.1 MB (75.7 MB with scipy)
G1_ENLARGEMENT_CHECK_MB = 87   # measured 44.6 MB (71.2 MB with scipy)
N16_VERIFY_MB = 113            # measured 73.1 MB (101.9 MB with shared sorted rows)
SAMPLED_VALIDATE_MB = 110      # measured 69.9 MB (97.2 MB with scipy)
G1_EIGENVALUE_MB = 81          # measured 40.7 MB
G1_VERIFY_MB = 86              # measured 45.7 MB

G1_FAMILY_TRACED_MB = 3          # measured 0.9 MB (9.4 MB in blocks)
T2_FAMILY_TRACED_MB = 6          # measured 3.8 MB (11.3 MB in blocks)
G1_ENLARGEMENT_TRACED_MB = 4.25  # measured 3.5 MB (5.0 MB both directions at once)

LAUNCH = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"


def peak_rss_mb(body: str) -> float:
    """Peak RSS, in MB, of a fresh interpreter that runs ``body``."""
    code = textwrap.dedent(body) + textwrap.dedent("""
        import resource
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", LAUNCH, code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024  # Linux reports kilobytes


def test_family_profile_peak_rss():
    peak = peak_rss_mb("""
        from ccmm import alpha_profile, build_space, catalog_entry
        alpha_profile(build_space(catalog_entry("t2"), resolution=16), "family")
        """)
    assert peak <= T2_FAMILY_PROFILE_MB, peak


def test_enlargement_check_peak_rss():
    peak = peak_rss_mb("""
        from ccmm import build_space, catalog_entry
        from ccmm.isoperimetry import mesh_scale, profile_enlargement_check
        from ccmm.lipschitz import generate_family
        from ccmm.quasimetric import breakpoint_radii

        entry = catalog_entry("g1")
        mm = build_space(entry, resolution=128)
        scale = mesh_scale(mm)
        rs = breakpoint_radii(mm.space)
        rs = rs[rs > scale][::24]
        family = generate_family(mm, count=2 * mm.n + 8, seed=0)
        rep = profile_enlargement_check(mm, scale, rs, K=entry.certified["K"], family=family)
        assert rep.subsets.startswith("family (strided to ")
        """)
    assert peak <= G1_ENLARGEMENT_CHECK_MB, peak


def test_verify_all_on_sixteen_points_peak_rss():
    peak = peak_rss_mb("""
        from ccmm import random_mm_space, run_verify
        from ccmm.verify import SECTIONS
        run_verify(random_mm_space(0, n_low=16, n_high=16), sections=sorted(SECTIONS))
        """)
    assert peak <= N16_VERIFY_MB, peak


def test_first_eigenvalue_peak_rss():
    peak = peak_rss_mb("""
        from ccmm import build_space, catalog_entry, first_eigenvalue
        first_eigenvalue(build_space(catalog_entry("g1"), resolution=128), restarts=8)
        """)
    assert peak <= G1_EIGENVALUE_MB, peak


def test_verify_all_on_g1_peak_rss():
    peak = peak_rss_mb("""
        from ccmm import build_space, catalog_entry, run_verify
        from ccmm.verify import SECTIONS
        entry = catalog_entry("g1")
        run_verify(build_space(entry, resolution=128), sections=sorted(SECTIONS),
                   certified=entry.certified)
        """)
    assert peak <= G1_VERIFY_MB, peak


def test_sampled_validation_peak_rss():
    peak = peak_rss_mb("""
        from ccmm.quasimetric import QuasiMetricSpace, random_mm_space, validate
        d = random_mm_space(0, n_low=1024, n_high=1024).dist
        assert isinstance(validate(d, rel_tol=1e-12, sampled=True), QuasiMetricSpace)
        """)
    assert peak <= SAMPLED_VALIDATE_MB, peak


def traced_peak_mb(run) -> float:
    """The tracemalloc peak, in MB, of the allocations ``run()`` makes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_family_certification_traced_peak():
    g1 = build_space(catalog_entry("g1"), resolution=128)
    t2 = build_space(catalog_entry("t2"), resolution=16)
    peak = traced_peak_mb(lambda: generate_family(g1))
    assert peak <= G1_FAMILY_TRACED_MB, peak
    peak = traced_peak_mb(lambda: generate_family(t2))
    assert peak <= T2_FAMILY_TRACED_MB, peak


def test_enlargement_check_traced_peak():
    entry = catalog_entry("g1")
    mm = build_space(entry, resolution=128)
    scale = mesh_scale(mm)
    rs = breakpoint_radii(mm.space)
    rs = rs[rs > scale][::24]
    family = generate_family(mm, count=2 * mm.n + 8, seed=0)
    peak = traced_peak_mb(lambda: profile_enlargement_check(
        mm, scale, rs, K=entry.certified["K"], family=family))
    assert peak <= G1_ENLARGEMENT_TRACED_MB, peak
