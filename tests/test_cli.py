"""End-to-end command line behavior, wire formats, determinism, exit codes."""
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ccmm import finsler
from ccmm.finsler import build_space, catalog_entry
from ccmm.io import load_profile_csv, load_space, save_space, space_hash, space_to_dict
from ccmm.quasimetric import MetricMeasureSpace, QuasiMetricSpace, random_mm_space


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "ccmm.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def space_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "space.json"
    mm = random_mm_space(7)
    save_space(mm, path)
    return path


def test_space_json_roundtrip(tmp_path):
    mm = random_mm_space(3)
    path = tmp_path / "s.json"
    save_space(mm, path)
    back = load_space(path)
    assert np.array_equal(back.dist, mm.dist)
    assert np.array_equal(back.weights, mm.weights)
    assert space_hash(back) == space_hash(mm)


def test_space_hash_is_the_hash_of_the_whole_json_text():
    spaces = [random_mm_space(seed) for seed in range(200)]
    spaces += [build_space(catalog_entry(name)) for name in ("g1", "t2", "r1")]
    spaces.append(MetricMeasureSpace.with_uniform(QuasiMetricSpace(
        [[0, 1, 2], [1, 0, 1.5], [2, 2, 0]], labels=("α", "Ω", "☃"))))
    # one row: the hash is fed no row separator
    spaces.append(MetricMeasureSpace.with_uniform(QuasiMetricSpace([[0.0]])))
    for mm in spaces:
        text = json.dumps(space_to_dict(mm), sort_keys=True)
        assert space_hash(mm) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_space_json_requires_one_of_dist_edges(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "dist": [[0, 1], [1, 0]],
                                "edges": [[0, 1, 1]], "measure": None}))
    with pytest.raises(ValueError, match="exactly one"):
        load_space(path)


def test_space_json_edges_form(tmp_path):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({
        "n": 3, "dist": None,
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 0, 1.0]],
        "measure": [0.2, 0.3, 0.5]}))
    mm = load_space(path)
    assert mm.dist[1, 0] == 2.0
    assert mm.weights.tolist() == [0.2, 0.3, 0.5]


def test_validate_command_ok(space_file):
    res = run_cli("validate", str(space_file), "--tol", "1e-12")
    assert res.returncode == 0
    assert "ok" in res.stdout


def test_validate_command_violation_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 3, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                                "edges": None, "measure": None}))
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert "triangle violation" in res.stdout


def test_verify_rejects_broken_space(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 3, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                                "edges": None, "measure": None}))
    res = run_cli("verify", "sec3", str(path))
    assert res.returncode == 2
    assert "error" in res.stderr


def test_gen_writes_loadable_space(tmp_path):
    out = tmp_path / "g1.json"
    res = run_cli("gen", "--catalog", "g1", "--resolution", "16", "--out", str(out))
    assert res.returncode == 0
    mm = load_space(out)
    assert mm.n == 16


def test_family_deterministic(tmp_path, space_file):
    count = 2 * load_space(space_file).n + 4
    out1 = tmp_path / "f1.json"
    out2 = tmp_path / "f2.json"
    for out in (out1, out2):
        res = run_cli("family", str(space_file), "--count", str(count),
                      "--seed", "5", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["count"] == count
    assert len(doc["fields"]) == count


def test_alpha_csv_roundtrip(tmp_path, space_file):
    out = tmp_path / "profile.csv"
    res = run_cli("alpha", str(space_file), "--strategy", "exact", "--out", str(out))
    assert res.returncode == 0
    header = out.read_text().splitlines()[0]
    assert header == "r,alpha,strategy"
    prof = load_profile_csv(out)
    mm = load_space(space_file)
    from ccmm.concentration import alpha_profile
    direct = alpha_profile(mm)
    assert np.array_equal(prof.radii, direct.radii)
    assert np.array_equal(prof.alphas, direct.alphas)


@pytest.mark.parametrize("strategy", ["exact", "family"])
def test_alpha_stdout_is_the_out_file(tmp_path, space_file, strategy):
    out = tmp_path / "profile.csv"
    cmd = [sys.executable, "-m", "ccmm.cli", "alpha", str(space_file), "--strategy", strategy]
    printed = subprocess.run(cmd, capture_output=True)
    written = subprocess.run(cmd + ["--out", str(out)], capture_output=True)
    assert printed.returncode == written.returncode == 0, printed.stderr + written.stderr
    assert printed.stdout == out.read_bytes()
    back_path = tmp_path / "printed.csv"
    back_path.write_bytes(printed.stdout)
    back = load_profile_csv(back_path)
    from ccmm.concentration import alpha_profile
    direct = alpha_profile(load_space(space_file), strategy=strategy, seed=0)
    assert np.array_equal(back.radii, direct.radii)
    assert np.array_equal(back.alphas, direct.alphas)
    assert back.strategy == strategy


@pytest.mark.parametrize("cid", ["g1", "r1"])
def test_alpha_default_strategy_above_16_points_is_family(cid):
    # n = 128 and 64 at the catalog resolution: exact enumeration is refused
    default, family = run_cli("alpha", cid), run_cli("alpha", cid, "--strategy", "family")
    assert default.returncode == family.returncode == 0, default.stderr + family.stderr
    assert default.stdout == family.stdout
    lines = default.stdout.splitlines()
    assert lines[0] == "r,alpha,strategy" and len(lines) > 1
    assert all(line.endswith(",family") for line in lines[1:])


def test_alpha_default_strategy_up_to_16_points_is_exact(space_file):
    default, exact = run_cli("alpha", str(space_file)), run_cli(
        "alpha", str(space_file), "--strategy", "exact")
    assert default.returncode == exact.returncode == 0, default.stderr + exact.stderr
    assert default.stdout == exact.stdout
    assert default.stdout.splitlines()[1].endswith(",exact")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [("alpha", "g1", "--strategy", "family"), ("family", "g1"),
                                  ("verify", "all", "SPACE")], ids=lambda a: a[0])
def test_stdout_closed_early_keeps_the_exit_status(space_file, args, buffered):
    args = [str(space_file) if a == "SPACE" else a for a in args]
    full = run_cli(*args)
    # a buffered stdout meets the closed pipe when flushed, an unbuffered
    # one at its first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    # stdout is a pipe nobody reads: its read end is closed before the run
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run([sys.executable, "-m", "ccmm.cli", *args], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert full.stdout and full.returncode in (0, 1), full.stderr
    assert closed.returncode == full.returncode
    assert closed.stderr == ""


def test_obsdiam_command(tmp_path, space_file):
    fam = tmp_path / "fam.json"
    run_cli("family", str(space_file), "--out", str(fam))
    out = tmp_path / "obs.json"
    res = run_cli("obsdiam", str(space_file), "--kappa", "0.4",
                  "--family", str(fam), "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["value"] >= 0
    assert doc["kappa"] == 0.4


@pytest.mark.parametrize("case, message", [
    ("not-lipschitz", "family member 0 fails 1-Lipschitz certification"),
    ("short-member", None),
    ("ragged", None),
    ("empty", "empty family"),
    ("tag-count", "one tag per field required"),
])
def test_obsdiam_family_errors_are_usage_errors(tmp_path, space_file, case, message):
    n = load_space(space_file).n
    flat = [0.0] * n
    doc = {
        "not-lipschitz": {"fields": [[0.0] * (n - 1) + [100.0]]},
        "short-member": {"fields": [flat[:-1]]},
        "ragged": {"fields": [flat, flat[:-1]]},
        "empty": {"fields": []},
        "tag-count": {"fields": [flat], "tags": ["user", "user"]},
    }[case]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc))
    res = run_cli("obsdiam", str(space_file), "--kappa", "0.4", "--family", str(fam))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    if message is not None:
        assert lines[0] == f"error: {message}"


def test_isoperim_command(tmp_path, space_file):
    out = tmp_path / "iso.csv"
    res = run_cli("isoperim", str(space_file), "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mass,content,strategy"
    assert len(lines) > 2


def test_eigen_command_deterministic(tmp_path, space_file):
    outs = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        res = run_cli("eigen", str(space_file), "--restarts", "4",
                      "--seed", "9", "--out", str(out))
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["value"] > 0


def test_verify_report_shape_and_exit(tmp_path, space_file):
    out = tmp_path / "report.json"
    res = run_cli("verify", "sec3,sec4", str(space_file), "--seed", "0",
                  "--out", str(out))
    doc = json.loads(out.read_text())
    from ccmm.verify import THEOREM_IDS
    assert list(doc["results"].keys()) == list(THEOREM_IDS)
    for tid, entry in doc["results"].items():
        assert entry["status"] in ("pass", "fail", "inconclusive", "skipped")
    sec6 = doc["results"]["thm61"]
    assert sec6["status"] == "skipped"
    statuses = {e["status"] for e in doc["results"].values()}
    assert res.returncode == (1 if "fail" in statuses else 0)
    assert doc["meta"]["seed"] == 0
    assert doc["meta"]["space_hash"]
    assert doc["meta"]["tool_version"]


def test_verify_byte_identical_across_runs_and_threads(tmp_path, space_file):
    blobs = []
    for i, threads in enumerate((1, 8, 1)):
        out = tmp_path / f"rep{i}.json"
        env = dict(os.environ)
        if i == 2:
            env["CCMM_THREADS"] = "8"
            res = run_cli("verify", "sec3,sec4,sec6", str(space_file),
                          "--seed", "3", "--out", str(out), env=env)
        else:
            res = run_cli("verify", "sec3,sec4,sec6", str(space_file),
                          "--seed", "3", "--threads", str(threads), "--out", str(out))
        assert res.returncode in (0, 1)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_catalog_target_with_cheng(tmp_path):
    out = tmp_path / "t2.json"
    res = run_cli("verify", "sec6", "t2", "--restarts", "2", "--seed", "0",
                  "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["results"]["thm63"]["status"] in ("pass", "inconclusive")
    assert res.returncode in (0, 1)


def test_export_report_csv(tmp_path, space_file):
    rep = tmp_path / "rep.json"
    run_cli("verify", "sec3", str(space_file), "--out", str(rep))
    out = tmp_path / "rep.csv"
    res = run_cli("export", str(rep), "--out", str(out))
    assert res.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theorem,status,margin,notes"
    assert len(lines) == 19  # header plus one row per suite entry


def test_unknown_target_is_usage_error():
    res = run_cli("alpha", "no-such-file.json")
    assert res.returncode == 2


def _write_space(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps({"edges": None, **doc}))
    return path


def test_verify_single_atom_space_skips_eigenvalue_entries(tmp_path):
    # two points, all the mass on one: no first eigenvalue, but a report
    path = _write_space(tmp_path, "atom.json",
                        {"n": 2, "dist": [[0, 1], [2, 0]], "measure": [1, 0]})
    res = run_cli("verify", "all", str(path))
    assert res.returncode == 0, res.stderr
    results = json.loads(res.stdout)["results"]
    from ccmm.verify import SECTIONS
    for tid, entry in results.items():
        if tid in SECTIONS["sec6"]:
            assert entry["status"] == "skipped"
            assert "two points of positive mass" in entry["notes"]
        else:
            assert "positive mass" not in entry["notes"]
    assert results["mf3"]["status"] == "pass"


def test_eigen_single_atom_space_is_usage_error(tmp_path):
    path = _write_space(tmp_path, "atom.json",
                        {"n": 2, "dist": [[0, 1], [2, 0]], "measure": [1, 0]})
    res = run_cli("eigen", str(path))
    assert res.returncode == 2
    assert "error: " in res.stderr and "two points of positive mass" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_one_point_space_all_skipped(tmp_path):
    path = _write_space(tmp_path, "one.json", {"n": 1, "dist": [[0]], "measure": [1]})
    res = run_cli("verify", "all", str(path))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["meta"]["n"] == 1
    assert {e["status"] for e in doc["results"].values()} == {"skipped"}


def test_alpha_one_point_space_is_zero_at_every_radius(tmp_path):
    path = _write_space(tmp_path, "one.json", {"n": 1, "dist": [[0]], "measure": [1]})
    for strategy in ("exact", "family"):
        res = run_cli("alpha", str(path), "--strategy", strategy)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "r,alpha,strategy\n"  # no attained distance, so no breakpoint
        out = tmp_path / f"{strategy}.csv"
        assert run_cli("alpha", str(path), "--strategy", strategy,
                       "--out", str(out)).returncode == 0
        profile = load_profile_csv(out)
        assert len(profile.radii) == 0
        assert np.array_equal(profile.value_at([1e-9, 0.5, 1.0, 1e9]), np.zeros(4))


def test_isoperim_one_point_space_is_the_trivial_profile(tmp_path):
    path = _write_space(tmp_path, "one.json", {"n": 1, "dist": [[0]], "measure": [1]})
    for args in ((), ("--scale", "1"), ("--strategy", "family")):
        res = run_cli("isoperim", str(path), *args)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines] == ["mass,content", "0,0", "1,0"]


@pytest.mark.parametrize("dim", [0, 3])
def test_gen_torus_of_unsupported_dimension_is_usage_error(tmp_path, dim):
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps({"id": "t", "domain": {"type": "torus", "side": 1.0, "dim": dim},
                                "resolution": 4, "density": {"type": "uniform"}}))
    res = run_cli("gen", "--spec", str(spec))
    assert res.returncode == 2
    assert f"error: torus dim must be 1 or 2, got {dim}" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("doc", finsler._CATALOG, ids=lambda doc: doc["id"])
def test_catalog_document_as_spec_file_gives_the_catalog_space(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    for resolution in ((), ("--resolution", "8")):
        by_spec = run_cli("gen", "--spec", str(spec), *resolution)
        by_id = run_cli("gen", "--catalog", doc["id"], *resolution)
        assert by_spec.returncode == by_id.returncode == 0, by_spec.stderr + by_id.stderr
        assert json.loads(by_spec.stdout) == json.loads(by_id.stdout)


def test_gen_round_metric_off_the_sphere_is_usage_error(tmp_path):
    spec = tmp_path / "round-torus.json"
    spec.write_text(json.dumps({"domain": {"type": "torus", "side": 1.0, "dim": 2},
                                "resolution": 4, "metric": "round"}))
    res = run_cli("gen", "--spec", str(spec))
    assert res.returncode == 2
    assert res.stderr == "error: the 'round' metric is the sphere's coordinate tensor\n"


def test_verify_zero_restarts_is_usage_error(tmp_path):
    atom = _write_space(tmp_path, "atom.json",
                        {"n": 2, "dist": [[0, 1], [2, 0]], "measure": [1, 0]})
    for target in ("t2", str(atom)):
        res = run_cli("verify", "all", target, "--restarts", "0")
        assert res.returncode == 2, target
        assert "error: restarts must be at least 1" in res.stderr


def test_verify_zero_threads_is_usage_error(space_file):
    env = dict(os.environ, CCMM_THREADS="0")
    for res in (run_cli("verify", "all", str(space_file), "--threads", "0"),
                run_cli("verify", "all", str(space_file), env=env)):
        assert res.returncode == 2
        assert "error: threads must be at least 1" in res.stderr


def test_threads_is_a_verify_option_only(space_file):
    res = run_cli("alpha", str(space_file), "--threads", "2")
    assert res.returncode == 2
    assert "unrecognized arguments: --threads" in res.stderr


# An interpreter that refuses every scipy import, then runs the CLI on its
# arguments; importing ccmm.cli must leave no scipy module behind, and load
# neither multiprocessing nor concurrent.futures (the suite runs in one process).
_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the scipy guard is not in place")
import ccmm.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"import ccmm.cli loaded {loaded}")
pools = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
               or m.split(".")[:2] == ["concurrent", "futures"])
if pools:
    sys.exit(f"import ccmm.cli loaded the process pools {pools}")
sys.exit(ccmm.cli.main(sys.argv[1:]))
"""


def test_cli_imports_and_verifies_without_scipy(tmp_path):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps({
        "n": 5, "dist": None,
        "edges": [[0, 1, 0.5], [1, 2, 0.75], [2, 3, 1.0], [3, 4, 0.5], [4, 0, 1.25],
                  [2, 0, 0.5], [0, 3, 1.5], [3, 1, 0.25], [0, 1, 0.625]],
        "measure": [0.1, 0.3, 0.2, 0.25, 0.15]}))
    guarded = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, "verify", "all",
                              str(path)], capture_output=True, text=True)
    plain = run_cli("verify", "all", str(path))
    assert guarded.returncode == plain.returncode == 0, guarded.stderr
    assert guarded.stdout == plain.stdout
    assert json.loads(guarded.stdout)["meta"]["n"] == 5
