"""The ccmm benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root.  Every measurement runs in a fresh
interpreter (``worker.py``) with ccmm imported from ``src`` and the BLAS
thread count set explicitly.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each verify
call whose statuses or space hash differ from ``reference.json``, or that
raises, counts as failed.

--trace 0 measures with nothing patched.  It starts one fresh process per
pass, as ``ccmm verify`` would, until T seconds are up; each pass process
sets up (cold ``import ccmm.cli`` plus building its inputs) and then runs
its verify calls.  ``setup_s`` is the median set-up over the pass processes
and extra set-up-only processes, at least ``SETUP_SAMPLES`` in all.
--trace 1 runs pass 0 untraced and then traced and reports the per-layer
metrics, including ``trace_overhead`` (traced over untraced pass time).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5       # fresh set-ups timed per run, at the least
DEADLINE_S = 170.0      # the whole run, children included
COUNTS = ("concentration.subsets", "concentration.radii", "spectrum.restarts",
          "lipschitz.family_size", "isoperimetry.rows_kept",
          "verify.entries.pass", "verify.entries.fail",
          "verify.entries.inconclusive", "verify.entries.skipped")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": workloads.THREADS,
        "machine": platform.machine(),
    }


def child_env() -> dict:
    """The caller's environment minus its Python settings, with our BLAS threads."""
    nthreads = str(workloads.THREADS)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(OPENBLAS_NUM_THREADS=nthreads, OMP_NUM_THREADS=nthreads,
               MKL_NUM_THREADS=nthreads, PYTHONHASHSEED="0")
    return env


def worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(results: list[dict]) -> tuple[int, int, list[str]]:
    items = [it for res in results for it in res["items"]]
    errors = [e for res in results for e in res["errors"]]
    return len(items), sum(1 for it in items if not it[2]), errors


def end_to_end(name: str, seed: int, seconds: int, env: dict, deadline: float):
    base = ["--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    results = []
    while not results or time.monotonic() - start < seconds:
        results.append(worker(base + ["--mode", "run", "--pass-index", str(len(results))],
                              env, deadline))
    setups = [res["setup_s"] for res in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(base + ["--mode", "setup"], env, deadline)["setup_s"])
    latencies = [it[1] for res in results for it in res["items"]]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive") \
        if len(latencies) > 1 else latencies * 9
    metrics = {
        "wall_s": (statistics.median(res["pass_s"] for res in results), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(res["peak_rss_mb"] for res in results), "MB"),
        "space_p50_s": (statistics.median(latencies), "s"),
        "space_p90_s": (deciles[8], "s"),
    }
    notes = {"passes": len(results), "verify_calls": len(latencies),
             "setup_samples": setups}
    return metrics, results, notes


def per_layer(name: str, seed: int, env: dict, deadline: float):
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.json")
    base = ["--workload", name, "--seed", str(seed)]
    plain = worker(base + ["--mode", "run"], env, deadline)
    traced = worker(base + ["--mode", "trace", "--spans", spans_path], env, deadline)
    with open(spans_path) as fh:
        trace = json.load(fh)
    rows = tracer.self_times(trace["spans"])
    in_verify = tracer.self_times(trace["spans"], since=traced["verify_start"])
    traced_wall = traced["pass_s"]
    metrics = {}
    names = sorted({n for n in tracer.LAYERS if n != "concentration.alpha_profile"}
                   | {"concentration.alpha_profile_exact",
                      "concentration.alpha_profile_family"})
    for layer in names:
        row = rows.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.calls"] = (row["calls"], "count")
    for key in COUNTS:
        metrics[key] = (trace["counts"].get(key, 0), "count")
    attempted, failed, _ = tally([plain, traced])
    # the share of the traced pass the named layers cover; run_verify's own
    # self time is what no listed layer covers, so it is left out
    attributed = sum(r["self_s"] for n, r in in_verify.items() if n != "verify.run_verify")
    metrics.update({
        "cli.import_s": (traced["import_s"], "s"),
        "process.cpu_s": (plain["cpu_s"], "s"),
        "trace_overhead": (traced_wall / plain["pass_s"], "ratio"),
        "trace.attributed_share": (attributed / traced_wall, "ratio"),
        "fail_frac": (failed / attempted, "ratio"),
    })
    notes = {"spans": len(trace["spans"]), "spans_file": os.path.relpath(spans_path, ROOT),
             "untraced_pass_s": plain["pass_s"], "traced_pass_s": traced_wall}
    return metrics, [plain, traced], notes


def main() -> int:
    parser = argparse.ArgumentParser(description="ccmm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "ccmm")):
        print(f"error: no ccmm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        if args.trace:
            metrics, results, notes = per_layer(args.workload, args.seed, env, deadline)
        else:
            metrics, results, notes = end_to_end(args.workload, args.seed, args.seconds,
                                                 env, deadline)
    except (RuntimeError, ValueError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, errors = tally(results)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("run " + json.dumps(notes, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    for line in errors:
        print(f"  mismatch: {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
