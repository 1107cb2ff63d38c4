"""One workload process of the benchmark; ``run.py`` starts it fresh each time.

    python3 bench/worker.py --workload NAME --seed N --mode setup|run|trace
                            [--pass-index I] [--spans PATH]

It imports ccmm from the checkout's ``src`` (never from elsewhere), times
the cold ``import ccmm.cli`` plus building the inputs, then runs pass I of
the workload, one verify call at a time, and prints one JSON line: set-up
times, the time of each verify call and whether its report matches the
pinned reference (status vector, space hash, and every margin within
``workloads.MARGIN_RTOL``), the pass time, verify-phase CPU time and peak RSS.
``--mode setup`` stops after set-up; ``--mode trace`` installs the span
recorder after the import and writes the spans to ``--spans`` at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402

MAX_ERRORS = 5


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    name = args.workload
    reference = workloads.load_reference()
    expected = reference[name]
    keys = workloads.pass_keys(name, args.seed, args.pass_index, reference)

    t0 = time.perf_counter()
    import ccmm.cli  # noqa: F401  (the cold import is part of set-up)
    t1 = time.perf_counter()
    import ccmm
    if not os.path.abspath(ccmm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ccmm was imported from {ccmm.__file__}, not from {SRC}")
    recorder = None
    if args.mode == "trace":
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()
    inputs = workloads.build_inputs(name, keys)
    t2 = time.perf_counter()
    out = {"import_s": t1 - t0, "setup_s": t2 - t0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    items, errors = [], []
    clock = time.perf_counter
    cpu0 = time.process_time()
    start = clock()
    for key in keys:
        a = clock()
        try:
            report = workloads.verify(inputs[key], workloads.THREADS)
            took = clock() - a
            want = expected[key]
            got = (workloads.status_vector(report), report.meta["space_hash"])
            margins = workloads.margins(report)
            ok = (got == (want["status"], want["hash"])
                  and workloads.same_margins(margins, want["margins"]))
            if not ok and len(errors) < MAX_ERRORS:
                errors.append(f"{name}/{key}: got {got} {margins}, "
                              f"want {(want['status'], want['hash'])} {want['margins']}")
        except Exception as exc:  # a raising call is a failed operation
            took = clock() - a
            ok = False
            if len(errors) < MAX_ERRORS:
                errors.append(f"{name}/{key}: {type(exc).__name__}: {exc}")
        items.append([key, took, ok])
    out.update({
        "verify_start": start,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": sum(it[1] for it in items),
        "items": items,
        "errors": errors,
    })
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
