"""Span recorder for the traced benchmark run.

``Recorder.install()`` rebinds each public ccmm function listed in
``LAYERS``, in every loaded ``ccmm.*`` namespace that holds it, to a wrapper
that records a span (name, start, end, parent) and the layer's exact work
counts.  Spans stay in memory; ``Recorder.dump`` writes them once, at the
end of the run.  The untraced run never installs it.

The benchmark calls ``run_verify`` with ``threads=1``, so spans nest on one
stack; a traced call from another thread raises instead of recording a
span with the wrong parent.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _strategy(args, kwargs) -> str:
    return kwargs.get("strategy", args[1] if len(args) > 1 else "exact")


def _space(args, kwargs):
    return args[0] if args else kwargs["mm"]


def _exact_subsets(args, kwargs, result) -> dict:
    return {"concentration.subsets": (1 << _space(args, kwargs).n) - 1}


def _profile_counts(args, kwargs, result) -> dict:
    counts = {"concentration.radii": len(result.radii)}
    if result.strategy == "exact":
        counts["concentration.subsets"] = (1 << _space(args, kwargs).n) - 1
    return counts


def _iso_rows(args, kwargs, result) -> dict:
    # rows kept after the stride (at most max_subsets): the rows whose
    # contents and Gaussian bounds the check evaluates.  The report names
    # the count only when the scan was strided or exact.
    label = result.subsets
    if "strided to " in label:
        rows = int(label.split("strided to ")[1].split()[0])
    elif label == "exact":
        rows = (1 << _space(args, kwargs).n) - 2  # every proper nonempty subset
    else:
        rows = 0  # an unstrided family scan: the report gives no row count
    return {"isoperimetry.rows_kept": rows}


def _verify_counts(args, kwargs, result) -> dict:
    counts: dict[str, int] = {}
    for entry in result.results.values():
        key = f"verify.entries.{entry.status}"
        counts[key] = counts.get(key, 0) + 1
    return counts


# span name -> (home module, function, span-name suffix rule, count rule)
LAYERS = {
    "concentration.tail_envelope":
        ("ccmm.concentration", "tail_envelope", None, _exact_subsets),
    "concentration.transfer_check":
        ("ccmm.concentration", "enlargement_check_from_tail_bound", None, _exact_subsets),
    "concentration.alpha_profile":
        ("ccmm.concentration", "alpha_profile", _strategy, _profile_counts),
    "concentration.deviation_check":
        ("ccmm.concentration", "deviation_check", None, None),
    "concentration.moment_norm":
        ("ccmm.concentration", "moment_norm", None, None),
    "spectrum.first_eigenvalue":
        ("ccmm.spectrum", "first_eigenvalue", None,
         lambda a, k, r: {"spectrum.restarts": r.restarts}),
    "spectrum.spectral_mass_decay_check":
        ("ccmm.spectrum", "spectral_mass_decay_check", None, None),
    "isoperimetry.profile_enlargement_check":
        ("ccmm.isoperimetry", "profile_enlargement_check", None, _iso_rows),
    "isoperimetry.gaussian_phi":
        ("ccmm.isoperimetry", "gaussian_phi", None, None),
    "observable.observable_diameter":
        ("ccmm.observable", "observable_diameter", None, None),
    "observable.obsdiam_vs_alpha_check":
        ("ccmm.observable", "obsdiam_vs_alpha_check", None, None),
    "lipschitz.generate_family":
        ("ccmm.lipschitz", "generate_family", None,
         lambda a, k, r: {"lipschitz.family_size": len(r)}),
    "finsler.build_space":
        ("ccmm.finsler", "build_space", None, None),
    "quasimetric.from_digraph":
        ("ccmm.quasimetric", "from_digraph", None, None),
    "quasimetric.random_mm_space":
        ("ccmm.quasimetric", "random_mm_space", None, None),
    "verify.run_verify":
        ("ccmm.verify", "run_verify", None, _verify_counts),
    "io.space_hash":
        ("ccmm.io", "space_hash", None, None),
}


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._stack: list[int] = [0]
        self._main = threading.main_thread()

    def wrap(self, name: str, fn, suffix=None, counter=None):
        clock = time.perf_counter
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                raise RuntimeError(f"traced {name} called from a worker thread; "
                                   "trace with threads=1")
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if suffix is None else f"{name}_{suffix(args, kwargs)}"
                spans.append((sid, label, start, end, parent))
            if counter is not None:
                for key, k in counter(args, kwargs, result).items():
                    counts[key] += int(k)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever a ccmm namespace holds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "ccmm" or k.startswith("ccmm.")) and m is not None]
        for name, (home, attr, suffix, counter) in LAYERS.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, original, suffix, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans, since: float = float("-inf")) -> dict[str, dict]:
    """Per-name call count and self time of the spans starting at ``since`` or later.

    Self time is a span's duration minus the time its child spans cover;
    spans nest on one thread, so the children of a span never overlap.
    """
    spans = [s for s in spans if s[2] >= since]
    child_s: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        child_s[parent] += end - start
    out: dict[str, dict] = {}
    for sid, name, start, end, _ in spans:
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child_s[sid]
    return out
