"""The ccmm command line.

Subcommands: gen, validate, family, alpha, obsdiam, isoperim, eigen,
verify, export.  Exit codes: 0 when nothing failed, 1 when a verification
check failed, 2 for usage or I/O errors.  The global --seed flag keeps runs
reproducible: identical inputs, seed, and tool version give byte-identical
reports.  Reports are computed serially; verify's --threads flag (with
CCMM_THREADS as its fallback) must be at least 1 and is accepted for
compatibility only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .concentration import EXACT_MAX_N, alpha_profile
from .finsler import build_space, catalog, catalog_entry, entry_from_dict
from .io import (
    load_space,
    profile_to_csv,
    report_to_csv,
    save_space,
    space_hash,
)
from .lipschitz import LipschitzFamily, generate_family
from .observable import observable_diameter
from .isoperimetry import isoperimetric_profile, mesh_scale
from .quasimetric import MetricMeasureSpace, validate
from .spectrum import ChengInputs, first_eigenvalue
from .verify import SECTIONS, run_verify

USAGE_ERROR = 2


def _threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("CCMM_THREADS")
    return int(env) if env else 1


def _load_target(target: str) -> tuple[MetricMeasureSpace, dict | None, str]:
    """A space file path or a catalog id; returns (space, certified, label)."""
    ids = {e.id for e in catalog()}
    if target in ids:
        entry = catalog_entry(target)
        mm = build_space(entry)
        certified = dict(entry.certified) if entry.certified else None
        if certified is not None:
            certified.setdefault("dim", entry.spec.domain.dim)
        return mm, certified, target
    if not os.path.exists(target):
        raise FileNotFoundError(f"{target!r} is neither a space file nor a catalog id "
                                f"({', '.join(sorted(ids))})")
    return load_space(target), None, os.path.basename(target)


def _write_json(doc: dict, out: str | None) -> None:
    # insertion order is deterministic (suite order for reports); no re-sort
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if (args.catalog is None) == (args.spec is None):
        raise ValueError("pass exactly one of --catalog and --spec")
    if args.catalog is not None:
        entry = catalog_entry(args.catalog)
    else:
        with open(args.spec) as fh:
            entry = entry_from_dict(json.load(fh))
    mm = build_space(entry, resolution=args.resolution)
    if args.out:
        save_space(mm, args.out)
        print(f"wrote {args.out} (n = {mm.n}, hash {space_hash(mm)})")
    else:
        _write_json({"n": mm.n, "hash": space_hash(mm)}, None)
    return 0


def cmd_validate(args) -> int:
    with open(args.space) as fh:
        doc = json.load(fh)
    if doc.get("dist") is None:
        print("space is edge-defined; shortest-path closures satisfy the "
              "directed triangle inequality by construction")
        load_space(args.space)
        print("ok")
        return 0
    result = validate(np.asarray(doc["dist"], dtype=float), rel_tol=args.tol,
                      sampled=args.sampled, seed=args.seed or 0)
    if hasattr(result, "dist"):
        print(f"ok: valid quasi-metric on {result.n} points")
        return 0
    print(str(result))
    return 1


def cmd_family(args) -> int:
    mm, _, _ = _load_target(args.space)
    fam = generate_family(mm, count=args.count, seed=args.seed or 0)
    doc = {
        "n": mm.n,
        "count": len(fam),
        "seed": args.seed or 0,
        "tags": list(fam.tags),
        "fields": fam.values.tolist(),
    }
    _write_json(doc, args.out)
    return 0


def _load_family(path: str, mm: MetricMeasureSpace) -> LipschitzFamily:
    with open(path) as fh:
        doc = json.load(fh)
    fields = doc["fields"]
    return LipschitzFamily(mm.space, fields, doc.get("tags") or ["user"] * len(fields))


def cmd_alpha(args) -> int:
    mm, _, _ = _load_target(args.space)
    profile = alpha_profile(mm, strategy=args.strategy, seed=args.seed or 0)
    if args.out:
        profile_to_csv(profile, args.out)
        print(f"wrote {args.out} ({len(profile.radii)} breakpoints)")
    else:
        profile_to_csv(profile, sys.stdout)
    return 0


def cmd_obsdiam(args) -> int:
    mm, _, _ = _load_target(args.space)
    fam = _load_family(args.family, mm) if args.family else \
        generate_family(mm, seed=args.seed or 0)
    res = observable_diameter(mm, args.kappa, fam)
    doc = {"kappa": res.kappa, "value": res.value, "witness": res.witness,
           "family_size": res.family_size,
           "note": "family-restricted supremum: a lower bound of the true value"}
    _write_json(doc, args.out)
    return 0


def cmd_isoperim(args) -> int:
    mm, _, _ = _load_target(args.space)
    scale = mesh_scale(mm) if args.scale is None else args.scale
    strategy = args.strategy or ("exact" if mm.n <= EXACT_MAX_N else "family")
    prof = isoperimetric_profile(mm, scale, strategy=strategy, seed=args.seed or 0)
    lines = ["mass,content,strategy"]
    lines += [f"{m:.17g},{c:.17g},{strategy}" for m, c in prof]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (scale {scale:.6g})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_eigen(args) -> int:
    mm, _, _ = _load_target(args.space)
    est = first_eigenvalue(mm, restarts=args.restarts, seed=args.seed or 0)
    doc = {
        "value": est.value,
        "restarts": est.restarts,
        "strategy": est.strategy,
        "seed": args.seed or 0,
        "certificate": [float(x) for x in est.certificate.values],
        "note": "best multistart quotient: an upper bound of the discrete infimum",
    }
    _write_json(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    sections = sorted(SECTIONS) if args.sections == "all" else args.sections.split(",")
    mm, certified, label = _load_target(args.space)
    cheng = None
    if args.cheng:
        parts = [float(x) for x in args.cheng.split(",")]
        if len(parts) != 4:
            raise ValueError("--cheng expects n,a,K,D")
        cheng = ChengInputs(int(parts[0]), parts[1], parts[2], parts[3])
    report = run_verify(mm, sections=sections, seed=args.seed or 0,
                        threads=_threads(args), restarts=args.restarts,
                        certified=certified, cheng=cheng, space_label=label)
    _write_json(report.to_dict(), args.out)
    return 1 if report.failed else 0


def cmd_export(args) -> int:
    with open(args.report) as fh:
        doc = json.load(fh)
    if "results" not in doc:
        raise ValueError("not a verification report (no 'results' key)")
    report_to_csv(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccmm",
        description="concentration-of-measure computations on finite "
                    "irreversible metric measure spaces")
    parser.add_argument("--version", action="version", version=f"ccmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("gen", help="build a catalog or spec-file space as JSON")
    p.add_argument("--catalog", default=None, help="catalog id (g1, t2, r1, s2)")
    p.add_argument("--spec", default=None,
                   help="declarative Randers spec file (see finsler.entry_from_dict)")
    p.add_argument("--resolution", type=int, default=None, help="points per axis")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check a space file's metric axioms")
    p.add_argument("space")
    p.add_argument("--tol", type=float, default=0.0,
                   help="relative triangle tolerance (default exact)")
    p.add_argument("--sampled", action="store_true",
                   help="sample 10 n^2 random triples instead of the full scan")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("family", help="generate a deterministic 1-Lipschitz family")
    p.add_argument("space")
    p.add_argument("--count", type=int, default=None, help="family size (>= 2n)")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("alpha", help="concentration profile as CSV (r,alpha,strategy)")
    p.add_argument("space")
    p.add_argument("--strategy", choices=("exact", "family"), default="exact")
    common(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("obsdiam", help="family observable diameter at one kappa")
    p.add_argument("space")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--family", default=None, help="family JSON from 'ccmm family'")
    common(p)
    p.set_defaults(func=cmd_obsdiam)

    p = sub.add_parser("isoperim", help="isoperimetric profile as CSV (mass,content)")
    p.add_argument("space")
    p.add_argument("--scale", type=float, default=None,
                   help="finite-difference scale (default: smallest distance)")
    p.add_argument("--strategy", choices=("exact", "family"), default=None)
    common(p)
    p.set_defaults(func=cmd_isoperim)

    p = sub.add_parser("eigen", help="slope-descent first-eigenvalue estimate")
    p.add_argument("space")
    p.add_argument("--restarts", type=int, default=32)
    common(p)
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("verify", help="run the inequality suite, emit a JSON report")
    p.add_argument("sections", help="comma-joined subset of sec3,sec4,sec5,sec6, or 'all'")
    p.add_argument("space", help="space file or catalog id")
    p.add_argument("--cheng", default=None, metavar="n,a,K,D",
                   help="inputs of the diameter-based eigenvalue bound")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility, at least 1; reports are "
                        "computed serially (default: CCMM_THREADS or 1)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="flatten a verification report to CSV")
    p.add_argument("report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; propagate other codes
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
