"""Command-line front end.

Exit codes: 0 = success/pass, 1 = mathematical failure (validation failed,
or defects above tolerance under --expect-modular), 2 = usage or IO error.
Reports are written atomically; the machine format is schema-versioned
JSON and carries exactly the same numbers as the human tables.  JSON has no
NaN or infinity, so a non-finite number is written as the string "nan",
"inf" or "-inf".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

from .catalog import catalog, catalog_names
from .category import (CategoryData, load_category, serialize_category,
                       validate)
from .errors import SchemaError, TcatError, UnknownCategoryError
from .modularity import is_modular, muger_center, s_matrix
from .center import center_simples, invertibility_report, verify_center_object
from . import engine as E

SCHEMA_VERSION = 2


def _word_length(text: str) -> int:
    """A ``--max-word-length`` value: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcat",
        description="Skeletal premodular-category numerics: validation, "
                    "S-matrices, and factorization of the Drinfeld center.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_category=True):
        if needs_category:
            p.add_argument("category",
                           help="catalog name or path to a category file")
        p.add_argument("--tolerance-structural", type=float, default=None,
                       metavar="F", help="override eps_structural")
        p.add_argument("--tolerance-identity", type=float, default=None,
                       metavar="F", help="override eps_identity")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH (atomic)")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human", help="report format")

    add_common(sub.add_parser("validate", help="run the axiom suite"))
    add_common(sub.add_parser("smatrix", help="compute the S-matrix"))
    add_common(sub.add_parser("muger", help="find the transparent objects"))
    add_common(sub.add_parser("center", help="list the simple center objects"))
    p_fact = sub.add_parser("factorize",
                            help="measure the factorization of the center")
    add_common(p_fact)
    p_fact.add_argument("--expect-modular", action="store_true",
                        help="exit 1 unless every composite defect is "
                             "below tolerance")
    p_fact.add_argument("--max-word-length", type=_word_length, default=2,
                        metavar="N",
                        help="longest tensor words sampled as test objects")
    p_list = sub.add_parser("catalog-list", help="list catalog categories")
    add_common(p_list, needs_category=False)
    add_common(sub.add_parser("dump", help="serialize a category document"))
    return parser


def _load(args) -> CategoryData:
    ref = args.category
    if os.path.sep in ref or ref.endswith(".json") or os.path.isfile(ref):
        cat = load_category(ref)
    else:
        cat = catalog(ref)
    overrides = {}
    if args.tolerance_structural is not None:
        overrides["eps_structural"] = args.tolerance_structural
    if args.tolerance_identity is not None:
        overrides["eps_identity"] = args.tolerance_identity
    if overrides:
        cat = dataclasses.replace(
            cat, tol=dataclasses.replace(cat.tol, **overrides), _cache={})
    return cat


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tcat-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _strict(value):
    """``value`` with every non-finite float written as a string."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _machine(command: str, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    return json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12g}{z.imag:+.12g}j"


def _run_validate(cat, args) -> int:
    report = validate(cat)
    if args.format == "machine":
        _emit(_machine("validate", report.as_dict()), args.out)
    else:
        lines = [f"category: {cat.name}",
                 f"verdict: {'pass' if report.ok else 'FAIL'}"]
        for e in report.entries:
            lines.append(f"  {e.name:26s} {e.value:.6e}  "
                         f"(< {e.threshold:.1e})  "
                         f"{'ok' if e.ok else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    if report.ok:
        return 0
    failed = ", ".join(e.name for e in report.entries if not e.ok)
    sys.stderr.write(f"tcat: {cat.name} fails validation: {failed}\n")
    return 1


def _run_smatrix(cat, args) -> int:
    S = s_matrix(cat)
    if args.format == "machine":
        payload = {"category": cat.name}
        payload.update(S.as_dict())
        _emit(_machine("smatrix", payload), args.out)
    else:
        lines = [f"category: {cat.name}",
                 f"rank: {S.rank} / {cat.n_labels}",
                 f"det: {_fmt_complex(S.det)}"]
        for row in S.entries:
            lines.append("  [" + ", ".join(_fmt_complex(v) for v in row) + "]")
        _emit("\n".join(lines), args.out)
    return 0


def _run_muger(cat, args) -> int:
    rep = muger_center(cat)
    verdict = is_modular(cat)
    if args.format == "machine":
        payload = {"category": cat.name, "modular": verdict.modular}
        payload.update(rep.as_dict())
        _emit(_machine("muger", payload), args.out)
    else:
        names = [cat.label_name(t) for t in rep.transparent]
        lines = [f"category: {cat.name}",
                 f"transparent: {{{', '.join(names)}}}",
                 f"modular: {verdict.modular}"]
        for i, d in enumerate(rep.monodromy_defects):
            lines.append(f"  monodromy defect {cat.label_name(i):8s} {d:.6e}")
        _emit("\n".join(lines), args.out)
    return 0


def _run_center(cat, args) -> int:
    simples = center_simples(cat)
    entries = []
    for obj in simples:
        rep = verify_center_object(cat, obj)
        qd = E.quantum_trace(cat, E.identity(cat, obj.X))
        entries.append({
            "object": obj.X.describe(cat),
            "quantum_dim": [qd.real, qd.imag],
            "verified": rep.ok,
            "tensoriality_residual": rep.tensoriality_residual,
        })
    if args.format == "machine":
        _emit(_machine("center", {"category": cat.name,
                                  "count": len(simples),
                                  "square_count": cat.n_labels ** 2,
                                  "simples": entries}), args.out)
    else:
        lines = [f"category: {cat.name}",
                 f"simple center objects: {len(simples)} "
                 f"(square of the label count: {cat.n_labels ** 2})"]
        for e in entries:
            lines.append(f"  {e['object']:22s} dim={e['quantum_dim'][0]:+.9g}"
                         f"{e['quantum_dim'][1]:+.3g}j  "
                         f"verified={e['verified']} "
                         f"residual={e['tensoriality_residual']:.2e}")
        _emit("\n".join(lines), args.out)
    failed = ", ".join(e["object"] for e in entries if not e["verified"])
    if failed:
        sys.stderr.write(f"tcat: {cat.name}: unverified simples: {failed}\n")
    return 1 if failed else 0


def _run_factorize(cat, args) -> int:
    rep = invertibility_report(cat, max_word_length=args.max_word_length)
    payload = rep.as_dict()
    if args.format == "machine":
        _emit(_machine("factorize", payload), args.out)
    else:
        d = payload["defects"]
        lines = [f"category: {cat.name}",
                 f"modular: {payload['modular']} (S-matrix rank "
                 f"{payload['rank_S']} of {cat.n_labels})",
                 f"center simples: {payload['center_count']} "
                 f"(square count {payload['square_count']})",
                 "composite defects:",
                 f"  |q.d - id|  = {d['qd']:.6e}   (unconditional)",
                 f"  |d.q - id|  = {d['dq']:.6e}",
                 f"  |p.b - id|  = {d['pb']:.6e}",
                 f"  |b.p - id|  = {d['bp']:.6e}",
                 f"verdict: {payload['verdict']}",
                 f"agrees with modularity: {payload['agrees_with_modularity']}"]
        _emit("\n".join(lines), args.out)
    if args.expect_modular and not rep.factorizable:
        return 1
    return 0


def _run_catalog_list(args) -> int:
    names = catalog_names()
    if args.format == "machine":
        _emit(_machine("catalog-list", {"names": names}), args.out)
    else:
        _emit("\n".join(names), args.out)
    return 0


def _run_dump(cat, args) -> int:
    _emit(serialize_category(cat), args.out)
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "catalog-list":
            return _run_catalog_list(args)
        cat = _load(args)
        if args.command == "validate":
            return _run_validate(cat, args)
        if args.command == "smatrix":
            return _run_smatrix(cat, args)
        if args.command == "muger":
            return _run_muger(cat, args)
        if args.command == "center":
            return _run_center(cat, args)
        if args.command == "factorize":
            return _run_factorize(cat, args)
        if args.command == "dump":
            return _run_dump(cat, args)
        parser.error(f"unknown command {args.command!r}")
    except (UnknownCategoryError, SchemaError) as exc:
        sys.stderr.write(f"tcat: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"tcat: {exc}\n")
        return 2
    except TcatError as exc:
        sys.stderr.write(f"tcat: {exc}\n")
        return 1
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
