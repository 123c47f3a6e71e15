"""Workloads, the per-category pipeline and its correctness gate.

A workload is a list of category documents plus the stages run on each:
the library entry points behind ``tcat validate / smatrix / muger /
center / factorize``.  Every pass starts from the JSON text, so each
category is cold: nothing memoized on ``CategoryData._cache`` survives
from one pass to the next, just as nothing survives between CLI runs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from inputs import (catalog_doc, dumps, gauge_doc, label_permutation,
                    permute_labels, vec_zn_doc)

CATALOG = ["trivial", "fibonacci", "ising", "semion", "vec_z2_sym",
           "vec_z3_modular"]
GAUGE_PROBE = ["fibonacci", "ising", "vec_z3_modular"]

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "references.json"), encoding="utf-8") as _fh:
    REFERENCES = {k: v for k, v in json.load(_fh).items() if not k.startswith("_")}


@dataclass(frozen=True)
class Workload:
    documents: Callable[[], list]
    stages: tuple
    max_word_length: int
    gauge_probe: bool


WORKLOADS = {
    "catalog_factorize": Workload(
        lambda: [catalog_doc(c) for c in CATALOG],
        ("validate", "smatrix", "muger", "center", "factorize"), 2, True),
    "pointed_center": Workload(
        lambda: [vec_zn_doc(4, 1), vec_zn_doc(3, 0)],
        ("center", "factorize"), 1, False),
}


def seeded_texts(docs: list, seed: int) -> list:
    """Serialize each document after a seeded relabeling of its simples."""
    rng = random.Random(seed)
    return [dumps(permute_labels(d, label_permutation(len(d["labels"]), rng)))
            for d in docs]


def run_category(text: str, stages: tuple, max_word_length: int):
    """Build one category from its text and run the stages; returns
    ``(category, results)`` with results stated in label names."""
    import tcat

    cat = tcat.category.loads_category(text)
    out = {"name": cat.name}
    if "validate" in stages:
        out["valid"] = tcat.category.validate(cat).ok
    if "smatrix" in stages:
        out["s_rank"] = tcat.modularity.s_matrix(cat).rank
    if "muger" in stages:
        rep = tcat.modularity.muger_center(cat)
        out["transparent"] = sorted(cat.label_name(t) for t in rep.transparent)
    if "center" in stages:
        simples = tcat.center.center_simples(cat)
        E = tcat.engine
        out["center_count"] = len(simples)
        out["center_verified"] = all(
            tcat.center.verify_center_object(cat, obj).ok for obj in simples)
        out["center_dims"] = [E.quantum_trace(cat, E.identity(cat, obj.X))
                              for obj in simples]
        out["global_dim"] = cat.total_dim
    if "factorize" in stages:
        rep = tcat.center.invertibility_report(
            cat, max_word_length=max_word_length)
        out["s_rank_factorize"] = rep.rank_s
        out["modular"] = rep.modular
        out["factorizable"] = rep.factorizable
        out["center_count_factorize"] = rep.center_count
        out["defects"] = (rep.defect_qd, rep.defect_dq, rep.defect_pb,
                          rep.defect_bp)
        out["eps_identity"] = cat.tol.eps_identity
    return cat, out


def gate(out: dict) -> list:
    """Mismatches between one category's results and its reference."""
    ref = REFERENCES[out["name"]]
    bad = []

    def expect(key, want):
        if key in out and out[key] != want:
            bad.append(f"{key}={out[key]!r}, want {want!r}")

    expect("valid", ref["valid"])
    expect("s_rank", ref["s_rank"])
    expect("s_rank_factorize", ref["s_rank"])
    expect("transparent", sorted(ref["transparent"]))
    expect("center_count", ref["center_count"])
    expect("center_count_factorize", ref["center_count"])
    expect("center_verified", True)
    expect("modular", ref["modular"])
    if "center_dims" in out:
        # dim Z(C) = dim(C)^2: the simples' squared dimensions must add up
        total = sum(d * d for d in out["center_dims"])
        if abs(total - out["global_dim"] ** 2) > 1e-6 * abs(out["global_dim"]) ** 2:
            bad.append(f"sum of squared center dims {total} != dim(C)^2")
    if "defects" in out:
        qd, dq, pb, bp = out["defects"]
        eps = out["eps_identity"]
        if ref["modular"]:
            ok = max(qd, dq, pb, bp) < eps
        else:
            ok = qd < eps and max(dq, pb, bp) >= 0.5
        if not ok:
            bad.append(f"defects (qd, dq, pb, bp)={out['defects']} do not "
                       f"match the {'modular' if ref['modular'] else 'degenerate'} "
                       "pattern")
    return bad


def checked(text: str, stages: tuple, max_word_length: int):
    """``run_category`` plus the gate; an exception is a failure."""
    try:
        cat, out = run_category(text, stages, max_word_length)
    except Exception as exc:  # noqa: BLE001 - every error counts as a failure
        return None, [f"{type(exc).__name__}: {exc}"]
    return cat, gate(out)


def gauge_probe(seed: int) -> dict:
    """Re-run gauged copies of the probe entries; name -> list of problems.

    A phase gauge changes no invariant, so the validate verdict, the
    center count and factorizability must match the ungauged reference.
    """
    rng = random.Random(f"gauge-{seed}")
    report = {}
    for name in GAUGE_PROBE:
        doc = catalog_doc(name)
        doc = permute_labels(doc, label_permutation(len(doc["labels"]), rng))
        text = dumps(gauge_doc(doc, rng))
        try:
            _cat, out = run_category(text, ("validate", "center", "factorize"), 2)
        except Exception as exc:  # noqa: BLE001 - every error counts as a failure
            report[name] = [f"{type(exc).__name__}: {exc}"]
            continue
        ref = REFERENCES[name]
        bad = []
        if out["valid"] != ref["valid"]:
            bad.append(f"valid={out['valid']}")
        if out["center_count"] != ref["center_count"]:
            bad.append(f"center_count={out['center_count']}")
        if out["factorizable"] != ref["modular"]:
            bad.append(f"factorizable={out['factorizable']}")
        report[name] = bad
    return report
