"""Fast self-check of the benchmark's generator, relabeling and gate.

    python3 bench/selfcheck.py

Run from the root of a source checkout; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import random
import sys

from run import HERE, OTHER_METRICS, SPAN_METRICS, SRC

sys.path.insert(0, SRC)

import tcat  # noqa: E402

from inputs import (catalog_doc, dumps, gauge_doc, label_permutation,  # noqa: E402
                    permute_labels, vec_zn_doc)
from workloads import checked  # noqa: E402

DIAGNOSTICS = ("validate", "smatrix", "muger")


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def main() -> None:
    for n, k in [(3, 1), (3, 0), (4, 1), (4, 0)]:
        doc = vec_zn_doc(n, k)
        check(tcat.validate(tcat.loads_category(dumps(doc))).ok,
              f"{doc['name']} validates")

    docs = [vec_zn_doc(3, 0), vec_zn_doc(4, 1), vec_zn_doc(7, 1),
            catalog_doc("ising"), catalog_doc("vec_z3_modular")]
    for seed in range(3):
        rng = random.Random(seed)
        for doc in docs:
            text = dumps(permute_labels(doc, label_permutation(len(doc["labels"]), rng)))
            _cat, bad = checked(text, DIAGNOSTICS, 0)
            check(not bad, f"{doc['name']} relabeled (seed {seed}) meets its "
                           f"references {bad or ''}")
    text = dumps(permute_labels(vec_zn_doc(3, 0), [0, 2, 1]))
    _cat, bad = checked(text, ("center", "factorize"), 1)
    check(not bad, f"vec_z3_sym relabeled meets its center references {bad or ''}")

    for name in ("fibonacci", "ising"):
        gauged = gauge_doc(catalog_doc(name), random.Random(7))
        check(tcat.validate(tcat.loads_category(dumps(gauged))).ok,
              f"{name} validates after a phase gauge")

    doc = catalog_doc("fibonacci")
    for rec in doc["F"]:
        if (rec["a"], rec["b"], rec["c"], rec["d"], rec["e"], rec["f"]) == (1, 1, 1, 1, 1, 1):
            rec["re"] += 1e-3
    _cat, bad = checked(dumps(doc), DIAGNOSTICS, 0)
    check(bool(bad), f"a perturbed F-symbol is a gate failure ({'; '.join(bad)})")

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, unit, _fn in SPAN_METRICS}
    reported.update(OTHER_METRICS)
    check(declared == reported,
          "BENCHMARK.json per_layer names and units match the traced metrics "
          f"{sorted(set(declared.items()) ^ set(reported.items())) or ''}")


if __name__ == "__main__":
    main()
