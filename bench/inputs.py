"""Seeded input documents for the benchmark.

Every input is a category document in the package's JSON file schema; the
benchmark hands the program nothing else.  Documents come from three
sources:

* ``vec_zn_doc``: pointed categories Vec_{Z_n} with trivial associator and
  the braiding R(a, b) = exp(2 pi i k a b / n).  ``k = 1`` is the
  bicharacter braiding (modular for odd n; for n = 4 it is R = i^{ab},
  premodular with Muger center {0, 2}); ``k = 0`` is the symmetric one.
* ``catalog_doc``: a serialized built-in catalog entry.
* ``gauge_doc``: a seeded vertex-phase gauge transform of any document.

``permute_labels`` relabels the non-unit simples by a seeded permutation.
Label names travel with their objects, so every reference that is stated
in label names (``references.json``) holds for every seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random


def vec_zn_doc(n: int, k: int) -> dict:
    """Vec_{Z_n}, trivial F, R(a, b) = exp(2 pi i k a b / n), pivotal 1."""
    name = f"vec_z{n}_bichar" if k else f"vec_z{n}_sym"
    F = [{"a": a, "b": b, "c": c, "d": (a + b + c) % n, "e": (a + b) % n,
          "f": (b + c) % n, "re": 1.0, "im": 0.0}
         for a in range(n) for b in range(n) for c in range(n)]
    R = []
    for a in range(n):
        for b in range(n):
            z = cmath.exp(2j * math.pi * ((k * a * b) % n) / n)
            R.append({"a": a, "b": b, "c": (a + b) % n,
                      "re": z.real, "im": z.imag})
    return {
        "name": name,
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "fusion": [[a, b, (a + b) % n] for a in range(n) for b in range(n)],
        "F": F,
        "R": R,
        "pivotal": [{"i": a, "re": 1.0, "im": 0.0} for a in range(n)],
    }


def catalog_doc(name: str) -> dict:
    """The serialized form of a built-in catalog entry."""
    import tcat

    return json.loads(tcat.serialize_category(tcat.catalog(name)))


def label_permutation(n: int, rng: random.Random) -> list:
    """A permutation of range(n) that fixes the unit label 0."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


def permute_labels(doc: dict, perm: list) -> dict:
    """Relabel simple ``a`` as ``perm[a]``; names move with their objects."""
    p = perm
    labels = [None] * len(p)
    dual = [None] * len(p)
    for a, name in enumerate(doc["labels"]):
        labels[p[a]] = name
        dual[p[a]] = p[doc["dual"][a]]
    out = dict(doc)
    out["labels"] = labels
    out["dual"] = dual
    out["fusion"] = sorted([p[i], p[j], p[k]] for i, j, k in doc["fusion"])
    out["F"] = [dict(rec, **{x: p[rec[x]] for x in "abcdef"}) for rec in doc["F"]]
    out["R"] = [dict(rec, **{x: p[rec[x]] for x in "abc"}) for rec in doc["R"]]
    out["pivotal"] = [dict(rec, i=p[rec["i"]]) for rec in doc["pivotal"]]
    return out


def gauge_doc(doc: dict, rng: random.Random) -> dict:
    """Apply seeded phase gauges u^{ab}_c = exp(i theta) to F and R.

    u = 1 on unit legs (a or b is the unit) and on the unit channel
    (c = 0), so the unit-leg records and the duality normalization keep
    their exact values.  The transformed symbols are

        F'[a,b,c,d][e,f] = u^{ab}_e u^{ec}_d / (u^{bc}_f u^{af}_d) F[a,b,c,d][e,f]
        R'[a,b,c]        = u^{ab}_c / u^{ba}_c R[a,b,c]

    Phases are added as angles, so a factor whose angles cancel is exactly 1.
    """
    theta = {}
    for a, b, c in sorted(tuple(t) for t in doc["fusion"]):
        theta[(a, b, c)] = 0.0 if 0 in (a, b, c) else rng.uniform(-math.pi, math.pi)

    def rotate(rec, angle):
        z = complex(rec["re"], rec["im"]) * cmath.exp(1j * angle)
        return dict(rec, re=z.real, im=z.imag)

    out = dict(doc)
    out["F"] = [rotate(r, theta[(r["a"], r["b"], r["e"])] + theta[(r["e"], r["c"], r["d"])]
                       - theta[(r["b"], r["c"], r["f"])] - theta[(r["a"], r["f"], r["d"])])
                for r in doc["F"]]
    out["R"] = [rotate(r, theta[(r["a"], r["b"], r["c"])] - theta[(r["b"], r["a"], r["c"])])
                for r in doc["R"]]
    return out


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)
