import cmath
import itertools
import math
import re

import numpy as np
import pytest

from tcat import catalog, engine as E
from tcat.category import category_to_dict

ALL_NAMES = ["trivial", "fibonacci", "ising", "semion", "vec_z2_sym",
             "vec_z3_modular"]
MODULAR_NAMES = ["trivial", "fibonacci", "ising", "semion", "vec_z3_modular"]
DEGENERATE_NAME = "vec_z2_sym"


@pytest.fixture(scope="session")
def cats():
    """Catalog instances, shared session-wide so recoupling caches persist."""
    return {name: catalog(name) for name in ALL_NAMES}


def input_doc(cats: dict, name: str) -> dict:
    """The document of a named test input: a catalog entry, "vec_z<n>_k<k>"
    (``vec_zn_doc``), "su2_<k>" or "so3_<k>" with an optional "_signed"
    (``su2_doc``), a Deligne product "C*D" of catalog entries
    (``product_doc``), or a catalog entry under a phase ("name@seed") or
    non-unitary ("name#seed") vertex gauge (``phase_gauge``)."""
    pointed = re.fullmatch(r"vec_z(\d+)_k(\d+)", name)
    if pointed:
        return vec_zn_doc(*map(int, pointed.groups()))
    racah = re.fullmatch(r"(su2|so3)_(\d+)(_signed)?", name)
    if racah:
        kind, k, signed = racah.groups()
        return su2_doc(int(k), kind == "so3", -1 if signed else 1)
    if "*" in name:
        return product_doc(*(category_to_dict(cats[n]) for n in name.split("*")))
    base, mark, seed = re.fullmatch(r"(\w+?)(?:([@#])(\d+))?", name).groups()
    doc = category_to_dict(cats[base])
    return phase_gauge(doc, int(seed), modulus=(mark == "#")) if mark else doc


def vec_zn_doc(n: int, k: int = 1, pivotal: dict | None = None) -> dict:
    """Vec_{Z_n} with trivial F, R(a, b) = exp(2 pi i k a b / n) and the
    pivotal coefficients ``pivotal`` (1 on every label not given)."""
    pivotal = pivotal or {}
    return {
        "name": f"vec_z{n}_k{k}",
        "labels": [str(a) for a in range(n)],
        "dual": [(-a) % n for a in range(n)],
        "fusion": [[a, b, (a + b) % n] for a in range(n) for b in range(n)],
        "F": [{"a": a, "b": b, "c": c, "d": (a + b + c) % n,
               "e": (a + b) % n, "f": (b + c) % n, "re": 1.0, "im": 0.0}
              for a in range(n) for b in range(n) for c in range(n)],
        "R": [{"a": a, "b": b, "c": (a + b) % n,
               "re": math.cos(2 * math.pi * k * a * b / n),
               "im": math.sin(2 * math.pi * k * a * b / n)}
              for a in range(n) for b in range(n)],
        "pivotal": [{"i": a, "re": pivotal.get(a, 1.0), "im": 0.0}
                    for a in range(n)],
    }


def phase_gauge(doc: dict, seed: int, modulus: bool = False) -> dict:
    """Seeded vertex factors u^{ab}_c applied to F and R (u = 1 on unit legs
    and on the unit channel); the gauged category is equivalent.

    Each u is a phase e^{i theta}; with ``modulus`` it is r e^{i theta} with
    r drawn from [0.5, 2], a non-unitary gauge.
    """
    rng = np.random.default_rng(seed)
    u = {}
    for t in sorted(tuple(t) for t in doc["fusion"]):
        if 0 in t:
            u[t] = 1.0
            continue
        u[t] = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if modulus:
            u[t] *= rng.uniform(0.5, 2.0)

    def scale(rec, factor):
        z = complex(rec["re"], rec["im"]) * factor
        return dict(rec, re=z.real, im=z.imag)

    out = dict(doc)
    out["F"] = [scale(r, u[r["a"], r["b"], r["e"]] * u[r["e"], r["c"], r["d"]]
                      / (u[r["b"], r["c"], r["f"]] * u[r["a"], r["f"], r["d"]]))
                for r in doc["F"]]
    out["R"] = [scale(r, u[r["a"], r["b"], r["c"]] / u[r["b"], r["a"], r["c"]])
                for r in doc["R"]]
    return out


def product_doc(C: dict, D: dict) -> dict:
    """The Deligne product C [x] D of two category documents.

    Labels are pairs (c, d), numbered c * rank(D) + d, so the unit stays 0;
    duals and fusion triples pair up, and the F-, R- and pivotal
    coefficients multiply entrywise.
    """
    n = len(D["labels"])

    def pair(c, d):
        return c * n + d

    def cross(key, legs):
        out = []
        for r in C[key]:
            for s in D[key]:
                z = complex(r["re"], r["im"]) * complex(s["re"], s["im"])
                out.append({**{k: pair(r[k], s[k]) for k in legs},
                            "re": z.real, "im": z.imag})
        return out

    return {
        "name": f"{C['name']}*{D['name']}",
        "labels": [f"({c},{d})" for c in C["labels"] for d in D["labels"]],
        "dual": [pair(c, d) for c in C["dual"] for d in D["dual"]],
        "fusion": [[pair(a, x), pair(b, y), pair(c, z)]
                   for a, b, c in C["fusion"] for x, y, z in D["fusion"]],
        "F": cross("F", "abcdef"),
        "R": cross("R", "abc"),
        "pivotal": cross("pivotal", "i"),
    }


def su2_doc(k: int, so3: bool = False, pivotal_sign: int = 1) -> dict:
    """SU(2)_k, or its integer-spin part SO(3)_k, from the q-Racah formula.

    Labels are the spins j <= k/2 (integer spins only for SO(3)_k), named
    and ordered by 2j.  With [n] = sin(pi n/(k+2)) / sin(pi/(k+2)) and
    q = exp(2 pi i/(k+2)):

        F(a,b,c,d; e,f) = (-1)^{a+b+c+d} sqrt([2e+1][2f+1]) {a b e; c d f}_q,
        R(a,b,c)        = (-1)^{c-a-b} q^{(c(c+1) - a(a+1) - b(b+1))/2},

    the q-6j symbol being the Racah sum over the triads (a,b,e), (a,d,f),
    (c,b,f) and (c,d,e).  The pivotal coefficient of j is 1, or (-1)^{2j}
    with ``pivotal_sign=-1`` (Kirillov-Reshetikhin 1989; Bonderson, PhD
    thesis 2007, section 5.4).  Below, every spin is held as 2j.
    """
    spins = range(0, k + 1, 2 if so3 else 1)
    ids = {s: n for n, s in enumerate(spins)}

    def qint(n):
        return math.sin(math.pi * n / (k + 2)) / math.sin(math.pi / (k + 2))

    def qfact(n):
        return math.prod(qint(m) for m in range(1, n + 1))

    def ok(a, b, c):
        return (abs(a - b) <= c <= min(a + b, 2 * k - a - b)
                and (a + b + c) % 2 == 0)

    def delta(a, b, c):
        legs = (a + b - c, a - b + c, b + c - a)
        return math.sqrt(math.prod(qfact(n // 2) for n in legs)
                         / qfact((a + b + c) // 2 + 1))

    def six_j(a, b, e, c, d, f):
        triads = [(a, b, e), (a, d, f), (c, b, f), (c, d, e)]
        quads = [a + b + c + d, b + e + d + f, e + a + f + c]
        lo, hi = max(map(sum, triads)) // 2, min(quads) // 2
        return math.prod(delta(*t) for t in triads) * sum(
            (-1) ** z * qfact(z + 1)
            / math.prod(qfact(z - sum(t) // 2) for t in triads)
            / math.prod(qfact(s // 2 - z) for s in quads)
            for z in range(lo, hi + 1))

    def record(legs, z):
        return {**{key: ids[s] for key, s in legs.items()},
                "re": z.real, "im": z.imag}

    F, R = [], []
    for a, b, c, d, e, f in itertools.product(spins, repeat=6):
        if ok(a, b, e) and ok(e, c, d) and ok(b, c, f) and ok(a, f, d):
            z = ((-1) ** ((a + b + c + d) // 2) * six_j(a, b, e, c, d, f)
                 * math.sqrt(qint(e + 1) * qint(f + 1)))
            F.append(record(dict(a=a, b=b, c=c, d=d, e=e, f=f), complex(z)))
    for a, b, c in itertools.product(spins, repeat=3):
        if ok(a, b, c):
            z = (-1) ** ((c - a - b) // 2) * cmath.exp(
                2j * math.pi * (c * (c + 2) - a * (a + 2) - b * (b + 2))
                / (8 * (k + 2)))
            R.append(record(dict(a=a, b=b, c=c), z))
    return {
        "name": f"{'so3' if so3 else 'su2'}_{k}"
                + ("" if pivotal_sign == 1 else "_signed"),
        "labels": [str(s) for s in spins],
        "dual": list(range(len(spins))),
        "fusion": [[ids[a], ids[b], ids[c]]
                   for a, b, c in itertools.product(spins, repeat=3)
                   if ok(a, b, c)],
        "F": F,
        "R": R,
        "pivotal": [{"i": ids[s], "re": float(pivotal_sign ** s), "im": 0.0}
                    for s in spins],
    }


def nonassociative_doc() -> dict:
    """A loadable document on a fusion ring that is not associative.

    Labels 1, x, y, all self-dual, with x x = 1 + x, x y = y x = y and
    y y = 1, so (x x) y = 2 y but x (x y) = y.  Every admissible F- and
    R-symbol and every pivotal coefficient is 1.
    """
    triples = [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 0),
               (1, 1, 1), (1, 2, 2), (2, 0, 2), (2, 1, 2), (2, 2, 0)]
    fuse = set(triples)

    def one(**legs):
        return {**legs, "re": 1.0, "im": 0.0}

    return {
        "name": "nonassociative",
        "labels": ["1", "x", "y"],
        "dual": [0, 1, 2],
        "fusion": [list(t) for t in triples],
        "F": [one(a=a, b=b, c=c, d=d, e=e, f=f)
              for a, b, c, d, e, f in itertools.product(range(3), repeat=6)
              if {(a, b, e), (e, c, d), (b, c, f), (a, f, d)} <= fuse],
        "R": [one(a=a, b=b, c=c) for a, b, c in triples],
        "pivotal": [one(i=i) for i in range(3)],
    }


def random_morphism(cat, X, Y, rng: np.random.Generator):
    """A morphism X -> Y with standard complex normal entries in every
    sector both objects hold."""
    X, Y = E.as_object(X), E.as_object(Y)
    blocks = {}
    for k in range(cat.n_labels):
        dt, ds = Y.dim_sector(cat, k), X.dim_sector(cat, k)
        if dt and ds:
            blocks[k] = (rng.standard_normal((dt, ds))
                         + 1j * rng.standard_normal((dt, ds)))
    return E.Morphism(cat, X, Y, blocks)


def random_endomorphism(cat, X, rng: np.random.Generator):
    return random_morphism(cat, X, X, rng)


def inclusion(cat, X, si: int, copy: int):
    """Canonical inclusion of the (si, copy) word summand into X (the
    package places summands without it; tests assemble references from
    it)."""
    w, _m = X.summands[si]
    src = E.ObjectExpr.word(w)
    blocks = {}
    for k in range(cat.n_labels):
        rows = E.sector_basis(cat, X, k)
        cols = E.sector_basis(cat, src, k)
        if not rows or not cols:
            continue
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for cn, (_s0, _c0, tree) in enumerate(cols):
            mat[rows.index((si, copy, tree)), cn] = 1.0
        blocks[k] = mat
    return E.Morphism(cat, src, X, blocks)


def projection(cat, X, si: int, copy: int):
    inc = inclusion(cat, X, si, copy)
    return E.Morphism(cat, X, inc.source,
                      {k: b.T.copy() for k, b in inc.blocks.items()})
