import pytest

from tcat import catalog

ALL_NAMES = ["trivial", "fibonacci", "ising", "semion", "vec_z2_sym",
             "vec_z3_modular"]
MODULAR_NAMES = ["trivial", "fibonacci", "ising", "semion", "vec_z3_modular"]
DEGENERATE_NAME = "vec_z2_sym"


@pytest.fixture(scope="session")
def cats():
    """Catalog instances, shared session-wide so recoupling caches persist."""
    return {name: catalog(name) for name in ALL_NAMES}


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
