"""Built-in skeletal category data.

Each entry is generated in code from its standard presentation: fusion
rules, the non-trivial F/R-symbols, and pivotal coefficients.  Unit-leg
F/R entries are filled in as 1, so every table is complete in the sense
of the file schema.  All entries pass `validate`.

The degenerate entry ``vec_z2_sym`` (group category with symmetric
braiding) is the stock example of a premodular category that is *not*
modular; the remaining entries are modular.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .category import (CategoryData, FSymbolTable, FusionRing, PivotalCoeffs,
                       RSymbolTable, SimpleLabel, load_category)
from .errors import UnknownCategoryError

__all__ = ["catalog", "catalog_names", "CATALOG_DIR_ENV"]

CATALOG_DIR_ENV = "TCAT_CATALOG_DIR"


def _assemble(name, label_names, dual, triples, f_nontrivial, r_nontrivial,
              pivotal):
    """Build CategoryData, completing F/R tables over all admissible keys."""
    n = len(label_names)
    ring = FusionRing(n, triples)
    f_entries = {(*tree, e, f): complex(f_nontrivial.get((*tree, e, f), 1.0))
                 for tree, (rows, cols) in ring.trees().items()
                 for e in rows for f in cols}
    r_entries = {}
    for a in range(n):
        for b in range(n):
            for c in ring.fusion(a, b):
                key = (a, b, c)
                r_entries[key] = complex(r_nontrivial.get(key, 1.0))
    return CategoryData(
        name=name,
        labels=tuple(SimpleLabel(i, nm) for i, nm in enumerate(label_names)),
        dual=tuple(dual),
        ring=ring,
        f=FSymbolTable(ring, f_entries),
        r=RSymbolTable(r_entries),
        piv=PivotalCoeffs(t=tuple(complex(t) for t in pivotal)),
    )


def _trivial():
    return _assemble("trivial", ["1"], [0], [(0, 0, 0)], {}, {}, [1.0])


def _fibonacci():
    # labels 0 = 1, 1 = tau;  tau x tau = 1 + tau
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    f = {
        (1, 1, 1, 1, 0, 0): 1.0 / phi,
        (1, 1, 1, 1, 0, 1): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 0): 1.0 / math.sqrt(phi),
        (1, 1, 1, 1, 1, 1): -1.0 / phi,
    }
    r = {
        (1, 1, 0): np.exp(-4j * np.pi / 5.0),
        (1, 1, 1): np.exp(3j * np.pi / 5.0),
    }
    return _assemble("fibonacci", ["1", "tau"], [0, 1], triples, f, r, [1.0, 1.0])


def _ising():
    # labels 0 = 1, 1 = sigma, 2 = psi;  sigma^2 = 1 + psi, psi^2 = 1
    s = 1.0 / math.sqrt(2.0)
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (0, 2, 2), (2, 0, 2),
               (1, 1, 0), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0)]
    f = {
        (1, 1, 1, 1, 0, 0): s,
        (1, 1, 1, 1, 0, 2): s,
        (1, 1, 1, 1, 2, 0): s,
        (1, 1, 1, 1, 2, 2): -s,
        (1, 2, 1, 2, 1, 1): -1.0,
        (2, 1, 2, 1, 1, 1): -1.0,
    }
    r = {
        (1, 1, 0): np.exp(-1j * np.pi / 8.0),
        (1, 1, 2): np.exp(3j * np.pi / 8.0),
        (1, 2, 1): -1j,
        (2, 1, 1): -1j,
        (2, 2, 0): -1.0,
    }
    return _assemble("ising", ["1", "sigma", "psi"], [0, 1, 2], triples, f, r,
                     [1.0, 1.0, 1.0])


def _semion():
    # Z2 fusion with the non-trivial associator; R(s,s;1) = i gives the
    # modular (chiral) semion.  The pivotal coefficient -1 keeps dim(s) = +1.
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    f = {(1, 1, 1, 1, 0, 0): -1.0}
    r = {(1, 1, 0): 1j}
    return _assemble("semion", ["1", "s"], [0, 1], triples, f, r, [1.0, -1.0])


def _vec_z2_sym():
    # Z2 fusion, trivial associator, symmetric braiding: the Muger center is
    # everything, so this entry is maximally degenerate (not modular).
    triples = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return _assemble("vec_z2_sym", ["1", "g"], [0, 1], triples, {}, {(1, 1, 0): 1.0},
                     [1.0, 1.0])


def _vec_z3_modular():
    # Z3 fusion with trivial associator and the quadratic-form braiding
    # R(a,b) = w^(ab), w = exp(2 pi i / 3); non-degenerate, hence modular.
    w = np.exp(2j * np.pi / 3.0)
    triples = [(a, b, (a + b) % 3) for a in range(3) for b in range(3)]
    r = {(a, b, (a + b) % 3): w ** (a * b) for a in range(1, 3) for b in range(1, 3)}
    return _assemble("vec_z3_modular", ["1", "w", "w2"], [0, 2, 1], triples, {}, r,
                     [1.0, 1.0, 1.0])


_BUILDERS = {
    "trivial": _trivial,
    "fibonacci": _fibonacci,
    "ising": _ising,
    "semion": _semion,
    "vec_z2_sym": _vec_z2_sym,
    "vec_z3_modular": _vec_z3_modular,
}

_instances: dict = {}


def _catalog_dir_entries() -> dict:
    root = os.environ.get(CATALOG_DIR_ENV)
    if not root or not os.path.isdir(root):
        return {}
    out = {}
    for fn in sorted(os.listdir(root)):
        if fn.endswith(".json"):
            out[fn[:-5]] = os.path.join(root, fn)
    return out


def catalog_names() -> list:
    """All catalog names: built-ins plus any files in $TCAT_CATALOG_DIR."""
    names = sorted(_BUILDERS)
    for extra in sorted(_catalog_dir_entries()):
        if extra not in _BUILDERS:
            names.append(extra)
    return names


def catalog(name: str) -> CategoryData:
    """Return a catalog category by name.

    Built-in data is generated in code; user files from $TCAT_CATALOG_DIR
    extend the namespace but cannot shadow built-ins.  Built-in instances
    are cached and shared (CategoryData is immutable).
    """
    if name in _BUILDERS:
        if name not in _instances:
            _instances[name] = _BUILDERS[name]()
        return _instances[name]
    extras = _catalog_dir_entries()
    if name in extras:
        return load_category(extras[name])
    raise UnknownCategoryError(
        f"unknown category {name!r}; available: {', '.join(catalog_names())}")
