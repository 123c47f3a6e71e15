"""S-matrix, modularity verdict, and the Muger center of transparent objects.

Both are read off the data: on the channel z of x (x) y the double braiding
c_{Y,X} c_{X,Y} is R(y,x,z) R(x,y,z) (``_monodromy``), so
S[x, y] = sum_z N_{xy}^z d_z R(y,x,z) R(x,y,z).  This holds only where the
F-matrices are invertible, so ``s_matrix`` inverts each one first.
``double_braiding`` draws the monodromy for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData, _fold
from .errors import InvalidCategoryError
from . import engine as E

__all__ = ["SMatrix", "ModularityVerdict", "MugerReport",
           "s_matrix", "is_modular", "muger_center", "double_braiding"]


@dataclass(eq=False)
class SMatrix:
    """Unnormalized S-matrix: s[x, y] = Tr(c_{Y,X} c_{X,Y})
    = sum_z N_{xy}^z d_z R(y,x,z) R(x,y,z), for invertible F-matrices."""

    entries: np.ndarray
    rank: int
    det: complex

    def as_dict(self) -> dict:
        return {
            "entries": [[[v.real, v.imag] for v in row] for row in self.entries],
            "rank": self.rank,
            "det": [self.det.real, self.det.imag],
        }


@dataclass
class ModularityVerdict:
    modular: bool
    rank: int
    n_labels: int
    det_abs: float

    def as_dict(self) -> dict:
        return {"modular": self.modular, "rank": self.rank,
                "n_labels": self.n_labels, "det_abs": self.det_abs}


@dataclass
class MugerReport:
    """Transparent labels and per-label monodromy defects.

    A label x is transparent when the double braiding with every simple is
    the identity; the unit always is.  Its defect is
    max_{y,z} |R(y,x,z) R(x,y,z) - 1|, read after ``s_matrix`` has refused
    a singular F-matrix.  ``s_row_consistent`` records the equivalent
    S-matrix criterion s_{XY} = dim(X) dim(Y).
    """

    transparent: list
    monodromy_defects: list
    s_row_consistent: bool

    def as_dict(self) -> dict:
        return {"transparent": self.transparent,
                "monodromy_defects": self.monodromy_defects,
                "s_row_consistent": self.s_row_consistent}


def _monodromy(cat: CategoryData, x: int, y: int, z: int) -> complex:
    """The eigenvalue of c_{Y,X} c_{X,Y} on the channel z of x (x) y."""
    return cat.r.get(y, x, z) * cat.r.get(x, y, z)


def double_braiding(cat: CategoryData, x: int, y: int) -> E.Morphism:
    """Monodromy c_{Y,X} o c_{X,Y} : X (x) Y -> X (x) Y on simples, drawn."""
    X, Y = E.ObjectExpr.simple(x), E.ObjectExpr.simple(y)
    return E.compose(E.braiding(cat, Y, X), E.braiding(cat, X, Y))


def s_matrix(cat: CategoryData) -> SMatrix:
    """The S-matrix, built once per category and shared by every caller, so
    its ``entries`` are read-only.  Raises ``InvalidCategoryError`` if an
    F-matrix is singular or not finite, or if an entry is not finite (NaN
    or infinite input data)."""
    def build():
        # a singular F-matrix is refused here, a non-finite one below
        invs = [cat.f.inverse(*tree)[0]
                for tree in sorted({key[:4] for key in cat.f.entries})]
        n = cat.n_labels
        S = np.zeros((n, n), dtype=complex)
        for x, y, z in cat.ring.triples():
            S[x, y] += cat.dim(z) * _monodromy(cat, x, y, z)
        if not (np.isfinite(S).all() and all(np.isfinite(m).all() for m in invs)):
            raise InvalidCategoryError(
                f"S-matrix of '{cat.name}' has non-finite entries; "
                "the F-, R- or pivotal data are not finite")
        S.flags.writeable = False
        sv = np.linalg.svd(S, compute_uv=False)
        cutoff = cat.tol.eps_identity * (sv[0] if sv.size else 0.0)
        rank = int(np.sum(sv > cutoff))
        return SMatrix(entries=S, rank=rank, det=complex(np.linalg.det(S)))

    return E._cached(cat, "s_matrix", build)


def is_modular(cat: CategoryData) -> ModularityVerdict:
    S = s_matrix(cat)
    n = cat.n_labels
    return ModularityVerdict(modular=(S.rank == n), rank=S.rank,
                             n_labels=n, det_abs=abs(S.det))


def muger_center(cat: CategoryData) -> MugerReport:
    n = cat.n_labels
    eps = cat.tol.eps_identity
    S = s_matrix(cat).entries  # first: it rejects singular or non-finite data
    defects = [0.0] * n
    for x, y, z in cat.ring.triples():
        defects[x] = _fold(defects[x], abs(_monodromy(cat, x, y, z) - 1))
    transparent = [x for x in range(n) if defects[x] < eps]
    # cross-check: X transparent iff its S-row is dim(X) dim(Y)
    consistent = True
    for x in range(n):
        row_flat = max(abs(S[x, y] - cat.dim(x) * cat.dim(y)) for y in range(n))
        if (row_flat < eps) != (x in transparent):
            consistent = False
    return MugerReport(transparent=transparent, monodromy_defects=defects,
                       s_row_consistent=consistent)
