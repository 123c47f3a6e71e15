"""S-matrix, modularity verdict, and the Muger center of transparent objects."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData
from .errors import InvalidCategoryError
from . import engine as E

__all__ = ["SMatrix", "ModularityVerdict", "MugerReport",
           "s_matrix", "is_modular", "muger_center", "double_braiding"]


@dataclass
class SMatrix:
    """Unnormalized S-matrix: s[X, Y] = Tr(c_{Y,X} c_{X,Y})."""

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

    A label is transparent when the double braiding with every simple is
    the identity; the unit always is.  ``s_row_consistent`` records the
    equivalent S-matrix criterion s_{XY} = dim(X) dim(Y).
    """

    transparent: list
    monodromy_defects: list
    s_row_consistent: bool

    def as_dict(self) -> dict:
        return {"transparent": self.transparent,
                "monodromy_defects": self.monodromy_defects,
                "s_row_consistent": self.s_row_consistent}


def double_braiding(cat: CategoryData, x: int, y: int) -> E.Morphism:
    """Monodromy c_{Y,X} o c_{X,Y} : X (x) Y -> X (x) Y on simples."""
    X, Y = E.ObjectExpr.simple(x), E.ObjectExpr.simple(y)
    return E.compose(E.braiding(cat, Y, X), E.braiding(cat, X, Y))


def s_matrix(cat: CategoryData) -> SMatrix:
    """The S-matrix, built once per category and shared by every caller, so
    its ``entries`` are read-only.  Raises ``InvalidCategoryError`` if an
    entry is not finite (NaN or infinite input data)."""
    def build():
        n = cat.n_labels
        S = np.zeros((n, n), dtype=complex)
        for x in range(n):
            for y in range(x, n):
                v = E.quantum_trace(cat, double_braiding(cat, x, y))
                S[x, y] = v
                S[y, x] = v
        if not np.isfinite(S).all():
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
    S = s_matrix(cat).entries  # first: it rejects non-finite data
    defects = []
    for x in range(n):
        worst = 0.0
        for y in range(n):
            worst = max(worst, E.defect_from_identity(double_braiding(cat, x, y)))
        defects.append(worst)
    transparent = [x for x in range(n) if defects[x] < eps]
    # cross-check: X transparent iff its S-row is dim(X) dim(Y)
    consistent = True
    for x in range(n):
        row_flat = max(abs(S[x, y] - cat.dim(x) * cat.dim(y)) for y in range(n))
        if (row_flat < eps) != (x in transparent):
            consistent = False
    return MugerReport(transparent=transparent, monodromy_defects=defects,
                       s_row_consistent=consistent)
