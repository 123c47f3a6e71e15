"""The product of the category with its braid-reversed copy.

Objects are ordered lists of slots ``X (x) Y`` (an exterior product of two
engine objects); a morphism holds, per (target-slot, source-slot) pair and
per sector pair (s, s'), the 4-index array of an element of

    Hom(X, X') (x) Hom(Y, Y')

in the fusion-tree bases, with axes (target-X, source-X, target-Y,
source-Y).  Hom spaces factor slotwise by construction, which is the
defining property of the exterior product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .category import CategoryData
from .errors import CompositionError, ShapeError
from . import engine as E

__all__ = ["DelignePair", "DeligneMorphism", "pair_object", "pair_morphism",
           "deligne_identity", "deligne_compose", "deligne_defect",
           "deligne_distance"]


@dataclass(frozen=True)
class DelignePair:
    """An object of the exterior square: an ordered sum of slots (X, Y)."""

    slots: tuple

    def grading(self, cat: CategoryData) -> dict:
        """Multiplicity of each simple label pair (a, b)."""
        out: dict = {}
        for (X, Y) in self.slots:
            dX = X.sector_dims(cat)
            dY = Y.sector_dims(cat)
            for a, ma in dX.items():
                if not ma:
                    continue
                for b, mb in dY.items():
                    if not mb:
                        continue
                    out[(a, b)] = out.get((a, b), 0) + ma * mb
        return out

    def hom_dim(self, cat: CategoryData, other: "DelignePair") -> int:
        g1 = self.grading(cat)
        g2 = other.grading(cat)
        return sum(m * g2.get(p, 0) for p, m in g1.items())

    def describe(self, cat: CategoryData) -> str:
        if not self.slots:
            return "0"
        return " + ".join(f"{X.describe(cat)} [x] {Y.describe(cat)}"
                          for (X, Y) in self.slots)


def pair_object(X, Y) -> DelignePair:
    return DelignePair(((E.as_object(X), E.as_object(Y)),))


@dataclass
class DeligneMorphism:
    """Morphism between sums of exterior-product slots.

    ``blocks[(t_slot, s_slot)][(s, s')]`` is a 4-index array with axes
    (row of Hom(s, X_t), column of Hom(s, X_s), row of Hom(s', Y_t),
    column of Hom(s', Y_s)).  Missing entries are zero.
    """

    cat: CategoryData
    source: DelignePair
    target: DelignePair
    blocks: dict

    def block(self, t_slot: int, s_slot: int, s: int, sp: int) -> np.ndarray:
        b = self.blocks.get((t_slot, s_slot), {}).get((s, sp))
        if b is not None:
            return b
        Xt, Yt = self.target.slots[t_slot]
        Xs, Ys = self.source.slots[s_slot]
        cat = self.cat
        return np.zeros((Xt.dim_sector(cat, s), Xs.dim_sector(cat, s),
                         Yt.dim_sector(cat, sp), Ys.dim_sector(cat, sp)),
                        dtype=complex)

    def __add__(self, other: "DeligneMorphism") -> "DeligneMorphism":
        if self.source != other.source or self.target != other.target:
            raise CompositionError("cannot add: slot structures differ")
        keys = set(self.blocks) | set(other.blocks)
        out = {}
        for key in keys:
            secs = set(self.blocks.get(key, {})) | set(other.blocks.get(key, {}))
            out[key] = {sec: self.block(*key, *sec) + other.block(*key, *sec)
                        for sec in secs}
        return DeligneMorphism(self.cat, self.source, self.target, out)

    def __mul__(self, scalar) -> "DeligneMorphism":
        z = complex(scalar)
        return DeligneMorphism(
            self.cat, self.source, self.target,
            {key: {sec: arr * z for sec, arr in secs.items()}
             for key, secs in self.blocks.items()})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)

    def norm(self) -> float:
        """Max over slot pairs and sector pairs of the spectral norm."""
        worst = 0.0
        for secs in self.blocks.values():
            for arr in secs.values():
                if arr.size:
                    worst = max(worst, E._spectral_norm(_as_matrix(arr)))
        return worst


def _as_matrix(arr: np.ndarray) -> np.ndarray:
    """A block's 4-index array as the matrix Hom(s, X_s) x Hom(s', Y_s) ->
    Hom(s, X_t) x Hom(s', Y_t)."""
    a, b, c, d = arr.shape
    return arr.transpose(0, 2, 1, 3).reshape(a * c, b * d)


def pair_morphism(cat: CategoryData, f: E.Morphism, g: E.Morphism,
                  source: DelignePair | None = None,
                  target: DelignePair | None = None,
                  t_slot: int = 0, s_slot: int = 0) -> DeligneMorphism:
    """The exterior product f [x] g, placed at one slot pair."""
    source = source or pair_object(f.source, g.source)
    target = target or pair_object(f.target, g.target)
    secs = {}
    for s in range(cat.n_labels):
        fb = f.block(s)
        if fb.size == 0:
            continue
        for sp in range(cat.n_labels):
            gb = g.block(sp)
            if gb.size == 0:
                continue
            secs[(s, sp)] = np.einsum("ab,cd->abcd", fb, gb)
    return DeligneMorphism(cat, source, target, {(t_slot, s_slot): secs})


def deligne_identity(cat: CategoryData, D: DelignePair) -> DeligneMorphism:
    blocks = {}
    for idx, (X, Y) in enumerate(D.slots):
        secs = {}
        for s in range(cat.n_labels):
            dx = X.dim_sector(cat, s)
            if not dx:
                continue
            for sp in range(cat.n_labels):
                dy = Y.dim_sector(cat, sp)
                if not dy:
                    continue
                secs[(s, sp)] = np.einsum(
                    "ab,cd->abcd", np.eye(dx, dtype=complex),
                    np.eye(dy, dtype=complex))
        blocks[(idx, idx)] = secs
    return DeligneMorphism(cat, D, D, blocks)


def deligne_compose(g: DeligneMorphism, f: DeligneMorphism) -> DeligneMorphism:
    """g after f, contracting over middle slots and hom indices."""
    if f.target != g.source:
        raise CompositionError("cannot compose: middle slot structures differ")
    cat = f.cat
    out: dict = {}
    for (t2, m2), gsecs in g.blocks.items():
        for (m1, s1), fsecs in f.blocks.items():
            if m1 != m2:
                continue
            dest = out.setdefault((t2, s1), {})
            for sec in set(gsecs) & set(fsecs):
                # contract the middle X index (b) and middle Y index (d)
                prod = np.einsum("abcd,bedf->aecf", gsecs[sec], fsecs[sec])
                if sec in dest:
                    dest[sec] = dest[sec] + prod
                else:
                    dest[sec] = prod
    return DeligneMorphism(cat, f.source, g.target, out)


def deligne_distance(f: DeligneMorphism, g: DeligneMorphism) -> float:
    if f.source != g.source or f.target != g.target:
        raise ShapeError("cannot compare: slot structures differ")
    return (f - g).norm()


def deligne_defect(f: DeligneMorphism) -> float:
    """Distance from the identity of an endomorphism: the largest spectral
    norm over the blocks of f - 1, with the identity subtracted block by
    block (at a diagonal slot it is the unit matrix of every sector pair)."""
    if f.source != f.target:
        raise ShapeError("identity defect of a non-endomorphism")
    cat = f.cat
    worst = 0.0
    diagonal = set()
    for idx, (X, Y) in enumerate(f.source.slots):
        secs = f.blocks.get((idx, idx), {})
        dY = E._sector_dims(cat, Y)
        for s, dx in enumerate(E._sector_dims(cat, X)):
            for sp, dy in enumerate(dY):
                if dx and dy:
                    diagonal.add((idx, s, sp))
                    arr = secs.get((s, sp))
                    eye = np.eye(dx * dy)
                    worst = max(worst, E._spectral_norm(
                        -eye if arr is None else _as_matrix(arr) - eye))
    for (t_slot, s_slot), secs in f.blocks.items():
        for sec, arr in secs.items():
            if arr.size and (t_slot != s_slot
                             or (t_slot, *sec) not in diagonal):
                worst = max(worst, E._spectral_norm(_as_matrix(arr)))
    return worst
