"""The product of the category with its braid-reversed copy.

An object is an ordered sum of slots ``X [x] Y``, each an exterior product
of two engine objects, and its simples are the label pairs (s, s').  A
morphism is stored the way the engine stores one, as a matrix per simple
sector: the block at (s, s') maps the source's

    Hom((s, s'), D) = (+)_slots Hom(s, X) (x) Hom(s', Y)

to the target's, with the slots stacked in order and each slot's factor
laid out as ``np.kron`` (``engine._kron``, the layout of ``engine.tensor``).
Hom spaces factor slotwise by construction, which is the defining property
of the exterior product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .category import CategoryData
from .errors import CompositionError
from . import engine as E

__all__ = ["DelignePair", "DeligneMorphism", "pair_object", "pair_morphism",
           "deligne_identity", "deligne_compose", "deligne_defect",
           "deligne_distance"]


@dataclass(frozen=True)
class DelignePair:
    """An object of the exterior square: an ordered sum of slots (X, Y)."""

    slots: tuple

    def _layout(self, cat: CategoryData) -> dict:
        """``{(s, s'): starts}`` over the non-empty simple pairs: where each
        slot's Hom(s, X) x Hom(s', Y) starts in Hom((s, s'), D), with
        dim Hom((s, s'), D) last."""
        def build():
            dims = [(E._sector_dims(cat, X), E._sector_dims(cat, Y))
                    for X, Y in self.slots]
            out = {}
            for s in range(cat.n_labels):
                for sp in range(cat.n_labels):
                    starts = tuple(accumulate(
                        (dX[s] * dY[sp] for dX, dY in dims), initial=0))
                    if starts[-1]:
                        out[(s, sp)] = starts
            return out

        return E._cached(cat, ("pair_layout", self.slots), build)

    def starts(self, cat: CategoryData, k: tuple) -> tuple:
        return (self._layout(cat).get(k)
                or (0,) * (len(self.slots) + 1))

    def dim_sector(self, cat: CategoryData, k: tuple) -> int:
        return self.starts(cat, k)[-1]

    def grading(self, cat: CategoryData) -> dict:
        """Multiplicity of each simple label pair (s, s')."""
        return {k: starts[-1] for k, starts in self._layout(cat).items()}

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


class DeligneMorphism(E.Morphism):
    """Morphism between sums of exterior-product slots: ``blocks[(s, s')]``
    maps Hom((s, s'), source) -> Hom((s, s'), target) (module docstring).
    Missing blocks are zero."""

    def slot_block(self, t_slot: int, s_slot: int, k: tuple) -> np.ndarray:
        """The part of the block at k = (s, s') from source slot ``s_slot``
        to target slot ``t_slot``."""
        rt = self.target.starts(self.cat, k)
        rs = self.source.starts(self.cat, k)
        return self.block(k)[rt[t_slot]:rt[t_slot + 1],
                             rs[s_slot]:rs[s_slot + 1]]


def pair_morphism(cat: CategoryData, f: E.Morphism, g: E.Morphism,
                  source: DelignePair | None = None,
                  target: DelignePair | None = None,
                  t_slot: int = 0, s_slot: int = 0) -> DeligneMorphism:
    """The exterior product f [x] g, placed at one slot pair: f_s (x) g_s'
    at (s, s')."""
    source = source or pair_object(f.source, g.source)
    target = target or pair_object(f.target, g.target)
    blocks = {}
    for s, fb in f.blocks.items():
        for sp, gb in g.blocks.items():
            if not (fb.size and gb.size):
                continue
            prod = E._kron(fb, gb)
            rt, rs = target.starts(cat, (s, sp)), source.starts(cat, (s, sp))
            if prod.shape != (rt[-1], rs[-1]):
                blk = np.zeros((rt[-1], rs[-1]), dtype=complex)
                blk[rt[t_slot]:rt[t_slot + 1], rs[s_slot]:rs[s_slot + 1]] = prod
                prod = blk
            blocks[(s, sp)] = prod
    return DeligneMorphism(cat, source, target, blocks)


def deligne_identity(cat: CategoryData, D: DelignePair) -> DeligneMorphism:
    return DeligneMorphism(cat, D, D, {k: np.eye(n, dtype=complex)
                                       for k, n in D.grading(cat).items()})


def deligne_compose(g: DeligneMorphism, f: DeligneMorphism) -> DeligneMorphism:
    """g after f, one matrix product per simple pair."""
    if f.target != g.source:
        raise CompositionError("cannot compose: middle slot structures differ")
    return DeligneMorphism(f.cat, f.source, g.target,
                           {k: g.blocks[k] @ fb for k, fb in f.blocks.items()
                            if k in g.blocks})


deligne_distance = E.distance
deligne_defect = E.defect_from_identity
