"""The product of the category with its braid-reversed copy.

An object is an ordered sum of slots ``X [x] Y``, each an exterior product
of two engine objects, and its simples are the label pairs (s, s').  A
morphism is stored the way the engine stores one, as a matrix per simple
sector: the block at (s, s') maps the source's

    Hom((s, s'), D) = (+)_slots Hom(s, X) (x) Hom(s', Y)

to the target's, with the slots stacked in order and each slot's factor
laid out as ``np.kron`` (``engine._kron``, the layout of ``engine.tensor``).
Hom spaces factor slotwise by construction, which is the defining property
of the exterior product.  Composition, distance and the identity defect
are the engine's.  Where each slot starts is read off one integer
array per object and category, kept on the object, not in the category's
cache (``DelignePair``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .category import CategoryData
from . import engine as E

__all__ = ["DelignePair", "DeligneMorphism", "pair_object", "pair_morphism",
           "deligne_identity", "deligne_compose", "deligne_defect",
           "deligne_distance"]


@dataclass(frozen=True)
class DelignePair:
    """An object of the exterior square: an ordered sum of slots (X, Y).

    Its layout in a category is ``starts[t, s, s']``, the running sum over
    the slots before t of dim Hom(s, X) dim Hom(s', Y); the last row is the
    grading.  It is built once per category and freed with the pair."""

    slots: tuple
    _starts: dict = field(default_factory=dict, compare=False, repr=False)

    def _layout(self, cat: CategoryData) -> np.ndarray:
        hit = self._starts.get(cat)
        if hit is None:
            n = cat.n_labels
            hit = np.zeros((len(self.slots) + 1, n, n), dtype=int)
            for t, (X, Y) in enumerate(self.slots):
                np.add(hit[t], np.multiply.outer(E._sector_dims(cat, X),
                                                 E._sector_dims(cat, Y)),
                       out=hit[t + 1])
            self._starts[cat] = hit
        return hit

    def starts(self, cat: CategoryData, k: tuple) -> np.ndarray:
        return self._layout(cat)[:, k[0], k[1]]

    def dim_sector(self, cat: CategoryData, k: tuple) -> int:
        return int(self._layout(cat)[-1][k])

    def grading(self, cat: CategoryData) -> dict:
        """Multiplicity of each simple label pair (s, s')."""
        return {(s, t): m for s, row in enumerate(self._layout(cat)[-1].tolist())
                for t, m in enumerate(row) if m}

    def slot_pairs(self, cat: CategoryData) -> list:
        """Per slot, the simple pairs (x, y) with Hom(x, X) x Hom(y, Y) != 0."""
        return [[(x, y) for x, m in enumerate(E._sector_dims(cat, X)) if m
                 for y, n in enumerate(E._sector_dims(cat, Y)) if n]
                for X, Y in self.slots]


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
    """The exterior product f [x] g, f_s (x) g_s' at (s, s'), placed at one
    slot pair (``DeligneMorphism.assemble``)."""
    source = source or pair_object(f.source, g.source)
    target = target or pair_object(f.target, g.target)
    blocks = {(s, sp): E._kron(fb, gb) for s, fb in f.blocks.items()
              for sp, gb in g.blocks.items() if fb.size and gb.size}
    return DeligneMorphism.assemble(cat, source, target, [
        [DeligneMorphism(cat, DelignePair((Ss,)), DelignePair((St,)),
                         blocks if (t, s) == (t_slot, s_slot) else {})
         for s, Ss in enumerate(source.slots)]
        for t, St in enumerate(target.slots)])


def deligne_identity(cat: CategoryData, D: DelignePair) -> DeligneMorphism:
    return DeligneMorphism(cat, D, D, {k: np.eye(n, dtype=complex)
                                       for k, n in D.grading(cat).items()})


deligne_compose = E.compose
deligne_distance = E.distance
deligne_defect = E.defect_from_identity
