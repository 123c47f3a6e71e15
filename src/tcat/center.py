"""The Drinfeld center, the tautological functor into it, and its explicit
inverse.

A center object is a pair (X, gamma) of an object with a half-braiding:
an invertible, tensorial family gamma_j : j (x) X -> X (x) j.  The square
of the category maps into the center by the tautological functor

    F : X [x] Y  |->  (X (x) Y, braid-past-X (x) reverse-braid-past-Y),

and an inverse direction is built from coupling idempotents: for a simple
``i`` and a center object (X, gamma) the loop colored by the regular color
around the i and X strands (attached to the half-braiding on X) is, after
division by the global dimension, an idempotent on i (x) X.  Its image
objects assemble into the inverse functor

    G(X, gamma) = (+)_i  i* [x] image_i.

The loop is never drawn on i (x) X (x) j.  It is linear in gamma_j, and
the ambient braidings are natural in every alpha : a -> X, so it is
assembled from gamma_j's crossing blocks (below) in the product basis
Hom(b, i X) = (+)_a Hom(b, i a) x Hom(a, X) and from one table of loops
around i (x) a per category (``coupling_gamma``).  That table is read off
the F- and R-symbols (``_loop_table``): for a tube channel j a -> a2 j
through c,

    w_i(j,a,a2,c)[b] = d_j/D^2 sum_{s in b j} kappa(j,b,s) R(b,j,s)
                       Finv(i,a2,j,s; c,b)
                       sum_{e in j i} Finv(j,i,a,s; b,e) R(j,i,e) F(i,j,a,s; e,c),

with kappa the closing scalar of ``engine._loop_weight``.

A half-braiding is stored in one form (``HalfBraiding``), its crossing
blocks G_j[c][(a2,j) <- (j,a)] : Hom(a, X) -> Hom(a2, X) on the channels
j a -> a2 j through c.  With the product transforms Q of the engine, they
are the channel blocks of Qinv(X, j, c) gamma_j[c] Q(j, X, c) for a combed
gamma (``engine._channel_blocks``), and gamma_j[c] = Q(X, j, c) G_j[c]
Qinv(j, X, c) is combed from them when read (``engine._recouple``); only
the engine reads the layout of those bases.  The X of a center simple is a
letter sum (``engine._letter_sum``), so both transforms are identities:
it is born with its blocks, the sub-blocks of the gamma_j[c] that
``_object_from_module`` inverts.  F(X [x] Y) builds the blocks
without gamma: the braidings are natural in alpha : x -> X and
beta : y -> Y, so on the channel j (x y)_a -> (x y)_{a2} j through c its
crossing is the scalar (``_crossing_table``)

    h_j^{xy}(c; a -> a2) = sum_{e in j x, f in j y} Finv(j,x,y,c; a,e) R(j,x,e)
                           F(x,j,y,c; e,f) / R(y,j,f) Finv(x,y,j,c; f,a2)

on Hom(a, x y) and the identity on Hom(x, X) x Hom(y, Y), so each slot
holds Q(X,Y,a2) ((+)_{(x,y)} h 1) Qinv(X,Y,a) in the block
(``HalfBraiding.stack``).
The coupling loop of an F object is therefore contracted with h once per
category, over the loop entries (j, a, a2, c, w) of i (x) a at sector b
(``_f_loop_table``):

    t_i^{xy}[b](a -> a2) = sum_{(j, a, a2, c, w)} w h_j^{xy}(c; a -> a2).

The functors come with natural transformations in both directions whose
composites are measured against the identity: the composite back into the
square is the identity unconditionally; the other three composites are
identities exactly in the modular case, and their defect norms quantify
the failure of invertibility for degenerate inputs.  Each pair is built in
one loop over the coupling slots i (``_square_transforms``,
``_center_transforms``).  The square-side composites are measured on the
simple pairs u [x] s alone: every exterior product of words is a direct sum
of them, q o d is natural, so a scalar on each, and d o q on a word pair is
conjugate to its simple-pair values times the multiplicities
(``invertibility_report``).  With w = sqrt(d_i), phi_l a basis of Hom(X, i*)
and phi^l its trace dual,

    d = sum_{i,l} (w phi_l) [x] proj_i ((1_i (x) phi^l) coev_i (x) 1_Y),
    q = sum_{i,l} (w phi^l) [x] (ev'_i (1_i (x) phi_l) (x) 1_Y) incl_i,
    b = stack_i        w (1_{i*} (x) proj_i) (coev'_i (x) 1_X),
    p = side-by-side_i w (ev_i (x) 1_X) (1_{i*} (x) incl_i).

At each sector s of X a slot of b and p is one product: the recoupled
(1_{i*} (x) proj_i)[s] or (1_{i*} (x) incl_i)[s] (``engine._recouple``)
with the sector-s block of the leg coev'_i (x) 1_X or ev_i (x) 1_X,
cached per (X, i) (``_center_legs``).

Slot i of G F(X [x] Y) lives at the sectors (i*, s) alone.  As
sum_l phi^l[i*] phi_l[i*] = 1/d_{i*} for any basis, the legs (``_legs``)
are the (i, i*) channel Q_i of Q(i, X, 0) (``engine._channel``) and its
inverse, scaled by the duality scalars (1 at the unit):

    L_d = w coev_i / d_{i*} Q_i,    L_q = w ev'_i / d_{i*} Q_i^-1.

With ch the (0, s) channel of Q = Q(i X, Y, s) and Q1 = Q(1, Y, s) each
block is one product:

    d[(i*, s)] = proj_i[s] Q[:, ch] (L_d (x) Q1^-1),
    q[(i*, s)] = (L_q (x) Q1) Qinv[ch, :] incl_i[s].

Simple center objects are materialized through the tube algebra (the
annular category on one marked point) and verified rather than trusted:
every returned object passes the half-braiding axioms at tolerance.  The
product of x = (a1,j1,b1,c1) after y = (a2,j2,a1,c2) is read off the
F-symbols as well (``tube_algebra``):

    structure[x, y, (a2,l,b1,s)] = F(j1,j2,a2,s; l,c2) Finv(j1,a1,j2,s; c2,c1)
                                   F(b1,j1,j2,s; c1,l).

The half-braiding axioms are checked on the crossing blocks G_j[c]
(``verify_center_object``).  Tensoriality at the simples j, k compares,
at sector s, the map from the channel (m, a) of j k X to the combed basis
((a3 j)_e k)_s of X j k of the stacked crossings (an F-move to
j (k a)_c, gamma_k, an inverse F-move to (j a2)_e k, gamma_j)

    stacked  = sum_{c,a2} F(j,k,a,s; m,c) Finv(j,a2,k,s; c,e)
               G_j[e][(a3,j) <- (j,a2)] G_k[c][(a2,k) <- (k,a)]

with the crossing of the fused channel m, resolved into that basis,
resolved = Finv(a3,j,k,s; m,e) G_m[s][(a3,m) <- (m,a)].  The simples are
sorted by the traces of
gamma_j o c_{X,j} (``_center_sort_key``): the engine's braiding is the
R-swap conjugated by the same product transforms, and a trace does not
change under similarity, so

    Tr(gamma_j c_{X,j}) = sum_c d_c sum_a R(a,j,c) tr G_j[c][(a,j) <- (j,a)].

``F(a,b,c,d; e,f)`` is ``FSymbolTable.get`` (e in a b, f in b c) and
``Finv(a,b,c,d; f,e)`` is ``FSymbolTable.inverse_get``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .category import (CategoryData, _condition, _fold, _inverse, _or_nan,
                       _svd)
from .errors import (DecompositionError, IdempotencyError,
                     InvalidCategoryError, ShapeError)
from . import engine as E
from .deligne import DeligneMorphism, DelignePair, pair_morphism, pair_object
from .modularity import is_modular

__all__ = [
    "HalfBraiding", "CenterObject", "CenterReport", "CouplingIdempotent",
    "TubeAlgebra", "FactorizationReport",
    "verify_center_object", "functor_F", "functor_F_on_morphism",
    "coupling_gamma", "functor_G", "functor_G_on_morphism",
    "transform_d", "transform_q", "transform_b", "transform_p",
    "nat_transforms", "center_hom_dim", "tube_algebra", "center_simples",
    "invertibility_report", "zc_morphism_defect",
]


# ----------------------------------------------------------------------
# center objects
# ----------------------------------------------------------------------

class HalfBraiding(Mapping):
    """The crossings gamma_j : j (x) X -> X (x) j of a center object.

    They are stored as the crossing blocks of the module docstring,
    ``blocks = {(j, c, a2, a): G_j[c][(a2,j) <- (j,a)]}``, and a combed
    gamma_j not given is built from them when read (``engine._recouple``).
    Where X is a letter sum (``engine._letter_sum``) the product transforms
    of X and j are identities, so G_j[c] is gamma_j[c] cut into blocks;
    ``center_simples`` passes these ``blocks`` at birth.  Otherwise the
    blocks are built on first read, in one of two ways:

    - ``HalfBraiding(X, mats)`` takes combed morphisms ``{j: gamma_j}`` (the
      category is theirs) and reads the channel blocks of each gamma_j[c]
      (``engine._channel_blocks``);
    - ``functor_F`` passes the ``pair`` X [x] Y, a sum of slots
      (X_s, Y_s), and the blocks are stacked from the crossing table
      (``stack``) over its ``slot_pairs``.  Both are None otherwise.

    The blocks and the combed gamma built here are read-only, and two
    half-braidings compare by identity.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, X: E.ObjectExpr, mats: Mapping | None = None, *,
                 cat: CategoryData | None = None,
                 pair: DelignePair | None = None, blocks: dict | None = None):
        if cat is None:
            if not mats:
                raise ValueError("a half-braiding needs combed mats or a "
                                 "category")
            cat = next(iter(mats.values())).cat
        self.X, self.cat, self.pair = X, cat, pair
        self.slot_pairs = pair.slot_pairs(cat) if pair is not None else None
        self._combed, self._blocks = dict(mats or {}), blocks
        E._read_only(tuple((blocks or {}).values()))

    def stack(self, terms) -> dict:
        """``{key: block}``, block Hom(a, X) -> Hom(a2, X): per slot, the
        sum of t Q(X_s,Y_s,a2)[:, xy] Qinv(X_s,Y_s,a)[xy, :] over the pairs
        xy and the ``(key, a, a2, t) in terms(*xy)`` (``engine._channel``),
        one product of the scaled columns and the stacked rows."""
        cat, out = self.cat, {}
        dims, start = E._sector_dims(cat, self.X), [0] * cat.n_labels
        for (X, Y), pairs in zip(self.pair.slots, self.slot_pairs):
            parts = {}
            for xy in pairs:
                for key, a, a2, t in terms(*xy):
                    parts.setdefault((key, a, a2), []).append(
                        (t * E._channel(cat, X, Y, a2, xy)[0],
                         E._channel(cat, X, Y, a, xy)[1]))
            for (key, a, a2), factors in parts.items():
                cols, rows = zip(*factors)
                K = np.hstack(cols) @ np.vstack(rows)
                out.setdefault(key, np.zeros((dims[a2], dims[a]), dtype=complex))[
                    start[a2]:start[a2] + len(K), start[a]:start[a] + K.shape[1]] += K
            start = [s + d for s, d in zip(start, E._sector_dims(cat, X.tensor(Y)))]
        return out

    def _stack_crossings(self) -> dict:
        cat = self.cat
        return self.stack(lambda x, y: (
            ((j, c, a2, a), a, a2, h) for j in range(cat.n_labels)
            for (c, a, a2), h in _crossing_table(cat, j, x, y).items()))

    def _slice_combed(self) -> dict:
        cat, X = self.cat, self.X
        out = {}
        for j in range(cat.n_labels):
            J = E.ObjectExpr.simple(j)
            for c, n in enumerate(E._sector_dims(cat, X.tensor(J))):
                if n:
                    G = self._combed[j].block(c)
                    for ((a2, _), (_, a)), g in E._channel_blocks(
                            cat, J, X, X, J, c, G).items():
                        out[(j, c, a2, a)] = g
        return out

    @property
    def blocks(self) -> dict:
        """G_j[c][(a2,j) <- (j,a)] of the module docstring, keyed
        ``(j, c, a2, a)``."""
        if self._blocks is None:
            self._blocks = (self._slice_combed() if self.pair is None
                            else self._stack_crossings())
            E._read_only(tuple(self._blocks.values()))
        return self._blocks

    def __getitem__(self, j: int) -> E.Morphism:
        hit = self._combed.get(j)
        if hit is None:
            if j not in self:
                raise KeyError(j)
            cat, X, J = self.cat, self.X, E.ObjectExpr.simple(j)
            mids = {}
            for (jj, c, a2, a), g in self.blocks.items():
                if jj == j:
                    mids.setdefault(c, []).append(((a2, j), (j, a), g))
            hit = self._combed[j] = E.Morphism(cat, J.tensor(X), X.tensor(J), {
                c: E._recouple(cat, J, X, X, J, c, mid)
                for c, mid in sorted(mids.items())})
            E._read_only(hit)
        return hit

    def __contains__(self, j) -> bool:
        return j in range(self.cat.n_labels)

    def __iter__(self):
        return iter(range(self.cat.n_labels))

    def __len__(self) -> int:
        return self.cat.n_labels


@dataclass(eq=False)
class CenterObject:
    """A pair (X, gamma) with gamma a half-braiding on X."""

    X: E.ObjectExpr
    gamma: HalfBraiding
    _couplings: dict = field(default_factory=dict, repr=False)


@dataclass
class CenterReport:
    """Residuals of the half-braiding axioms."""

    unit_residual: float
    tensoriality_residual: float
    max_condition: float
    ok: bool


def verify_center_object(cat: CategoryData, obj: CenterObject) -> CenterReport:
    """Check unit normalization, tensoriality and invertibility.

    Tensoriality, for every pair of simples (j, k): stacking the crossings,
    (gamma_j (x) 1_k)(1_j (x) gamma_k) : j k X -> X j k, must equal
    resolving j k through each channel m and crossing with gamma_m.  Both
    sides are read off the crossing blocks G (``HalfBraiding.blocks``) at
    sector s, from Hom(s, m a) x Hom(a, X) into the combed basis
    ((a3 j)_e k)_s of X j k (the formulas are in the module docstring),
    over the non-empty channels only.  The columns of their difference D
    are carried to the combed basis of j k X by the inverse product
    transforms Q(m, X, s)^-1 of the channels m (``engine._combed_columns``;
    the identity on a center simple), and the residual is the largest
    spectral norm of the result.  Up to permutations of rows and columns,
    Q(X, j k, s) is Finv(a3, j, k, s) (x) 1 on each Hom(a3, X) and
    Q(j k, X, s) is (+)_m Q(m, X, s), so this is the number that drawing
    both sides with the engine's diagrams gives, and no product transform
    of a word j k is built.  No half-braiding axiom is assumed in reading
    G, so a broken gamma fails here.  The unit residual is the distance of
    gamma_0 from the identity, and the condition number is the largest
    over gamma's sector blocks.
    """
    X, gamma = obj.X, obj.gamma
    ring, F = cat.ring, cat.f
    eps = cat.tol.eps_identity
    unit_res = E.distance(gamma[0], E.identity(cat, X))
    blocks = gamma.blocks
    into = {}  # a2 -> [(j, c, a, block)]: the crossings ending on a2
    for (j, c, a2, a), g in blocks.items():
        into.setdefault(a2, []).append((j, c, a, g))
    # (j, k, s, (a3, e), (m, a)) -> that block of stacked - resolved
    terms = {(j, k, s, (a3, e), (m, a)): -f * g
             for (m, s, a3, a), g in blocks.items() for j, k in ring.pairs(m)
             for inv, ms, es in (F.inverse(a3, j, k, s),)
             for e, f in zip(es, inv[ms.index(m)]) if f}
    for (j, e, a3, a2), gj in blocks.items():
        for k, c, a, gk in into.get(a2, ()):
            g = gj @ gk
            for s in ring.fusion(e, k):
                f2 = F.inverse_get(j, a2, k, s, c, e)
                for m in ring.fusion(j, k):
                    f = F.get(j, k, a, s, m, c) * f2
                    if f:
                        key = (j, k, s, (a3, e), (m, a))
                        terms[key] = terms.get(key, 0) + f * g
    mids = {}
    for (j, k, s, row, col), blk in terms.items():
        mids.setdefault((j, k, s), {}).setdefault(row, []).append((col, blk))
    worst, dims = 0.0, E._sector_dims(cat, X)
    for (j, k, s), rows in mids.items():
        # rows (a3, e) in turn; columns on the channels of (+)_m m (x) X
        top = list(accumulate((dims[a3] for a3, _e in rows), initial=0))
        fused = E.ObjectExpr(tuple(((m,) if m else (), 1) for m in ring.fusion(j, k)))
        D = E._combed_columns(cat, fused, X, s, top[-1], [
            (slice(t, t + dims[a3]), col, blk)
            for t, ((a3, _e), cols) in zip(top, rows.items()) for col, blk in cols])
        worst = _fold(worst, _or_nan(E._spectral_norm, D))
    cond = 1.0
    for j in range(cat.n_labels):
        for k, b in gamma[j].blocks.items():
            if b.size:
                cond = _fold(cond, _or_nan(_condition, b))
    ok = unit_res < eps and worst < eps and math.isfinite(cond)
    return CenterReport(unit_residual=unit_res, tensoriality_residual=worst,
                        max_condition=cond, ok=ok)


def _intertwining_residual(cat: CategoryData, f: E.Morphism,
                           src: CenterObject, tgt: CenterObject,
                           j: int) -> E.Morphism:
    """(f (x) 1_j) o gamma_j - beta_j o (1_j (x) f) for f : X -> Y."""
    id_j = E.identity(cat, E.ObjectExpr.simple(j))
    return (E.compose(E.tensor(f, id_j), src.gamma[j])
            - E.compose(tgt.gamma[j], E.tensor(id_j, f)))


def zc_morphism_defect(cat: CategoryData, f: E.Morphism, src: CenterObject,
                       tgt: CenterObject) -> float:
    """How far f : X -> Y is from intertwining the half-braidings.

    Zero (within tolerance) iff f is a morphism of the center, i.e.
    (f (x) 1_j) o gamma_j = beta_j o (1_j (x) f) for every simple j.
    """
    return max(_intertwining_residual(cat, f, src, tgt, j).norm()
               for j in range(cat.n_labels))


#: The intertwiner constraints are built from O(1) data, so a genuine
#: constraint direction has a singular value of order one and noise one of
#: order machine epsilon; this floor (scaled by the largest singular value
#: when that exceeds one) sits far between the two.
_INTERTWINER_RANK_CUTOFF = 1e-6


def center_hom_dim(cat: CategoryData, a: CenterObject, b: CenterObject) -> int:
    """Dimension of the hom space in the center between two objects."""
    rows = []
    units = []
    for k in range(cat.n_labels):
        ds = a.X.dim_sector(cat, k)
        dt = b.X.dim_sector(cat, k)
        for r in range(dt):
            for c in range(ds):
                blocks = {k: np.zeros((dt, ds), dtype=complex)}
                blocks[k][r, c] = 1.0
                units.append(E.Morphism(cat, a.X, b.X, blocks))
    if not units:
        return 0
    labels = range(cat.n_labels)
    for u in units:
        resids = [_intertwining_residual(cat, u, a, b, j) for j in labels]
        rows.append(np.concatenate([r.block(k).ravel()
                                    for r in resids for k in labels]))
    mat = np.array(rows).T
    if mat.size == 0:
        return len(units)
    sv = np.linalg.svd(mat, compute_uv=False)
    cutoff = _INTERTWINER_RANK_CUTOFF * max(1.0, float(sv[0]))
    rank = int(np.sum(sv > cutoff))
    return len(units) - rank


# ----------------------------------------------------------------------
# the tautological functor
# ----------------------------------------------------------------------

def _crossing_table(cat: CategoryData, j: int, x: int, y: int) -> dict:
    """The crossing of j through x (x) y, ``{(c, a, a2): h}``.

    h is the coefficient of (1_x (x) c^{-1}_{y,j}) (c_{j,x} (x) 1_y) on the
    channel j (x y)_a -> (x y)_{a2} j at sector c (the formula is in the
    module docstring): an inverse F-move to (j x)_e y, c_{j,x} acting as
    R(j,x,e), an F-move to x (j y)_f, c^{-1}_{y,j} acting as 1/R(y,j,f) and
    an inverse F-move to (x y)_{a2} j.  It depends on the category alone
    and is built once per (j, x, y).
    """
    def build():
        ring, F, R = cat.ring, cat.f, cat.r
        table = {}
        for a in ring.fusion(x, y):
            for c in ring.fusion(j, a):
                for a2 in ring.fusion(x, y):
                    if not ring.admissible(a2, j, c):
                        continue
                    table[(c, a, a2)] = sum(
                        F.inverse_get(j, x, y, c, a, e) * R.get(j, x, e)
                        * F.get(x, j, y, c, e, f) / R.get(y, j, f)
                        * F.inverse_get(x, y, j, c, f, a2)
                        for e in ring.fusion(j, x) for f in ring.fusion(j, y))
        return table

    return E._cached(cat, ("crossing", j, x, y), build)


def functor_F(cat: CategoryData, D) -> CenterObject:
    """The tautological functor on objects of the exterior square.

    F(X [x] Y) = (X (x) Y, gamma) with gamma_j = (1_X (x) c^{-1}_{Y,j})
    (c_{j,X} (x) 1_Y), braid past X and reverse-braid past Y.  No diagram
    is evaluated: the half-braiding keeps the slots in product bases
    (``HalfBraiding``), and its crossing blocks (module docstring) and
    combed gamma are built on first read, which ``invertibility_report``
    never does.  Nothing is memoized: each call builds a new object, and
    its coupling idempotents live on it and are freed with it.
    """
    if not isinstance(D, DelignePair):
        D = pair_object(*D)
    total = E.ObjectExpr.direct_sum([X.tensor(Y) for (X, Y) in D.slots])
    return CenterObject(X=total, gamma=HalfBraiding(total, cat=cat, pair=D))


def functor_F_on_morphism(cat: CategoryData, m: DeligneMorphism) -> E.Morphism:
    """The tautological functor on morphisms, f [x] g |-> f (x) g: each
    slot pair's blocks at the simple pairs are its channel blocks, recoupled
    as ``engine.tensor`` recouples (``engine._recouple_channels``), and the
    slot pairs are laid out by ``Morphism.assemble``."""
    grid = [[E.Morphism(cat, Xs.tensor(Ys), Xt.tensor(Yt), E._recouple_channels(
        cat, Xs, Ys, Xt, Yt, {p: m.slot_block(t, s, p) for p in m.blocks}))
        for s, (Xs, Ys) in enumerate(m.source.slots)]
        for t, (Xt, Yt) in enumerate(m.target.slots)]
    return E.Morphism.assemble(
        cat, E.ObjectExpr.direct_sum([X.tensor(Y) for X, Y in m.source.slots]),
        E.ObjectExpr.direct_sum([X.tensor(Y) for X, Y in m.target.slots]), grid)


# ----------------------------------------------------------------------
# coupling idempotents
# ----------------------------------------------------------------------

@dataclass(eq=False)
class CouplingIdempotent:
    """The normalized regular-color loop around i (x) X, with its image.

    ``gamma_mor`` is the idempotent on i (x) X; ``incl o proj`` recovers it
    and ``proj o incl`` is the identity of the image object.
    """

    i: int
    gamma_mor: E.Morphism
    image: E.ObjectExpr
    incl: E.Morphism
    proj: E.Morphism
    idempotency_residual: float


#: The nonzero singular values of an idempotent are at least 1 (it is the
#: identity on its image) and the others vanish up to roundoff, so the image
#: rank counts the singular values above this midpoint.
_IMAGE_SINGULAR_VALUE = 0.5


def _loop_table(cat: CategoryData, i: int) -> dict:
    """The regular-color loop around i (x) a, one tube channel at a time.

    Returns ``{b: [(j, a, a2, c, w), ...]}`` over every simple a and every
    tube channel ``tau : j a -> a2 j`` through c, where ``w`` is d_j / D^2
    times the sector-b entry of

        close_j( (1_i (x) tau) o (c_{j,i} (x) 1_a) o c_{i a, j} ) : i a -> i a2.

    It is read off the F- and R-symbols.  By naturality c_{i a, j} acts on
    ((i a)_b j)_s as R(b,j,s); an F-move to (j i)_e a lets c_{j,i} act as
    R(j,i,e); an F-move to i (j a)_c lets tau pick c; an inverse F-move
    returns to ((i a2)_b j)_s, where j closes with kappa(j, b, s)
    (``engine._loop_weight``):

        w = d_j/D^2 sum_{s in b j} kappa(j,b,s) R(b,j,s) Finv(i,a2,j,s; c,b)
              sum_{e in j i} Finv(j,i,a,s; b,e) R(j,i,e) F(i,j,a,s; e,c).

    It depends on the category alone, so it is built once per label i and
    shared by every center object.
    """
    def build():
        ring, F, R = cat.ring, cat.f, cat.r
        table = {}
        for j in range(cat.n_labels):
            weight = cat.dim(j) / cat.total_dim
            for a in range(cat.n_labels):
                for c in ring.fusion(j, a):
                    for a2 in range(cat.n_labels):
                        if not ring.admissible(a2, j, c):
                            continue
                        for b in ring.fusion(i, a):
                            if not ring.admissible(i, a2, b):
                                continue
                            w = sum(
                                E._loop_weight(cat, j, b, s) * R.get(b, j, s)
                                * F.inverse_get(i, a2, j, s, c, b)
                                * sum(F.inverse_get(j, i, a, s, b, e)
                                      * R.get(j, i, e) * F.get(i, j, a, s, e, c)
                                      for e in ring.fusion(j, i))
                                for s in ring.fusion(b, j))
                            table.setdefault(b, []).append(
                                (j, a, a2, c, weight * w))
        return table

    return E._cached(cat, ("coupling_loops", i), build)


#: A loop entry counts as vanishing below this fraction of eps_identity:
#: an entry t_i^{xy}[b](a -> a2) of F objects, or an entry of a center
#: simple's loop block P_b.  Entries of a zero-image sector are sums of O(1)
#: products cancelling to roundoff (near 1e-16); the blocks they feed pass
#: through O(1) product transforms, so dropping them moves a coupling by far
#: less than the eps_identity its idempotency check allows, while a sector
#: with non-zero image has loop entries of order one.
_VANISHING_LOOP_ENTRY = 1e-3


def _f_loop_table(cat: CategoryData, i: int, x: int, y: int) -> dict:
    """The coupling loop of ``_loop_table`` contracted with the crossing of
    j through x (x) y (``_crossing_table``), ``{b: {(a, a2): t}}``:

        t_i^{xy}[b](a -> a2) = sum_{(j, a, a2, c, w) in _loop_table(i)[b]}
                               w h_j^{xy}(c; a -> a2),

    without the vanishing entries (``_VANISHING_LOOP_ENTRY``).  It depends
    on the category alone and is shared by every F object.
    """
    def build():
        crossings = [_crossing_table(cat, j, x, y)
                     for j in range(cat.n_labels)]
        table = {}
        for b, entries in _loop_table(cat, i).items():
            row = table[b] = {}
            for j, a, a2, c, w in entries:
                h = crossings[j].get((c, a, a2))
                if h is not None:
                    row[(a, a2)] = row.get((a, a2), 0) + w * h
        cut = _VANISHING_LOOP_ENTRY * cat.tol.eps_identity
        table = {b: {key: t for key, t in row.items() if abs(t) > cut}
                 for b, row in table.items()}
        return {b: row for b, row in table.items() if row}

    return E._cached(cat, ("f_loops", i, x, y), build)


def _f_loop_blocks(cat: CategoryData, i: int, obj: CenterObject,
                   b: int) -> dict:
    """An F object's loop block at sector b, ``{(a2, a): P_b[(a2 <- a)]}``:
    per slot, Q(X,Y,a2) ((+)_{(x,y)} t_i^{xy}[b](a -> a2) 1) Qinv(X,Y,a)
    (``HalfBraiding.stack``)."""
    return obj.gamma.stack(lambda x, y: (
        ((a2, a), a, a2, t)
        for (a, a2), t in _f_loop_table(cat, i, x, y).get(b, {}).items()))


def _gamma_loop_blocks(cat: CategoryData, i: int, obj: CenterObject,
                       b: int) -> dict:
    """The loop block at sector b read off the crossing blocks,
    ``{(a2, a): sum_{j,c} T_i(j,a,a2,c)[b] G_j[c][(a2,j),(j,a)]}``."""
    crossings = obj.gamma.blocks
    P = {}
    for j, a, a2, c, w in _loop_table(cat, i).get(b, ()):
        g = crossings.get((j, c, a2, a))
        if g is not None:
            P[(a2, a)] = P.get((a2, a), 0) + w * g
    return P


def coupling_gamma(cat: CategoryData, i: int, obj: CenterObject) -> CouplingIdempotent:
    """Build the coupling idempotent for a simple i and a center object.

    The loop colored by the regular color encircles the i and X strands,
    crossing X through the half-braiding and i through the ambient
    braiding; division by the global dimension makes it idempotent:

        gamma_mor = sum_j d_j / D^2 close_j((1_i (x) gamma_j)
                                            (c_{j,i} (x) 1_X) c_{i X, j}).

    No diagram is drawn on i (x) X (x) j.  In the product basis
    Hom(b, i X) = (+)_a Hom(b, i a) x Hom(a, X) the sector-b block is
    ``Q P_b Qinv`` with Q the product transform of i (x) X at b
    (``engine._recouple``) and

        P_b[(i,a2),(i,a)] = sum_{j,c} T_i(j,a,a2,c)[b] G_j[c][(a2,j),(j,a)],

    with G_j[c] the crossing blocks (``HalfBraiding.blocks``) and T_i the loop
    around i (x) a through the tube channel a -> a2 (``_loop_table``).  An
    F object regroups the same sum through the per-category table t_i^{xy}
    of the module docstring, stacked per slot (``_f_loop_blocks``).  A
    sector whose loop entries all vanish (``_VANISHING_LOOP_ENTRY``) has no
    block, recoupling or SVD.  The sum is exact: the loop is
    linear in gamma_j; c_{i X, j} and c_{j,i} (x) 1_X are natural in every
    alpha : a -> X (the engine's braiding is the R-swap conjugated by
    recoupling, natural by construction); and closing j commutes with
    alpha2 (x) 1_j.  No half-braiding axiom is used, so an invalid gamma
    still yields the diagrammatic loop and fails the check below.  The
    image factorization is computed by singular-value projection and
    canonicalized so that proj o incl is exactly the identity.
    """
    cached = obj._couplings.get((id(cat), i))
    if cached is not None:
        return cached
    eps = cat.tol.eps_identity
    cut = _VANISHING_LOOP_ENTRY * eps
    si = E.ObjectExpr.simple(i)
    W = si.tensor(obj.X)
    loop_blocks = (_gamma_loop_blocks if obj.gamma.pair is None
                   else _f_loop_blocks)
    blocks = {}
    for b, n in enumerate(E._sector_dims(cat, W)):
        if not n:
            continue
        P = loop_blocks(cat, i, obj, b)  # (a2, a) -> Hom(a, X) -> Hom(a2, X)
        # a vanishing P is a zero map: idempotent with residual 0, no image
        if not all(np.abs(m).max() <= cut for m in P.values()):
            blocks[b] = E._recouple(cat, si, obj.X, si, obj.X, b, [
                ((i, a2), (i, a), m) for (a2, a), m in P.items()])
    gamma_mor = E.Morphism(cat, W, W, blocks)
    resid = max((E._spectral_norm(M @ M - M) for M in blocks.values()),
                default=0.0)
    if resid > eps:
        raise IdempotencyError(
            f"coupling morphism at i={cat.label_name(i)} on "
            f"{obj.X.describe(cat)} has squared-vs-itself residual "
            f"{resid:.3e}; "
            "the half-braiding is invalid or tolerances are breached")
    ranks = {}
    incl_blocks = {}
    proj_blocks = {}
    for k, M in blocks.items():
        # each eigenvalue is already within sqrt(resid) of 0 or 1:
        # min(|l|, |l - 1|)^2 <= |l^2 - l| <= ||M^2 - M||_2 = resid
        u, s, _vh = _svd(M)
        r = int(np.sum(s > _IMAGE_SINGULAR_VALUE))
        if r == 0:
            continue
        U = u[:, :r]
        ranks[k] = r
        incl_blocks[k] = U
        proj_blocks[k] = U.conj().T @ M
    image = E.ObjectExpr(tuple(((k,) if k else (), r)
                               for k, r in sorted(ranks.items())))
    incl = E.Morphism(cat, image, W, incl_blocks)
    proj = E.Morphism(cat, W, image, proj_blocks)
    out = CouplingIdempotent(i=i, gamma_mor=gamma_mor, image=image,
                             incl=incl, proj=proj, idempotency_residual=resid)
    E._read_only((gamma_mor, incl, proj))  # kept on obj for every reader
    obj._couplings[(id(cat), i)] = out
    return out


# ----------------------------------------------------------------------
# the inverse functor and the four transformations
# ----------------------------------------------------------------------

def _slot_couplings(cat: CategoryData, obj: CenterObject) -> list:
    """The couplings with a non-zero image, in the slot order of G."""
    key = (id(cat), "slots")
    hit = obj._couplings.get(key)
    if hit is None:
        labels = range(cat.n_labels)
        if obj.gamma.pair is not None:
            # every loop entry of the others vanishes: a zero image
            pairs = [p for ps in obj.gamma.slot_pairs for p in ps]
            labels = [i for i in labels
                      if any(_f_loop_table(cat, i, x, y) for x, y in pairs)]
        hit = [cp for cp in (coupling_gamma(cat, i, obj) for i in labels)
               if cp.image.summands]
        obj._couplings[key] = hit
    return hit


def functor_G(cat: CategoryData, obj: CenterObject) -> DelignePair:
    """The factorization direction on objects:
    (X, gamma) |-> (+)_i i* [x] image_i, dropping vanishing images."""
    return DelignePair(tuple((E.ObjectExpr.simple(cat.dual[cp.i]), cp.image)
                             for cp in _slot_couplings(cat, obj)))


def functor_G_on_morphism(cat: CategoryData, src: CenterObject,
                          tgt: CenterObject, phi: E.Morphism) -> DeligneMorphism:
    """G on morphisms: sandwich 1_i (x) phi between the coupling data
    (proj o gamma = proj and gamma o incl = incl, so gamma itself drops)."""
    G_src, G_tgt = functor_G(cat, src), functor_G(cat, tgt)
    return DeligneMorphism.assemble(cat, G_src, G_tgt, [[
        pair_morphism(cat, E.identity(cat, St[0]), E.compose_all(
            cp_t.proj, E.tensor(E.identity(cat, E.ObjectExpr.simple(cp_t.i)),
                                phi), cp_s.incl))
        if cp_s.i == cp_t.i else
        DeligneMorphism(cat, DelignePair((Ss,)), DelignePair((St,)), {})
        for cp_s, Ss in zip(_slot_couplings(cat, src), G_src.slots)]
        for cp_t, St in zip(_slot_couplings(cat, tgt), G_tgt.slots)])


def _legs(cat: CategoryData, X: E.ObjectExpr, i: int) -> tuple:
    """The leg matrices ``(L_d, L_q)`` at a slot i (module docstring), or
    ``()`` if Hom(X, i*) = 0, cached so that they serve every partner Y."""
    def build():
        ist = cat.dual[i]
        if not E._sector_dims(cat, X)[ist]:
            return ()
        Q, Qinv = E._channel(cat, E.ObjectExpr.simple(i), X, 0, (i, ist))
        cb, ce = (cat.coev_scalar(i), cat.ev_right_scalar(i)) if i else (1, 1)
        w = np.sqrt(complex(cat.dim(i))) / cat.dim(ist)
        return w * cb * Q, w * ce * Qinv

    return E._cached(cat, ("legs", X.summands, i), build)


def _square_transforms(cat: CategoryData, X, Y) -> tuple:
    """``(d, q)`` at X [x] Y, one product per sector (i*, s) of each
    coupling slot i (module docstring)."""
    X, Y = E.as_object(X), E.as_object(Y)
    XY = pair_object(X, Y)
    fobj = functor_F(cat, XY)
    one, dY, d, q = E.ObjectExpr.unit(), E._sector_dims(cat, Y), {}, {}
    for cp in _slot_couplings(cat, fobj):
        legs, iX = _legs(cat, X, cp.i), E.ObjectExpr.simple(cp.i).tensor(X)
        for s, proj in cp.proj.blocks.items():
            if legs and dY[s]:
                Q, Qinv = E._channel(cat, iX, Y, s, (0, s))
                Q1, Q1inv = E._channel(cat, one, Y, s, (0, s))
                k = (cat.dual[cp.i], s)
                d[k] = proj @ Q @ E._kron(legs[0], Q1inv)
                q[k] = E._kron(legs[1], Q1) @ Qinv @ cp.incl.blocks[s]
    GF = functor_G(cat, fobj)
    return DeligneMorphism(cat, XY, GF, d), DeligneMorphism(cat, GF, XY, q)


def _center_legs(cat: CategoryData, X: E.ObjectExpr, i: int) -> tuple:
    """The legs of b and p at a slot i, ``((s, coev, ev), ...)`` over the
    sectors s of X: the sector-s blocks of coev'_i (x) 1_X and
    ev_i (x) 1_X (``engine._recouple``), cached so that they serve every
    center object on X."""
    def build():
        one, pair = E.ObjectExpr.unit(), E.ObjectExpr.word((cat.dual[i], i))
        cb, ce = (cat.coev_right_scalar(i), cat.ev_scalar(i)) if i else (1, 1)
        return tuple(
            (s, E._recouple(cat, one, X, pair, X, s, [((0, s), (0, s), cb * I)]),
             E._recouple(cat, pair, X, one, X, s, [((0, s), (0, s), ce * I)]))
            for s, n in enumerate(E._sector_dims(cat, X)) if n
            for I in (np.eye(n, dtype=complex),))

    return E._cached(cat, ("center_legs", X.summands, i), build)


def _center_transforms(cat: CategoryData, obj: CenterObject) -> tuple:
    """``(b, p)`` at a center object, per sector s of X: each slot's
    1_{i*} (x) proj_i and 1_{i*} (x) incl_i at s (``engine._recouple``)
    times its leg (``_center_legs``), stacked and side by side."""
    X, b, p = obj.X, {}, {}
    slots = _slot_couplings(cat, obj)
    for cp in slots:
        ist, w = cat.dual[cp.i], np.sqrt(complex(cat.dim(cp.i)))
        Ist, W = E.ObjectExpr.simple(ist), E.ObjectExpr.simple(cp.i).tensor(X)
        for s, coev, ev in _center_legs(cat, X, cp.i):
            ch = [((ist, k), (ist, k), k) for k in cp.proj.blocks
                  if cat.ring.admissible(ist, k, s)]  # the channels i* k of s
            if ch:
                proj = E._recouple(cat, Ist, W, Ist, cp.image, s,
                                   [(t, u, cp.proj.blocks[k]) for t, u, k in ch])
                incl = E._recouple(cat, Ist, cp.image, Ist, W, s,
                                   [(t, u, cp.incl.blocks[k]) for t, u, k in ch])
                b.setdefault(s, []).append(w * (proj @ coev))
                p.setdefault(s, []).append(w * (ev @ incl))
    FG = E.ObjectExpr.direct_sum([E.ObjectExpr.simple(cat.dual[cp.i]).tensor(
        cp.image) for cp in slots])
    return (E.Morphism(cat, X, FG, {s: np.vstack(m) for s, m in b.items()}),
            E.Morphism(cat, FG, X, {s: np.hstack(m) for s, m in p.items()}))


def transform_d(cat: CategoryData, X, Y) -> DeligneMorphism:
    """The unit-direction transformation X [x] Y -> G(F(X [x] Y)).

    Per simple i it pairs a basis of Hom(X, i*) on the first factor with
    the dual basis threaded through a new (i, i*) pair on the second, all
    weighted by sqrt(dim i); with trace-normalized dual bases this is the
    weight that makes the composites identities, whichever basis is taken
    (the tests check this against ``tube_reference.reference_d`` on rotated
    bases).
    """
    return _square_transforms(cat, X, Y)[0]


def transform_q(cat: CategoryData, X, Y) -> DeligneMorphism:
    """The counit-direction transformation G(F(X [x] Y)) -> X [x] Y."""
    return _square_transforms(cat, X, Y)[1]


def transform_b(cat: CategoryData, obj: CenterObject) -> E.Morphism:
    """The unit-direction transformation (X, gamma) -> F(G(X, gamma)),
    as a morphism of the underlying objects (a center morphism by the
    half-braiding-compatibility lemma, which the tests verify)."""
    return _center_transforms(cat, obj)[0]


def transform_p(cat: CategoryData, obj: CenterObject) -> E.Morphism:
    """The counit-direction transformation F(G(X, gamma)) -> (X, gamma)."""
    return _center_transforms(cat, obj)[1]


def nat_transforms(cat: CategoryData, arg):
    """The four transformation families.

    For a pair (X, Y) or DelignePair returns ``(d, q)``; for a
    CenterObject returns ``(b, p)``.
    """
    if isinstance(arg, CenterObject):
        return _center_transforms(cat, arg)
    if isinstance(arg, DelignePair):
        if len(arg.slots) != 1:
            raise ShapeError("d and q are built at a single exterior product")
        X, Y = arg.slots[0]
    else:
        X, Y = arg
    return _square_transforms(cat, X, Y)


# ----------------------------------------------------------------------
# tube algebra and simple center objects
# ----------------------------------------------------------------------

@dataclass(eq=False)
class TubeAlgebra:
    """The annular category algebra on one strand.

    Basis elements are quadruples (a, j, b, c): the annulus with incoming
    strand a, loop color j, outgoing strand b, through the fusion channel
    c (a basis vector of Hom(j a, b j)).  ``structure[x, y, z]`` is the
    coefficient of basis z in the product x * y; ``blocks`` pairs each
    minimal central idempotent with its matrix-block dimension, and
    ``_ideals`` holds, in the same order, an orthonormal basis of one
    minimal left ideal per block.
    """

    cat: CategoryData
    basis: tuple
    structure: np.ndarray
    unit: np.ndarray
    blocks: list
    _ideals: list = field(default_factory=list, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def left_mult(self, vec: np.ndarray) -> np.ndarray:
        return np.einsum("x,xyz->zy", vec, self.structure)

    def right_mult(self, vec: np.ndarray) -> np.ndarray:
        return np.einsum("y,xyz->zx", vec, self.structure)

    def multiply(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("x,y,xyz->z", u, v, self.structure)

    def unit_residual(self) -> float:
        eye = np.eye(self.dim)
        return float(max(np.abs(self.left_mult(self.unit) - eye).max(),
                         np.abs(self.right_mult(self.unit) - eye).max()))


def _tube_basis(cat: CategoryData) -> tuple:
    ring, n = cat.ring, range(cat.n_labels)
    return tuple((a, j, b, c) for a in n for j in n for b in n for c in n
                 if ring.admissible(j, a, c) and ring.admissible(b, j, c))


def tube_algebra(cat: CategoryData) -> TubeAlgebra:
    """Build the tube algebra and its block decomposition.

    Products stack annuli, and the structure constants are read off the
    F-symbols.  For x = (a1, j1, b1, c1) after y = (a2, j2, a1, c2), split
    l -> j1 j2, F-move to j1 (j2 a2) and apply y; an inverse F-move to
    (j1 a1) j2 lets x act, and an F-move to b1 (j1 j2) fuses the loops into
    z = (a2, l, b1, s):

        structure[x, y, z] = F(j1,j2,a2,s; l,c2) Finv(j1,a1,j2,s; c2,c1)
                             F(b1,j1,j2,s; c1,l).

    The algebra is split once, by the eigenspaces of a seeded generic right
    multiplication: they are its minimal left ideals, and grouping them by
    Wedderburn block gives the minimal central idempotents (see
    ``_central_idempotents``).
    """
    def build():
        ring, F = cat.ring, cat.f
        basis = _tube_basis(cat)
        N = len(basis)
        index = {q: n for n, q in enumerate(basis)}
        by_target = {}
        for y, q in enumerate(basis):
            by_target.setdefault(q[2], []).append((y, q))
        structure = np.zeros((N, N, N), dtype=complex)
        for x, (a1, j1, b1, c1) in enumerate(basis):
            for y, (a2, j2, _a1, c2) in by_target.get(a1, ()):
                for l in ring.fusion(j1, j2):
                    for s in ring.fusion(l, a2):
                        z = index.get((a2, l, b1, s))
                        if z is not None:
                            structure[x, y, z] = (
                                F.get(j1, j2, a2, s, l, c2)
                                * F.inverse_get(j1, a1, j2, s, c2, c1)
                                * F.get(b1, j1, j2, s, c1, l))
        if not np.isfinite(structure).all():
            raise InvalidCategoryError(f"tube algebra of '{cat.name}' is not finite")
        unit = np.zeros(N, dtype=complex)
        for a in range(cat.n_labels):
            unit[index[(a, 0, a, a)]] = 1.0
        alg = TubeAlgebra(cat=cat, basis=basis, structure=structure,
                          unit=unit, blocks=[])
        split = _central_idempotents(alg)
        E._read_only((structure, unit, tuple(split)))
        alg.blocks = [(e_vec, n) for e_vec, n, _V in split]
        alg._ideals = [V for _e, _n, V in split]
        return alg

    return E._cached(cat, "tube_algebra", build)


#: Decimals kept when blocks and center simples are sorted by their values.
#: The keys (idempotent coefficients, braiding traces) are O(1) numbers
#: computed to about 1e-15, so rounding to six decimals makes a key computed
#: along two paths compare equal unless it sits within roundoff of a
#: rounding boundary, while keys of different objects differ at O(1).
_SORT_DECIMALS = 6

#: Eigenvalues of the generic right multiplication closer than this belong
#: to one minimal left ideal: it is diagonalizable, so roundoff splits a
#: repeated eigenvalue only linearly (Bauer-Fike: machine epsilon times the
#: eigenvector condition number), while the eigenvalues of a seeded
#: unit-scale element differ at O(1) across ideals.
_CLUSTER_GAP = 1e-6

#: f_j A f_i is exactly zero across Wedderburn blocks, so only roundoff of
#: order machine epsilon times ||L_{f_j}|| survives there; a genuine overlap
#: inside a block is of the order of ||L_{f_j}|| itself.
_SAME_BLOCK_CUTOFF = 1e-8

#: The unit projections of the tube algebra are exact 0/1 idempotents, so a
#: graded piece of a minimal ideal has singular values of order one or of
#: order machine epsilon; this relative cutoff sits far between the two.
_GRADING_RANK_CUTOFF = 1e-8

#: A minimal left ideal is invariant under the tube action up to roundoff
#: of the eigenvectors it was read from (machine epsilon times their
#: condition number); a genuinely non-invariant subspace leaks at order one.
_INVARIANCE_RESIDUAL = 1e-7


def _central_idempotents(alg: TubeAlgebra) -> list:
    """Wedderburn blocks of the algebra as ``(e_vec, n, ideal)`` triples.

    The commutant of the left regular representation of a unital algebra
    is its right multiplications, so the eigenspaces of ``R_y`` for a
    seeded generic ``y`` are minimal left ideals ``A f_i``; the spectral
    projector of each, applied to the unit, is the primitive idempotent
    ``f_i``.  Two ideals lie in one block iff ``f_j A f_i != 0``.  Per
    block, ``e_vec`` is the minimal central idempotent (the sum of its
    ``f_i``), ``n`` the number of its ideals (the matrix-block dimension)
    and ``ideal`` an orthonormal basis of one of its ideals.
    """
    N = alg.dim
    rng = np.random.default_rng(20240802)
    y = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    vals, vecs = np.linalg.eig(alg.right_mult(y))
    try:
        vinv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            "regular representation of the tube algebra is not "
            "diagonalizable at working precision") from exc
    blocks = []  # per block: (L_f of its first ideal, its cutoff, [(f_i, V_i), ...])
    used = np.zeros(N, dtype=bool)
    for idx in range(N):
        if used[idx]:
            continue
        group = np.flatnonzero(~used & (np.abs(vals - vals[idx]) < _CLUSTER_GAP))
        used[group] = True
        V = vecs[:, group]
        f = V @ (vinv[group] @ alg.unit)
        for L_first, cut, ideals in blocks:
            if np.linalg.norm(L_first @ V) > cut:
                ideals.append((f, V))
                break
        else:
            L = alg.left_mult(f)
            blocks.append((L, _SAME_BLOCK_CUTOFF * np.linalg.norm(L), [(f, V)]))
    out = []
    for _L, _cut, ideals in blocks:
        n = len(ideals)
        if any(V.shape[1] != n for _f, V in ideals):
            raise DecompositionError(
                f"a tube algebra block of {n} minimal left ideals has ideals "
                f"of dimensions {[V.shape[1] for _f, V in ideals]}")
        ideal, _r = np.linalg.qr(ideals[0][1])
        out.append((sum(f for f, _V in ideals), n, ideal))
    # adding 0.0 turns roundoff's -0.0 into 0.0, which the bytes would tell apart
    out.sort(key=lambda p: (
        p[1], (np.round(p[0], _SORT_DECIMALS) + 0.0).tobytes().hex()))
    total = sum(n * n for _e, n, _V in out)
    if total != alg.dim:
        raise DecompositionError(
            f"tube algebra blocks of squared dimensions "
            f"{[n * n for _e, n, _V in out]} do not fill dimension {alg.dim}")
    return out


def center_simples(cat: CategoryData) -> list:
    """All simple center objects, materialized from the tube algebra.

    Each Wedderburn block of the tube algebra is one isomorphism class of
    simple modules; the minimal left ideal that ``tube_algebra`` keeps per
    block (an eigenspace of a seeded generic right multiplication) is
    graded by the unit idempotents, and the structure constants give the
    tube action on the graded pieces.  The half-braiding is read off those
    matrices in closed form (``_object_from_module``), so no diagram is
    evaluated once the algebra is built.  The returned list is
    deterministic and sorted by a braiding-trace fingerprint.
    """
    def build():
        alg = tube_algebra(cat)
        lefts = alg.structure.transpose(0, 2, 1)  # lefts[x] = L_x
        unit_proj = {b: lefts[alg.basis.index((b, 0, b, b))]
                     for b in range(cat.n_labels)}
        simples = []
        for V in alg._ideals:
            # grade the module by the unit components and extract the action
            graded = {}
            for b in range(cat.n_labels):
                PV = unit_proj[b] @ V
                if PV.size == 0:
                    continue
                u, s, _vh = np.linalg.svd(PV, full_matrices=False)
                cut = _GRADING_RANK_CUTOFF * max(1.0, s[0] if s.size else 0.0)
                r = int(np.sum(s > cut))
                if r:
                    graded[b] = u[:, :r]
            dims = {b: g.shape[1] for b, g in graded.items()}
            if sum(dims.values()) != V.shape[1]:
                raise DecompositionError(
                    "module does not split along the unit grading")
            action = {}
            for x, quad in enumerate(alg.basis):
                a, j, b, c = quad
                if a not in graded or b not in graded:
                    continue
                Ua, Ub = graded[a], graded[b]
                img = lefts[x] @ Ua
                rho = Ub.conj().T @ img
                if float(np.linalg.norm(img - Ub @ rho)) > _INVARIANCE_RESIDUAL:
                    raise DecompositionError(
                        "module is not invariant under the tube action")
                action[quad] = rho
            simples.append(_object_from_module(cat, dims, action))
        simples.sort(key=lambda o: _center_sort_key(cat, o))
        return simples

    return E._cached(cat, "center_simples", build)


def _object_from_module(cat: CategoryData, dims: dict, action: dict) -> CenterObject:
    """Convert a tube-algebra module into a half-braided object.

    The tube element (a, j, b, c) acts as kappa(j, b, c) times the
    transposed a <- b block of gamma_j^{-1} at sector c
    (``engine._loop_weight``), so the sector-c block of gamma_j^{-1} is read
    off the module matrices directly (rows: the a with N(j, a, c); columns:
    the b with N(b, j, c)) and inverted sector by sector.
    """
    labels = [a for a in sorted(dims) if dims[a]]
    X = E.ObjectExpr(tuple(((a,) if a else (), dims[a]) for a in labels))
    mats, crossings = {}, {}
    for j in range(cat.n_labels):
        sj = E.ObjectExpr.simple(j)
        gamma_blocks = {}
        for c in range(cat.n_labels):
            rows = [a for a in labels if cat.ring.admissible(j, a, c)]
            cols = [b for b in labels if cat.ring.admissible(b, j, c)]
            if not rows or not cols:
                continue
            kappas = [E._loop_weight(cat, j, b, c) for b in cols]
            if min(abs(k) for k in kappas) < cat.tol.eps_identity:
                raise DecompositionError(
                    f"the loop of color {cat.label_name(j)} closes to zero at "
                    f"sector {cat.label_name(c)}; the F-symbols or duality "
                    "scalars are degenerate")
            at, bt = ({l: slice(o, o + dims[l]) for l, o in zip(
                ls, accumulate((dims[l] for l in ls), initial=0))} for ls in (rows, cols))
            inv = np.empty((at[rows[-1]].stop, bt[cols[-1]].stop), dtype=complex)
            for a in rows:
                for b, k in zip(cols, kappas):
                    inv[at[a], bt[b]] = action[(a, j, b, c)].T / k
            G = gamma_blocks[c] = _inverse(inv)
            crossings.update(((j, c, b, a), G[bt[b], at[a]])
                             for a in rows for b in cols)
        mats[j] = E.Morphism(cat, sj.tensor(X), X.tensor(sj), gamma_blocks)
        E._read_only(mats[j])
    return CenterObject(X=X, gamma=HalfBraiding(X, mats, blocks=crossings))


def _center_sort_key(cat: CategoryData, obj: CenterObject):
    """Sector dimensions and the rounded traces Tr(gamma_j o c_{X,j}),
    read off the crossing blocks (formula in the module docstring)."""
    traces = [0j] * cat.n_labels
    for (j, c, a2, a), g in obj.gamma.blocks.items():
        if a2 == a:
            traces[j] += cat.dim(c) * cat.r.get(a, j, c) * np.trace(g)
    return (E._sector_dims(cat, obj.X),
            tuple((round(v.real, _SORT_DECIMALS), round(v.imag, _SORT_DECIMALS))
                  for v in traces))


# ----------------------------------------------------------------------
# the factorization report
# ----------------------------------------------------------------------

@dataclass
class FactorizationReport:
    """Composite-defect norms and the factorizability verdict.

    Each defect is the largest spectral norm of a composite minus the
    identity, taken in the combed bases: ``defect_qd`` and ``defect_dq``
    over the n^2 simple pairs, which fix them on every exterior product of
    words (``invertibility_report``), ``defect_pb`` and ``defect_bp`` over
    the center simples.  Where the composite is the
    identity up to roundoff, that number is a gauge invariant.  Where it is
    not, its size depends on the vertex gauge: on premodular inputs a
    non-unitary gauge moves ``defect_bp`` from 1.0 to 1.8-5.2 (SO(3)_4,
    SO(3)_6, vec_z2_sym [x] fibonacci), while the verdict stands.
    """

    category: str
    modular: bool
    rank_s: int
    defect_qd: float
    defect_dq: float
    defect_pb: float
    defect_bp: float
    center_count: int
    square_count: int
    factorizable: bool
    agrees_with_modularity: bool

    def as_dict(self) -> dict:
        return {
            "category": self.category,
            "modular": self.modular,
            "rank_S": self.rank_s,
            "defects": {"qd": self.defect_qd, "dq": self.defect_dq,
                        "pb": self.defect_pb, "bp": self.defect_bp},
            "center_count": self.center_count,
            "square_count": self.square_count,
            "verdict": "factorizable" if self.factorizable else "not factorizable",
            "agrees_with_modularity": self.agrees_with_modularity,
        }


def invertibility_report(cat: CategoryData,
                         max_word_length: int = 2) -> FactorizationReport:
    """Measure how far the two functors are from being mutually inverse.

    q o d and d o q are taken on the n^2 simple pairs u [x] s, p o b and
    b o p on every simple center object.  The simple pairs fix the square
    side on every exterior product of words, a direct sum of them:

    - q o d is a natural endomorphism of the identity, so on
      Hom(u, X) x Hom(s, Y) it is lambda_{u,s} 1, and its largest defect
      is at a simple pair;
    - GF(X [x] Y) = (+)_{u,s} GF(u [x] s) x Hom(u, X) x Hom(s, Y), so d o q
      there is conjugate to (+) (d o q)_{us} x 1: it is the identity
      exactly when it is on every simple pair, and its rank is theirs
      times the multiplicities.  In image bases transported along GF the
      norms would be equal; in the couplings' SVD bases they agree by
      measurement (within 8.9e-16 on the catalog, its gauges, q-Racah
      inputs and Deligne products).

    ``max_word_length`` is validated (below 1 raises ``ValueError``) but
    does not change the report.  The verdict is cross-checked against
    S-matrix non-degeneracy but never inferred from it.  A defect far from
    zero is measured in the combed basis, so its size is not a gauge
    invariant (``FactorizationReport``).
    """
    if max_word_length < 1:
        raise ValueError(f"max_word_length must be at least 1, got "
                         f"{max_word_length}")
    eps = cat.tol.eps_identity
    verdict = is_modular(cat)
    qd = dq = 0.0
    simple = [E.ObjectExpr.simple(a) for a in range(cat.n_labels)]
    for X in simple:
        for Y in simple:
            d, q = _square_transforms(cat, X, Y)
            qd = max(qd, E.defect_from_identity(E.compose(q, d)))
            dq = max(dq, E.defect_from_identity(E.compose(d, q)))
    pb = bp = 0.0
    simples = center_simples(cat)
    for obj in simples:
        b, p = _center_transforms(cat, obj)
        pb = max(pb, E.defect_from_identity(E.compose(p, b)))
        bp = max(bp, E.defect_from_identity(E.compose(b, p)))
    factorizable = max(qd, dq, pb, bp) < eps
    return FactorizationReport(
        category=cat.name,
        modular=verdict.modular,
        rank_s=verdict.rank,
        defect_qd=qd, defect_dq=dq, defect_pb=pb, defect_bp=bp,
        center_count=len(simples),
        square_count=cat.n_labels ** 2,
        factorizable=factorizable,
        agrees_with_modularity=(factorizable == verdict.modular),
    )
