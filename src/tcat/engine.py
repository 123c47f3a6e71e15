"""Graphical-calculus engine over skeletal premodular data.

Objects are formal direct sums of tensor words of simple labels; morphisms
are stored per simple sector: the block of ``f : X -> Y`` at sector ``k`` is
the matrix of post-composition ``Hom(k, X) -> Hom(k, Y)`` in the left-combed
fusion-tree bases.  Composition is one matrix product per sector that both
morphisms hold, and all structure (tensor product, braiding, duality,
loops) is expressed through explicit recoupling matrices built from the
F-symbols.

The product basis Hom(k, X Y) = (+)_{i,j} Hom(k, i j) x Hom(i, X) x
Hom(j, Y) is carried to the combed basis by ``_product_iso``.  The
layout of that basis (which columns belong to which channel pair (i, j))
is read only through ``_recouple``, which carries channel blocks onto the
combed bases, ``_combed_columns``, which carries only the columns, their
inverse ``_channel_blocks``, and ``_channel``.  For two letter sums (each
summand one letter or the unit, labels strictly increasing) the product
basis already is the combed basis: the transform is the identity, built
without tail transforms, and these readers skip it.
``tensor`` and the functor F on morphisms recouple through one
``_recouple_channels``.  A morphism between direct sums is laid out from
its parts, one per summand pair, by ``Morphism.assemble``.

The tree bases are normalized so that splitting followed by fusion along
the same tree is the identity on the channel ("orthonormal" convention);
with that choice the resolutions of identity carry quantum-dimension
weights exactly as in the usual premodular graphical calculus.

Loops are closed without drawing the cup and the cap.  Closing a simple
j strand to the right of f : X (x) j -> X (x) j only reads channel blocks:
the sector-b block of the closure is the sum over c in b j of the (b, j)
channel block at sector c times one scalar kappa(j, b, c)
(``_loop_weight``: two duality scalars and two F-entries).
``omega_loop`` closes its Omega-loops this way, and the center reads
half-braidings off the tube module and closes the coupling loops around
i (x) a in closed form with the same scalar.  ``quantum_trace``,
``zigzag_defects`` and ``cup_cap`` stay diagrammatic: they are the drawn
reference for the closed forms of the validator's sphericality and
zig-zag checks and of ``quantum_dim``, which read the data alone.

Every cup and cap comes from one cached builder (``cup_cap``), keyed by its
kind; one table (``_KINDS``) says whether the kind's pair object is X X* or
X* X and holds its scalar on a simple.  Past the unit, whose cups and caps
are its identity, it builds three cases:

* a letter: its duality scalar from ``CategoryData``;
* a longer word: peeled at its first letter from the cached cups and caps
  of that letter and of the rest of the word, for example
  ``coev(a u) = (1_a (x) coev(u) (x) 1_a*) o coev(a)``;
* any other object: each word's sector-0 block, read through ``cup_cap``,
  written at the trees of every copy pair (c, c) of the summand w w* of
  X X* (or w* w of X* X).  That is what the embedding diagrams
  ``tensor(incl, incl) o coev_w`` evaluate to, so none is drawn.

The identity resolution reads the dual bases of ``hom_basis``.

Everything here is a pure function of immutable inputs.  The category's
private cache memoizes, as read-only data built once per category:

* per object, one layout (``_layout``): its sector bases and dimensions
  at every label, and the position of each basis element, built when a
  product transform first reads it;
* per root and word, the tree chains grouped by end label (``_tails``);
* per root, word and sector, the tail transform (``_tail_transform``);
* per object pair and sector, the product transform with its channel
  slices and its inverse, in one entry (``_product_iso``);
* the identity and the duality morphisms (``cup_cap``) of each object;
* the braidings of each object pair (``braiding``).

Repeated calls return the same object, shared by every caller, so every
array it holds when built is marked read-only and writing into one raises
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .category import (CategoryData, Scalar, _condition, _fold, _inverse,
                       _or_nan, _spectral_norm)
from .errors import CompositionError, ShapeError

__all__ = [
    "ObjectExpr", "Morphism", "CasimirPair", "as_object", "quantum_dim",
    "identity", "zero_morphism", "compose", "compose_all",
    "tensor", "braiding", "cup_cap", "quantum_trace",
    "hom_basis", "identity_resolution", "omega_loop", "zigzag_defects",
    "direct_sum", "distance", "defect_from_identity", "word_trees",
]

Word = tuple


# ----------------------------------------------------------------------
# objects
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ObjectExpr:
    """A formal direct sum of tensor words of simple labels.

    ``summands`` is an ordered tuple of ``(word, multiplicity)`` pairs; the
    empty word is the tensor unit.  Words never contain the unit label: it
    is stripped on construction (the unit coherence isomorphisms of the
    skeletal category are identities).
    """

    summands: tuple

    # -- constructors ---------------------------------------------------

    @staticmethod
    def word(letters, multiplicity: int = 1) -> "ObjectExpr":
        w = tuple(int(l) for l in letters if int(l) != 0)
        return ObjectExpr(((w, int(multiplicity)),))

    @staticmethod
    def simple(a: int) -> "ObjectExpr":
        return ObjectExpr.word((a,))

    @staticmethod
    def unit() -> "ObjectExpr":
        return ObjectExpr((((), 1),))

    @staticmethod
    def direct_sum(parts) -> "ObjectExpr":
        summands = []
        for p in parts:
            summands.extend(p.summands)
        return ObjectExpr(tuple(summands))

    @staticmethod
    def zero() -> "ObjectExpr":
        return ObjectExpr(())

    # -- structure ------------------------------------------------------

    def tensor(self, other: "ObjectExpr") -> "ObjectExpr":
        return ObjectExpr(tuple(
            (wa + wb, ma * mb)
            for (wa, ma) in self.summands for (wb, mb) in other.summands))

    def dual(self, cat: CategoryData) -> "ObjectExpr":
        return ObjectExpr(tuple(
            (tuple(cat.dual[l] for l in reversed(w)), m)
            for (w, m) in self.summands))

    def dim_sector(self, cat: CategoryData, k: int) -> int:
        return _sector_dims(cat, self)[k]

    def grading(self, cat: CategoryData) -> dict:
        """Multiplicity of each simple label, keyed by label id."""
        return {k: d for k, d in enumerate(_sector_dims(cat, self)) if d}

    def describe(self, cat: CategoryData) -> str:
        if not self.summands:
            return "0"
        parts = []
        for w, m in self.summands:
            body = "1" if not w else "*".join(cat.label_name(l) for l in w)
            parts.append(body if m == 1 else f"{m}({body})")
        return " + ".join(parts)


def as_object(X) -> ObjectExpr:
    if isinstance(X, ObjectExpr):
        return X
    if isinstance(X, int):
        return ObjectExpr.simple(X)
    return ObjectExpr.word(tuple(X))


def quantum_dim(cat: CategoryData, X) -> Scalar:
    """Quantum dimension of an object, sum_k dim Hom(k, X) d_k.  Where the
    dimensions are a character of the fusion ring (``validate``'s
    dimension_character) it is the trace of the identity of X, additive
    over direct sums and multiplicative over words."""
    return sum((m * cat.dim(k) for k, m in as_object(X).grading(cat).items()),
               0j)


# ----------------------------------------------------------------------
# fusion trees and recoupling matrices
# ----------------------------------------------------------------------

def _cached(cat, key, builder):
    hit = cat._cache.get(key)
    if hit is None:
        hit = cat._cache[key] = builder()
        _read_only(hit)  # shared by every later caller
    return hit


def _read_only(x) -> None:
    """Mark the arrays that x reaches read-only: x itself, a morphism's
    blocks, or those of the items of a (nested) tuple."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, Morphism):
        _read_only(tuple(x.blocks.values()))
    elif isinstance(x, tuple):
        for a in x:
            _read_only(a)


def word_trees(cat: CategoryData, w: Word, k: int) -> tuple:
    """Left-combed trees of Hom(k, w): internal chains (c_2 .. c_{m-1})."""
    return _tails(cat, w[0] if w else 0, w[1:])[k]


def _positions(items) -> dict:
    """The position of each item in ``items``."""
    return {x: n for n, x in enumerate(items)}


def _tails(cat: CategoryData, i: int, w: Word) -> tuple:
    """Chains from root i through the letters of w, grouped by end label:
    entry k lists the chains (e_1 .. e_{l-1}) with e_l = k."""
    def build():
        out = [[] for _ in range(cat.n_labels)]

        def rec(cur, chain, rest):
            if not rest:
                out[cur].append(chain[:-1])
                return
            for nxt in cat.ring.fusion(cur, rest[0]):
                rec(nxt, chain + (nxt,), rest[1:])

        rec(i, (), w)
        return tuple(map(tuple, out))

    hit = cat._cache.get(("tails", i, w))  # int chains, nothing to mark read-only
    return cat._cache.setdefault(("tails", i, w), build()) if hit is None else hit


def _tail_transform(cat: CategoryData, i: int, w: Word, k: int):
    """Change of basis between nested and combed continuations of a prefix.

    Returns ``(mat, rows, cols)`` where ``rows`` maps each tail of
    ``_tails(cat, i, w)[k]`` to its row, ``cols`` maps each pair
    ``(j, tree)`` with ``N(i, j, k) = 1`` and ``tree`` a left-combed tree
    of Hom(j, w) to its column, and

        (id_i (x) tree) o split(k -> i j)  =  sum_tail  mat[tail, (j, tree)]
                                               x combed continuation.

    Built by peeling the last letter of ``w`` with one inverse F-move per
    step; every recoupling matrix of the engine is assembled from it.
    """
    def build():
        rows = _positions(_tails(cat, i, w)[k])
        cols = _positions((j, t) for j in range(cat.n_labels)
                          if cat.ring.admissible(i, j, k)
                          for t in word_trees(cat, w, j))
        l = len(w)
        if l <= 1:
            # both bases are the single trivial continuation
            return np.ones((len(rows), len(cols)), dtype=complex), rows, cols
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        u, z = w[:-1], w[-1]
        for (j, t), ci in cols.items():
            jp = t[-1] if l >= 3 else w[0]       # root of the u-part of t
            tp = t[:-1] if l >= 3 else ()
            finv, f_rows, f_cols = cat.f.inverse(i, jp, z, k)
            jrow = f_rows.index(j)
            for mcol, m in enumerate(f_cols):
                smat, srows, scols = _tail_transform(cat, i, u, m)
                sci = scols[(jp, tp)]
                for prefix, sri in srows.items():
                    v = smat[sri, sci]
                    if v == 0:
                        continue
                    mat[rows[prefix + (m,)], ci] += finv[jrow, mcol] * v
        return mat, rows, cols

    return _cached(cat, ("tailT", i, w, k), build)


@dataclass(frozen=True)
class _Layout:
    """The sector bases of an object at every label, in label order: the
    basis of Hom(k, X) as triples (summand, copy, tree), its dimension and
    (built when first read) the position of each triple in it."""

    bases: tuple
    dims: tuple

    @cached_property
    def positions(self) -> tuple:
        return tuple(map(_positions, self.bases))


def _layout(cat: CategoryData, X: ObjectExpr) -> _Layout:
    """X's ``_Layout``; a letter that is not a label raises ``ShapeError``."""
    def build():
        n = cat.n_labels
        for w, _m in X.summands:
            if not all(0 <= l < n for l in w):
                raise ShapeError(f"word {w} has a letter outside 0..{n - 1}")
        bases = tuple(
            tuple((si, c, t) for si, (w, m) in enumerate(X.summands)
                  for c in range(m) for t in word_trees(cat, w, k))
            for k in range(n))
        return _Layout(bases, tuple(map(len, bases)))

    return _cached(cat, ("layout", X.summands), build)


def sector_basis(cat: CategoryData, X: ObjectExpr, k: int) -> tuple:
    """Ordered basis of Hom(k, X): triples (summand, copy, tree)."""
    return _layout(cat, X).bases[k]


def _sector_dims(cat: CategoryData, X: ObjectExpr) -> tuple:
    """``dim Hom(k, X)`` for every label ``k``, in label order."""
    return _layout(cat, X).dims


def _split_chain(w: Word, x: Word, chain: Word, k: int):
    """Split a combed chain on w + x into (prefix tree on w, root i, tail)."""
    wl, xl = len(w), len(x)
    if wl == 0:
        if xl <= 1:
            return (), 0, ()
        return (), 0, (x[0],) + chain
    if xl == 0:
        return chain, k, ()
    if wl == 1:
        return (), w[0], chain
    return chain[:wl - 2], chain[wl - 2], chain[wl - 1:]


def _letter_sum(X: ObjectExpr) -> bool:
    """Each summand one letter or the unit, labels strictly increasing."""
    words = [w for w, _m in X.summands]
    return all(len(w) < 2 for w in words) and words == sorted(set(words))


def _product_iso(cat: CategoryData, X: ObjectExpr, Y: ObjectExpr, k: int):
    """Isomorphism  (+)_{i,j} Hom(k, i j) (x) Hom(i, X) (x) Hom(j, Y)
    -> Hom(k, X (x) Y)  in the combed bases, with its inverse.

    Returns ``(Q, channels, Qinv)``, one cache entry, where
    ``channels[(i, j)]`` is the column slice of that pair's
    ``Hom(i, X) x Hom(j, Y)`` block (bi outer, bj inner), for every pair of
    ``FusionRing.pairs`` in its label order.  This layout is read only
    here and in its readers of the module docstring.  For two letter sums
    (``_letter_sum``) Q is the identity, held as its own inverse.
    """
    def build():
        dims_X, dims_Y = _layout(cat, X).dims, _layout(cat, Y).dims
        pairs = cat.ring.pairs(k)
        widths = [dims_X[i] * dims_Y[j] for i, j in pairs]
        starts = accumulate(widths, initial=0)
        channels = {p: slice(o, o + w) for p, o, w in zip(pairs, starts, widths)}
        if _letter_sum(X) and _letter_sum(Y):
            Q = np.eye(sum(widths), dtype=complex)
            return Q, channels, Q
        rows = sector_basis(cat, X.tensor(Y), k)
        pos_X, pos_Y = _layout(cat, X).positions, _layout(cat, Y).positions
        Q = np.zeros((len(rows), sum(widths)), dtype=complex)
        nY = len(Y.summands)
        for rn, (sp, cp, chain) in enumerate(rows):
            alpha, beta = divmod(sp, nY)
            wa, ma = X.summands[alpha]
            xb, mb = Y.summands[beta]
            ca, cb = divmod(cp, mb)
            prefix, i, tail = _split_chain(wa, xb, chain, k)
            bi = pos_X[i][(alpha, ca, prefix)]
            tmat, trows, tcols = _tail_transform(cat, i, xb, k)
            tr = trows[tail]
            for (j, tree), tc in tcols.items():
                v = tmat[tr, tc]
                if v == 0:
                    continue
                bj = pos_Y[j][(beta, cb, tree)]
                Q[rn, channels[(i, j)].start + bi * dims_Y[j] + bj] = v
        if Q.shape[0] != Q.shape[1]:
            raise ShapeError(
                f"recoupling matrix is not square at sector {k}: {Q.shape}")
        return Q, channels, _inverse(Q) if Q.size else Q

    return _cached(cat, ("Q", X.summands, Y.summands, k), build)


def _combed_columns(cat, X, Y, k: int, n_rows: int, parts, left=None):
    """``[left @] M @ Qinv(X, Y, k)`` for the map M with ``n_rows`` rows
    whose block at a row slice and a channel (i, j) of Hom(k, X (x) Y) is
    ``rect`` for ``(rows, (i, j), rect)`` in ``parts``, absent blocks zero."""
    Q, channels, Qinv = _product_iso(cat, X, Y, k)
    M = np.zeros((n_rows, Q.shape[1]), dtype=complex)
    for rows, pair, rect in parts:
        M[rows, channels[pair]] = rect
    M = M if left is None else left @ M
    return M if Q is Qinv else M @ Qinv


def _recouple(cat, Xs, Ys, Xt, Yt, k: int, mid) -> np.ndarray:
    """Carry a channel-wise map onto the combed bases.

    ``mid`` lists ``((i, j), (i', j'), rect)`` blocks of a map
    ``(+) Hom(k, i' j') x Hom(i', Xs) x Hom(j', Ys)
    -> (+) Hom(k, i j) x Hom(i, Xt) x Hom(j, Yt)`` (pairs admissible at k,
    absent blocks zero).  ``Qt @ M @ Qs_inv`` is its sector-k block as a
    morphism ``Xs (x) Ys -> Xt (x) Yt`` in the combed bases.
    """
    Qt, ch_t, Qt_inv = _product_iso(cat, Xt, Yt, k)
    return _combed_columns(
        cat, Xs, Ys, k, Qt.shape[1],
        [(ch_t[pair_t], pair_s, rect) for pair_t, pair_s, rect in mid],
        None if Qt is Qt_inv else Qt)


def _channel(cat, X, Y, k: int, pair) -> tuple:
    """The columns of Q(X, Y, k) on the channel pair (i, j), and the rows
    of its inverse."""
    Q, channels, Qinv = _product_iso(cat, X, Y, k)
    return Q[:, channels[pair]], Qinv[channels[pair]]


def _channel_blocks(cat, Xs, Ys, Xt, Yt, k: int, block) -> dict:
    """The inverse of ``_recouple`` at one sector: the non-empty channel
    blocks ``{(pair_t, pair_s): rect}`` of ``Qt_inv @ block @ Qs`` for a
    block Hom(k, Xs Ys) -> Hom(k, Xt Yt), in label order with the source
    pair outer."""
    Qs, ch_s, Qs_inv = _product_iso(cat, Xs, Ys, k)
    Qt, ch_t, Qt_inv = _product_iso(cat, Xt, Yt, k)
    G = block if Qs is Qs_inv and Qt is Qt_inv else Qt_inv @ block @ Qs
    return {(pair_t, pair_s): G[rt, rs] for pair_s, rs in ch_s.items()
            for pair_t, rt in ch_t.items() if G[rt, rs].size}


# ----------------------------------------------------------------------
# morphisms
# ----------------------------------------------------------------------

@dataclass(eq=False)
class Morphism:
    """A morphism X -> Y as per-sector block matrices.

    ``blocks[k]`` maps Hom(k, X) -> Hom(k, Y); any zero block may be
    omitted.  Sums, scalar multiples and composites keep the subclass, so
    ``deligne.DeligneMorphism`` (sectors keyed by label pairs) inherits
    them.
    """

    cat: CategoryData
    source: ObjectExpr
    target: ObjectExpr
    blocks: dict

    def block(self, k: int) -> np.ndarray:
        b = self.blocks.get(k)
        if b is not None:
            return b
        return np.zeros((self.target.dim_sector(self.cat, k),
                         self.source.dim_sector(self.cat, k)), dtype=complex)

    @classmethod
    def assemble(cls, cat, source, target, grid) -> "Morphism":
        """The morphism between sums whose part from source summand s to
        target summand t is ``grid[t][s]``, joined at each sector that some
        part holds."""
        if len(grid) == 1 and len(grid[0]) == 1:  # one part: nothing to join
            return cls(cat, source, target, dict(grid[0][0].blocks))
        keys = sorted({k for row in grid for part in row for k in part.blocks})
        return cls(cat, source, target, {k: np.concatenate(
            [np.concatenate([part.block(k) for part in row], axis=1)
             for row in grid]) for k in keys})

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise CompositionError("cannot add morphisms with different objects")
        keys = set(self.blocks) | set(other.blocks)
        return type(self)(self.cat, self.source, self.target,
                          {k: self.blocks.get(k, 0.0) + other.blocks.get(k, 0.0)
                           for k in keys})

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "Morphism":
        return type(self)(self.cat, self.source, self.target,
                          {k: b * complex(scalar) for k, b in self.blocks.items()})

    __rmul__ = __mul__

    def norm(self) -> float:
        """Max over sectors of the spectral norm of the blocks."""
        return _max_norm(self.blocks.values())

    def is_endomorphism(self) -> bool:
        return self.source == self.target


def identity(cat: CategoryData, X: ObjectExpr) -> Morphism:
    X = as_object(X)
    return _cached(cat, ("id", X.summands), lambda: Morphism(cat, X, X, {
        k: np.eye(d, dtype=complex)
        for k, d in enumerate(_sector_dims(cat, X)) if d}))


def zero_morphism(cat: CategoryData, X: ObjectExpr, Y: ObjectExpr) -> Morphism:
    return Morphism(cat, as_object(X), as_object(Y), {})


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, one matrix product per sector that both hold."""
    if f.target != g.source:
        raise CompositionError(
            f"cannot compose: inner objects differ ({f.target} vs {g.source})")
    return type(f)(f.cat, f.source, g.target,
                   {k: g.blocks[k] @ fb for k, fb in f.blocks.items()
                    if k in g.blocks})


def compose_all(*mors: Morphism) -> Morphism:
    out = mors[0]
    for m in mors[1:]:
        out = compose(out, m)
    return out


def _max_norm(blocks) -> float:
    """The largest spectral norm of the non-empty blocks, 0 if none; a block
    with a NaN entry reads as NaN, which ``category._fold`` keeps."""
    return reduce(_fold, (_or_nan(_spectral_norm, b) for b in blocks
                          if b.size), 0.0)


def distance(f: Morphism, g: Morphism) -> float:
    """The largest spectral norm of f_k - g_k over the sectors k."""
    if f.source != g.source or f.target != g.target:
        raise ShapeError("cannot compare morphisms with different objects")
    return _max_norm(f.block(k) - g.block(k)
                     for k in f.blocks.keys() | g.blocks.keys())


def defect_from_identity(f: Morphism) -> float:
    """The largest spectral norm of f_k - 1 over the sectors k of an
    endomorphism; a ``deligne.DeligneMorphism`` grades by label pairs."""
    if not f.is_endomorphism():
        raise ShapeError("identity defect of a non-endomorphism")
    return _max_norm(f.block(k) - np.eye(n)
                     for k, n in f.source.grading(f.cat).items())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two matrices, without its overhead: the layout of
    Hom(i, X) x Hom(j, Y) in the product bases, a's index outer."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _recouple_channels(cat, Xs, Ys, Xt, Yt, channels: dict) -> dict:
    """The sector blocks of the map Xs (x) Ys -> Xt (x) Yt whose block on
    the channel (i, j) is ``channels[(i, j)]`` : Hom(i, Xs) x Hom(j, Ys)
    -> Hom(i, Xt) x Hom(j, Yt), at every k in i j (``_recouple``)."""
    mids = {}
    for (i, j), rect in channels.items():
        if rect.size:
            for k in cat.ring.fusion(i, j):
                mids.setdefault(k, []).append(((i, j), (i, j), rect))
    return {k: _recouple(cat, Xs, Ys, Xt, Yt, k, mid)
            for k, mid in sorted(mids.items())}


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Monoidal product: the channel block f_i (x) g_j recoupled onto the
    combed bases (``_recouple_channels``)."""
    channels = {(i, j): _kron(fb, gb) for i, fb in f.blocks.items()
                for j, gb in g.blocks.items()}
    return Morphism(f.cat, f.source.tensor(g.source),
                    f.target.tensor(g.target), _recouple_channels(
                        f.cat, f.source, g.source, f.target, g.target,
                        channels))


def braiding(cat: CategoryData, X, Y, inverse: bool = False) -> Morphism:
    """The braiding X (x) Y -> Y (x) X (or the inverse braiding c^{-1}_{Y,X}).

    Channel-wise this is the R-symbol action conjugated by the recoupling
    isomorphisms; naturality and the hexagons are theorems checked by the
    test-suite, not inputs.
    """
    X, Y = as_object(X), as_object(Y)
    inverse = bool(inverse)

    def build():
        dims_X = _sector_dims(cat, X)
        dims_Y = _sector_dims(cat, Y)
        mids = {}
        for i, ni in enumerate(dims_X):
            for j, nj in enumerate(dims_Y):
                if not ni or not nj:
                    continue
                # Hom(i, X) x Hom(j, Y) -> Hom(j, Y) x Hom(i, X): swap factors
                cols = np.arange(ni * nj)
                bi, bj = np.divmod(cols, nj)
                for k in cat.ring.fusion(i, j):
                    if not cat.ring.admissible(j, i, k):
                        continue
                    if inverse:
                        rv = cat.r.get(j, i, k)
                        coeff = (1.0 / rv) if rv else 0j
                    else:
                        coeff = cat.r.get(i, j, k)
                    rect = np.zeros((nj * ni, ni * nj), dtype=complex)
                    rect[bj * ni + bi, cols] = coeff
                    mids.setdefault(k, []).append(((j, i), (i, j), rect))
        src = X.tensor(Y)
        dims_src = _sector_dims(cat, src)
        blocks = {k: _recouple(cat, X, Y, Y, X, k, mids.get(k, ()))
                  for k in range(cat.n_labels) if dims_src[k]}
        return Morphism(cat, src, Y.tensor(X), blocks)

    return _cached(cat, ("braid", X.summands, Y.summands, inverse), build)


# ----------------------------------------------------------------------
# duality: cups, caps, traces
# ----------------------------------------------------------------------

#: Each duality kind: whether its pair object puts the dual first (X* X
#: rather than X X*), and its scalar on a simple.
_KINDS = {"coev": (False, CategoryData.coev_scalar),
          "eval'": (False, CategoryData.ev_right_scalar),
          "eval": (True, CategoryData.ev_scalar),
          "coev'": (True, CategoryData.coev_right_scalar)}


def cup_cap(cat: CategoryData, X, kind: str) -> Morphism:
    """Duality morphisms of an object.

    kind = 'coev'  : 1 -> X (x) X*        kind = 'eval'  : X* (x) X -> 1
    kind = 'coev'' : 1 -> X* (x) X        kind = 'eval'' : X (x) X* -> 1

    The primed pair is induced by the pivotal structure; together the four
    satisfy the zig-zag identities and give the left/right quantum traces.
    """
    X = as_object(X)
    if kind not in _KINDS:
        raise ShapeError(f"unknown cup/cap kind {kind!r}")
    return _cached(cat, ("cupcap", X.summands, kind),
                   lambda: _build_cup_cap(cat, X, kind))


def _build_cup_cap(cat: CategoryData, X: ObjectExpr, kind: str) -> Morphism:
    """The three cases of the module docstring.  Summand si of X is summand
    si n + si of the pair object, its copy pair (c, c) is copy c m + c
    there, and a sector basis lists summands, copies, then trees."""
    dual_first, scalar = _KINDS[kind]
    coev = kind.startswith("coev")
    Xd = X.dual(cat)
    pair = Xd.tensor(X) if dual_first else X.tensor(Xd)
    unit = ObjectExpr.unit()
    match X.summands:
        case (((), 1),):
            return identity(cat, unit)
        case (((a,), 1),):
            vec = np.array([scalar(cat, a)], dtype=complex)
        case (((a, *u), 1),):
            # peel the first letter: the inner word's pair sits between the
            # outer word's identities, a u u* a* (or u* a* a u), as in
            # coev(a u) = (1_a (x) coev(u) (x) 1_a*) o coev(a)
            A, U = ObjectExpr.simple(a), ObjectExpr.word(u)
            inner, outer = (A, U) if dual_first else (U, A)
            left, right = ((outer.dual(cat), outer) if dual_first
                           else (outer, outer.dual(cat)))
            mid = tensor(identity(cat, left),
                         tensor(cup_cap(cat, inner, kind),
                                identity(cat, right)))
            ends = cup_cap(cat, outer, kind)
            return compose(mid, ends) if coev else compose(ends, mid)
        case _:
            starts = list(accumulate((m * len(word_trees(cat, w, 0))
                                      for w, m in pair.summands), initial=0))
            n = len(X.summands)
            vec = np.zeros(starts[-1], dtype=complex)
            for si, (w, m) in enumerate(X.summands):
                block = cup_cap(cat, ObjectExpr.word(w), kind).block(0)
                for c in range(m):
                    start = starts[si * n + si] + (c * m + c) * block.size
                    vec[start:start + block.size] = block.ravel()
    if coev:
        return Morphism(cat, unit, pair, {0: vec[:, None]})
    return Morphism(cat, pair, unit, {0: vec[None, :]})


def quantum_trace(cat: CategoryData, f: Morphism, side: str = "left") -> Scalar:
    """Quantum trace of an endomorphism via explicit cup/cap closure."""
    if not f.is_endomorphism():
        raise ShapeError("quantum trace of a non-endomorphism")
    X = f.source
    if side == "left":
        loop = compose_all(cup_cap(cat, X, "eval'"),
                           tensor(f, identity(cat, X.dual(cat))),
                           cup_cap(cat, X, "coev"))
    elif side == "right":
        loop = compose_all(cup_cap(cat, X, "eval"),
                           tensor(identity(cat, X.dual(cat)), f),
                           cup_cap(cat, X, "coev'"))
    else:
        raise ShapeError(f"unknown trace side {side!r}")
    return complex(loop.block(0)[0, 0])


def zigzag_defects(cat: CategoryData, X) -> list:
    """Residuals of the four zig-zag identities for an object."""
    X = as_object(X)
    Xd = X.dual(cat)
    id_X = identity(cat, X)
    id_Xd = identity(cat, Xd)
    z1 = compose(tensor(id_X, cup_cap(cat, X, "eval")),
                 tensor(cup_cap(cat, X, "coev"), id_X))
    z2 = compose(tensor(cup_cap(cat, X, "eval"), id_Xd),
                 tensor(id_Xd, cup_cap(cat, X, "coev")))
    z3 = compose(tensor(id_Xd, cup_cap(cat, X, "eval'")),
                 tensor(cup_cap(cat, X, "coev'"), id_Xd))
    z4 = compose(tensor(cup_cap(cat, X, "eval'"), id_X),
                 tensor(id_X, cup_cap(cat, X, "coev'")))
    return [defect_from_identity(z) for z in (z1, z2, z3, z4)]


# ----------------------------------------------------------------------
# dual bases and loops
# ----------------------------------------------------------------------

@dataclass(eq=False)
class CasimirPair:
    """Dual bases of Hom(X, i*) and Hom(i*, X) under the trace pairing
    ``quantum_trace(cat, compose(psi, phi))``.

    The pairing of ``dual_basis[a]`` with ``basis[b]`` is delta_ab within
    tolerance; the Gram matrix that was inverted during construction is
    reported through its condition number.
    """

    basis: list
    dual_basis: list
    gram_condition: float


def hom_basis(cat: CategoryData, X, i: int, rotation=None) -> CasimirPair:
    """Basis of Hom(X, i*) plus its trace-pairing dual in Hom(i*, X).

    The default basis is the canonical fusion-tree basis; ``rotation`` (an
    invertible matrix) mixes it, and the dual basis is recomputed through
    the Gram matrix, so downstream constructions can be checked for basis
    independence.
    """
    X = as_object(X)
    istar = cat.dual[i]
    tgt = ObjectExpr.simple(istar)
    n = X.dim_sector(cat, istar)
    if n == 0:
        return CasimirPair([], [], 1.0)
    rot = (np.eye(n, dtype=complex) if rotation is None
           else np.array(rotation, dtype=complex))
    if rot.shape != (n, n):
        raise ShapeError(f"rotation must be {n}x{n}, got {rot.shape}")
    # b_l is row l of rot at sector i*; against the unit column c_m,
    # Tr(c_m o b_l) = sum_k d_k tr((c_m o b_l)_k) = d_{i*} rot[l, m], as
    # only sector i* is non-zero, so the duals are the columns of gram^-T
    gram = cat.dim(istar) * rot.T
    duals = _inverse(gram).T
    return CasimirPair(
        [Morphism(cat, X, tgt, {istar: rot[l:l + 1]}) for l in range(n)],
        [Morphism(cat, tgt, X, {istar: duals[:, l:l + 1]}) for l in range(n)],
        _condition(gram))


def identity_resolution(cat: CategoryData, W) -> list:
    """Triples (i, phi_l, phi^l) with sum_i sum_l dim(i) phi^l o phi_l = id_W:
    the basis of Hom(W, i) and its trace dual (``hom_basis``)."""
    return [(i, lo, hi) for i in range(cat.n_labels)
            for pair in (hom_basis(cat, W, cat.dual[i]),)
            for lo, hi in zip(pair.basis, pair.dual_basis)]


def _loop_weight(cat: CategoryData, j: int, b: int, c: int) -> complex:
    """kappa(j, b, c): a j strand closed on the right of one b strand,
    read in the channel c of b j.

    The loop contributes its cup and cap scalars coev(j) ev'(j) and one
    F-move each way between the vacuum channel of j j* and the channel c
    of b j: Finv[b,j,j*,b][0,c] F[b,j,j*,b][c,0].
    """
    jd = cat.dual[j]
    return (cat.coev_scalar(j) * cat.ev_right_scalar(j)
            * cat.f.inverse_get(b, j, jd, b, 0, c)
            * cat.f.get(b, j, jd, b, c, 0))


def _close_right(cat: CategoryData, f: Morphism, X: ObjectExpr,
                 j: int) -> Morphism:
    """Close the simple right factor of f : X (x) j -> X (x) j into a loop.

    Equal to (1 (x) ev'_j) (f (x) 1) (1 (x) coev_j) : X -> X, read off the
    channel blocks (``_channel_blocks``): the sector-b block is the sum
    over c in b j of kappa(j, b, c) times the (b, j) -> (b, j) channel
    block of f at sector c.
    """
    J = ObjectExpr.simple(j)
    blocks = {b: np.zeros((n, n), dtype=complex)
              for b, n in enumerate(_sector_dims(cat, X)) if n}
    for c, n in enumerate(_sector_dims(cat, X.tensor(J))):
        if n:
            for ((b, _), pair_s), rect in _channel_blocks(
                    cat, X, J, X, J, c, f.block(c)).items():
                if pair_s == (b, j):
                    blocks[b] += _loop_weight(cat, j, b, c) * rect
    return Morphism(cat, X, X, blocks)


def omega_loop(cat: CategoryData, X, mirror: bool = False) -> Morphism:
    """The loop colored by the regular color around one strand X.

    Returns the endomorphism of X

        sum_j dim(j) x (j-colored loop around X),

    where the j strand passes behind X by the braiding c_{X,j} and comes
    back in front by the braiding c_{j,X}.  ``mirror=True`` takes inverse
    braidings for both crossings, which by the sliding property must not
    change the value.
    """
    X = as_object(X)
    total = zero_morphism(cat, X, X)
    for j in range(cat.n_labels):
        J = ObjectExpr.simple(j)
        around = compose(braiding(cat, J, X, inverse=mirror),
                         braiding(cat, X, J, inverse=mirror))
        total = total + cat.dim(j) * _close_right(cat, around, X, j)
    return total


def direct_sum(mors) -> Morphism:
    """Block-diagonal direct sum of morphisms, in the given order
    (``Morphism.assemble``)."""
    return Morphism.assemble(
        mors[0].cat, ObjectExpr.direct_sum([m.source for m in mors]),
        ObjectExpr.direct_sum([m.target for m in mors]),
        [[m if s == t else zero_morphism(m.cat, m.source, n.target)
          for s, m in enumerate(mors)] for t, n in enumerate(mors)])
