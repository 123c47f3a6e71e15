"""Skeletal data of a premodular category.

A category is presented by a finite set of simple labels (0 is the tensor
unit), a multiplicity-free fusion ring, F-symbols (associator recoupling
coefficients), R-symbols (braiding eigenvalues) and per-label pivotal
coefficients.  The ground field is realized as complex double precision;
every equality check in the library is tolerance-mediated.

Conventions
-----------
* Fusion trees are left-combed; the F-move reads

      |((ab)_e c) -> d>  =  sum_f  F[a,b,c,d][e,f] |(a (bc)_f) -> d>

  so ``F.matrix(a, b, c, d)`` has rows indexed by channels ``e`` of
  ``a x b`` with ``d`` in ``e x c``, and columns by channels ``f`` of
  ``b x c`` with ``d`` in ``a x f``.  These lists are
  ``FusionRing.trees()``, the one enumeration of the F-trees: the loader,
  the catalog, the F-matrices and the pentagon, hexagon and condition
  checks all read it.
* ``R[a, b, c]`` is the eigenvalue of the braiding ``a x b -> b x a`` on the
  fusion channel ``c``.
* Duality scalars are fixed by the gauge ``ev(a) = <a* a -> 0|`` and
  ``coev(a) = coev_scalar(a) |0 -> a a*>`` with
  ``coev_scalar(a) = 1 / F[a, a*, a, a][0, 0]``, which makes both zig-zag
  identities hold exactly.  The left quantum dimension is then
  ``dim(a) = t_a * coev_scalar(a)``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidCategoryError, SchemaError

__all__ = [
    "Scalar", "SimpleLabel", "ToleranceCfg", "FusionRing", "FSymbolTable",
    "RSymbolTable", "PivotalCoeffs", "CategoryData", "ValidationReport",
    "ResidualEntry", "load_category", "loads_category", "serialize_category",
    "validate", "quantum_dim", "global_dim",
]

#: The ground field, realized as complex doubles.
Scalar = complex

SCHEMA_KEYS = {"name", "labels", "dual", "fusion", "F", "R", "pivotal", "tolerances"}


@dataclass(frozen=True)
class SimpleLabel:
    """A simple object type: contiguous integer id plus a display name."""

    id: int
    name: str


@dataclass(frozen=True)
class ToleranceCfg:
    """Numerical tolerances.

    ``eps_structural`` bounds axiom residuals (pentagon, hexagon, ...);
    ``eps_identity`` bounds composite-vs-identity checks.
    """

    eps_structural: float = 1e-10
    eps_identity: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps_structural <= self.eps_identity < 1.0):
            raise SchemaError(
                "tolerances must satisfy 0 < eps_structural <= eps_identity < 1, "
                f"got ({self.eps_structural}, {self.eps_identity})")


# ----------------------------------------------------------------------
# dense linear algebra on small blocks
# ----------------------------------------------------------------------
# Most blocks are 1x1.  A finite block [[z]] is answered in Python with
# LAPACK's conventions; any other block, and a NaN, inf, zero or subnormal
# pivot, goes to NumPy unchanged, so errors and non-finite results are
# NumPy's own.

def _entry(M: np.ndarray):
    """``(z, |z|)`` for a finite 1x1 block, else None.  |z| is taken as
    LAPACK's dlapy3 takes it, which is the singular value its SVD returns."""
    if M.shape != (1, 1):
        return None
    z = M.item()
    if not cmath.isfinite(z):
        return None
    x, y = abs(z.real), abs(z.imag)
    w = x if x > y else y
    r = w * math.sqrt((x / w) ** 2 + (y / w) ** 2) if w else 0.0
    return (z, r) if r < math.inf else None


_TINY = float(np.finfo(float).tiny)


def _pivot(M: np.ndarray):
    """``(z, |z|)`` for a 1x1 block with a normal, finite pivot, else None."""
    e = _entry(M)
    return e if e is not None and e[1] >= _TINY else None


def _spectral_norm(M: np.ndarray) -> float:
    """The largest singular value of M (``np.linalg.norm(M, 2)``)."""
    e = _entry(M)
    if e is not None:
        return e[1]
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _inverse(M: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(M)``."""
    p = _pivot(M)
    if p is not None:
        return np.array([[1 / p[0]]])
    return np.linalg.inv(M)


def _condition(M: np.ndarray) -> float:
    """The 2-norm condition number (``np.linalg.cond(M)``)."""
    if _pivot(M) is not None:
        return 1.0
    return float(np.linalg.cond(M))


def _or_nan(measure, M: np.ndarray) -> float:
    """``measure(M)``, or NaN where LAPACK's SVD does not converge on M, as
    on a NaN entry."""
    try:
        return measure(M)
    except np.linalg.LinAlgError:
        return math.nan


def _svd(M: np.ndarray) -> tuple:
    """``np.linalg.svd(M)``; for [[z]] it is U = [[z/|z|]], s = [|z|],
    Vh = [[1]]."""
    p = _pivot(M)
    if p is not None:
        z, r = p
        return np.array([[z / r]]), np.array([r]), np.ones((1, 1), M.dtype)
    return np.linalg.svd(M)


class FusionRing:
    """Multiplicity-free fusion coefficients ``N[i, j, k] in {0, 1}``."""

    def __init__(self, n_labels: int, triples):
        self.n_labels = n_labels
        N = np.zeros((n_labels, n_labels, n_labels), dtype=np.uint8)
        for (i, j, k) in triples:
            N[i, j, k] = 1
        self.N = N
        self._triples = frozenset(zip(*(a.tolist() for a in np.nonzero(N))))
        # fusion outcome lists, precomputed in label order
        self._outcomes = {
            (i, j): tuple(int(k) for k in range(n_labels) if N[i, j, k])
            for i in range(n_labels) for j in range(n_labels)
        }
        # and the pairs fusing to each channel, in label order
        self._pairs = [tuple(zip(*(a.tolist() for a in np.nonzero(N[:, :, k]))))
                       for k in range(n_labels)]
        # the F-trees, walked from the outcomes: rows first, then columns
        out, trees = self._outcomes, {}
        for (a, b), es in out.items():
            for e in es:
                for c in range(n_labels):
                    for d in out[(e, c)]:
                        trees.setdefault((a, b, c, d), ([], []))[0].append(e)
        for (b, c), fs in out.items():
            for f in fs:
                for a in range(n_labels):
                    for d in out[(a, f)]:
                        trees.setdefault((a, b, c, d), ([], []))[1].append(f)
        self._trees = {key: (tuple(rows), tuple(cols))
                       for key, (rows, cols) in sorted(trees.items())}

    def fusion(self, i: int, j: int) -> tuple:
        """All channels k with N(i, j, k) = 1, in ascending label order."""
        return self._outcomes[(i, j)]

    def pairs(self, k: int) -> tuple:
        """All (i, j) with N(i, j, k) = 1, in label order (i outer)."""
        return self._pairs[k]

    def admissible(self, i: int, j: int, k: int) -> bool:
        return (i, j, k) in self._triples

    def triples(self):
        n = self.n_labels
        return [(i, j, k) for i in range(n) for j in range(n)
                for k in range(n) if self.N[i, j, k]]

    def trees(self) -> dict:
        """The F-trees ``{(a, b, c, d): (rows, cols)}``, shared: do not mutate.

        ``rows`` are the channels e of a b with d in e c and ``cols`` the
        channels f of b c with d in a f, both in label order; a tree is
        listed, in label order, when either is non-empty.  On an associative
        ring the two have equal length.  Built with the ring by walking the
        fusion outcomes (a b -> e, e c -> d, then b c -> f, a f -> d), not
        by scanning all n^4 trees.
        """
        return self._trees


class FSymbolTable:
    """Sparse F-symbols of one fusion ring, with its F-matrices and their
    inverses built once per tree and shared read-only.

    Keys are ``(a, b, c, d, e, f)``; absent admissible entries read as 0.
    The rows and columns of each F-matrix are those of ``ring.trees()``.
    """

    def __init__(self, ring: FusionRing, entries: dict):
        self.ring = ring
        self.entries = {tuple(int(x) for x in k): complex(v)
                        for k, v in entries.items()}
        self._mats: dict = {}
        self._invs: dict = {}

    def get(self, a, b, c, d, e, f) -> complex:
        return self.entries.get((a, b, c, d, e, f), 0j)

    def matrix(self, a, b, c, d):
        """F-matrix for the tree (a, b, c) -> d: rows e in a*b, cols f in b*c."""
        key = (a, b, c, d)
        hit = self._mats.get(key)
        if hit is not None:
            return hit
        rows, cols = self.ring.trees().get(key, ((), ()))
        mat = np.array([[self.get(a, b, c, d, e, f) for f in cols]
                        for e in rows], dtype=complex).reshape(len(rows), len(cols))
        mat.flags.writeable = False
        out = (mat, rows, cols)
        self._mats[key] = out
        return out

    def inverse(self, a, b, c, d):
        """Inverse F-matrix: rows f in b*c, cols e in a*b."""
        key = (a, b, c, d)
        hit = self._invs.get(key)
        if hit is not None:
            return hit
        mat, rows, cols = self.matrix(a, b, c, d)
        if mat.shape[0] != mat.shape[1]:
            raise InvalidCategoryError(
                f"F-matrix for {(a, b, c, d)} is not square: {mat.shape}")
        try:
            inv = _inverse(mat) if mat.size else mat.reshape(0, 0)
        except np.linalg.LinAlgError as exc:
            raise InvalidCategoryError(
                f"F-matrix for {(a, b, c, d)} is singular") from exc
        inv.flags.writeable = False
        out = (inv, cols, rows)
        self._invs[key] = out
        return out

    def inverse_get(self, a, b, c, d, f, e) -> complex:
        """Entry (f, e) of the inverse F-matrix (f in b*c, e in a*b), or 0
        off the fusion rules."""
        inv, rows, cols = self.inverse(a, b, c, d)
        if f not in rows or e not in cols:
            return 0j
        return inv[rows.index(f), cols.index(e)]


class RSymbolTable:
    """Sparse R-symbol storage: ``(a, b, c) -> braiding eigenvalue``."""

    def __init__(self, entries: dict):
        self.entries = {tuple(int(x) for x in k): complex(v)
                        for k, v in entries.items()}

    def get(self, a, b, c) -> complex:
        return self.entries.get((a, b, c), 0j)


@dataclass
class PivotalCoeffs:
    """Per-label pivotal coefficients ``t_i`` and derived twists ``theta_i``.

    The twists are not stored in category files; they are recomputed from the
    R-symbols and duality scalars whenever a category is finalized.
    """

    t: tuple
    twists: tuple = ()


@dataclass(eq=False)
class CategoryData:
    """A complete skeletal premodular category, immutable after construction.

    All derived quantities (quantum dimensions, duality scalars, twists) are
    computed once in ``__post_init__``; operations elsewhere in the package
    treat instances as read-only and cache basis data in ``_cache``.
    """

    name: str
    labels: tuple
    dual: tuple
    ring: FusionRing
    f: FSymbolTable
    r: RSymbolTable
    piv: PivotalCoeffs
    tol: ToleranceCfg = field(default_factory=ToleranceCfg)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.ring.n_labels
        if len(self.labels) != n or len(self.dual) != n:
            raise SchemaError("labels/dual length does not match fusion ring size")
        # duality gauge: ev(a) = <a* a|, coev(a) = (1/F[a,a*,a,a]_{00}) |a a*>
        coev = []
        for a in range(n):
            fa = self.f.get(a, self.dual[a], a, a, 0, 0)
            if abs(fa) == 0.0:
                raise InvalidCategoryError(
                    f"F[{a},{self.dual[a]},{a},{a}; 0,0] vanishes; "
                    "cannot normalize duality morphisms")
            coev.append(1.0 / fa)
        self._coev_scalar = tuple(coev)
        self._ev_scalar = tuple(1.0 + 0j for _ in range(n))
        dims = tuple(self.piv.t[a] * self._coev_scalar[a] for a in range(n))
        for a, d in enumerate(dims):
            if not (d and cmath.isfinite(d)):  # a non-finite entry or underflow
                raise InvalidCategoryError(
                    f"quantum dimension of label '{self.label_name(a)}' is {abs(d):g}")
        self.dims = dims
        self.total_dim = sum(d * d for d in dims)
        if abs(self.total_dim) < self.tol.eps_identity:
            raise InvalidCategoryError(
                f"global dimension of '{self.name}' vanishes within tolerance")
        twists = []
        for a in range(n):
            th = sum(self.dims[k] * self.r.get(a, a, k)
                     for k in self.ring.fusion(a, a)) / dims[a]
            twists.append(th)
        # never mutate the caller's coefficient object: twists derived here
        self.piv = PivotalCoeffs(t=self.piv.t, twists=tuple(twists))

    # -- small accessors used throughout the package --------------------

    @property
    def n_labels(self) -> int:
        return self.ring.n_labels

    def label_name(self, i: int) -> str:
        return self.labels[i].name

    def dim(self, i: int) -> complex:
        return self.dims[i]

    def coev_scalar(self, a: int) -> complex:
        """Coefficient of coev(a): 1 -> a (x) a* on the canonical tree."""
        return self._coev_scalar[a]

    def ev_scalar(self, a: int) -> complex:
        """Coefficient of ev(a): a* (x) a -> 1 on the canonical tree."""
        return self._ev_scalar[a]

    def coev_right_scalar(self, a: int) -> complex:
        """Coefficient of coev'(a): 1 -> a* (x) a."""
        return self._coev_scalar[self.dual[a]] / self.piv.t[a]

    def ev_right_scalar(self, a: int) -> complex:
        """Coefficient of ev'(a): a (x) a* -> 1."""
        return self.piv.t[a] * self._ev_scalar[self.dual[a]]

    def __repr__(self):
        return f"CategoryData(name={self.name!r}, n_labels={self.n_labels})"


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualEntry:
    name: str
    value: float
    threshold: float

    def __post_init__(self):
        # plain floats, so that reports serialize with the json module
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "threshold", float(self.threshold))

    @property
    def ok(self) -> bool:
        return self.value < self.threshold


@dataclass
class ValidationReport:
    """Named residuals of the category axioms plus an overall verdict."""

    category: str
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def residual(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "category": self.category,
            "pass": self.ok,
            "residuals": {e.name: {"value": e.value, "threshold": e.threshold,
                                   "pass": e.ok}
                          for e in self.entries},
        }


def _fold(worst: float, value: float) -> float:
    """``max(worst, value)`` that keeps a NaN on either side: ``max`` keeps
    ``worst`` past a NaN, so NaN data would read as a zero residual."""
    return worst if value <= worst or worst != worst else value


def _pentagon_residual(cat: CategoryData) -> float:
    """Max deviation of the F-symbols from the pentagon equation.

    For every admissible labelling the two recoupling paths
    ((ab)c)d -> a(b(cd)) must agree:

        F[f,c,d,r][g,l] F[a,b,l,r][f,k]
            = sum_h F[a,b,c,g][f,h] F[a,h,d,r][g,k] F[b,c,d,k][h,l]
    """
    ring, F = cat.ring, cat.f
    trees = ring.trees()
    worst = 0.0
    for (fch, c, d, r), (gs, ls) in trees.items():
        for g in gs:
            for l in ls:
                for a, b in ring.pairs(fch):
                    for k in trees[(a, b, l, r)][1]:
                        lhs = (F.get(fch, c, d, r, g, l)
                               * F.get(a, b, l, r, fch, k))
                        rhs = sum(F.get(a, b, c, g, fch, h)
                                  * F.get(a, h, d, r, g, k)
                                  * F.get(b, c, d, k, h, l)
                                  for h in trees[(a, b, c, g)][1]
                                  if ring.admissible(h, d, k))
                        worst = _fold(worst, abs(lhs - rhs))
    return worst


def _hexagon_residual(cat: CategoryData, inverse: bool) -> float:
    """Max deviation from the hexagon for the braiding (or its inverse).

    Braiding ``a`` past ``b (x) c`` in one step must match braiding past
    ``b`` then ``c`` with the associator in between:

        R[a,f->d] F[a,b,c,d][e,f]
            = R[a,b->e] sum_j F[b,a,c,d][e,j] R[a,c->j] Finv[b,c,a,d][j,f]

    with every R replaced by (R reversed)^-1 for the inverse braiding.
    """
    F, R = cat.f, cat.r
    trees = cat.ring.trees()

    def rsym(x, y, ch):
        if inverse:
            v = R.get(y, x, ch)
            return (1.0 / v) if v else 0j
        return R.get(x, y, ch)

    worst = 0.0
    for (a, b, c, d), (rows, cols) in trees.items():
        for e in rows:
            for f in cols:
                lhs = rsym(a, f, d) * F.get(a, b, c, d, e, f)
                rhs = 0j
                for j in trees.get((b, a, c, d), ((), ()))[1]:
                    rhs += (F.get(b, a, c, d, e, j) * rsym(a, c, j)
                            * F.inverse_get(b, c, a, d, j, f))
                rhs *= rsym(a, b, e)
                worst = _fold(worst, abs(lhs - rhs))
    return worst


def _unit_duality_residual(cat: CategoryData) -> float:
    """Unit axioms, duality axioms, and the triviality of unit F/R entries."""
    ring = cat.ring
    n = ring.n_labels
    worst = 0.0
    for i in range(n):
        for k in range(n):
            worst = _fold(worst, abs(float(ring.N[i, 0, k]) - (1.0 if i == k else 0.0)))
            worst = _fold(worst, abs(float(ring.N[0, i, k]) - (1.0 if i == k else 0.0)))
        for j in range(n):
            want = 1.0 if j == cat.dual[i] else 0.0
            worst = _fold(worst, abs(float(ring.N[i, j, 0]) - want))
    # ring associativity
    N = ring.N.astype(float)
    lhs = np.einsum("ijm,mkl->ijkl", N, N)
    rhs = np.einsum("jkm,iml->ijkl", N, N)
    worst = _fold(worst, float(np.abs(lhs - rhs).max()))
    # unit coherence: F-symbols with a unit leg and R-symbols with a unit
    # factor must be exactly 1 on admissible entries
    for (a, b, c, d, e, f), v in cat.f.entries.items():
        if 0 in (a, b, c):
            worst = _fold(worst, abs(v - 1.0))
    for (a, b, c), v in cat.r.entries.items():
        if a == 0 or b == 0:
            worst = _fold(worst, abs(v - 1.0))
    worst = _fold(worst, abs(cat.piv.t[0] - 1.0))
    return worst


#: Ceiling on the condition number of any F-matrix.  Above it an inverse
#: F-move keeps fewer than four of a double's sixteen digits: the matrix is
#: singular at working precision, and residuals computed through its
#: inverse (the hexagons, every recoupling) no longer measure the data.  It
#: is a singularity cut, not an accuracy bound; the residual checks carry
#: the tolerances.
_F_CONDITION_LIMIT = 1e12


def _f_condition_number(cat: CategoryData) -> float:
    worst = 1.0
    for tree in cat.ring.trees():
        mat = cat.f.matrix(*tree)[0]
        if mat.size == 0:
            continue
        if mat.shape[0] != mat.shape[1]:
            return math.inf
        worst = _fold(worst, _condition(mat))
    return worst


def _sphericality_residual(cat: CategoryData) -> float:
    """Left vs right quantum traces of seeded random sector endomorphisms.

    Every non-unit simple is checked on its own; two-letter words then fill
    the sample up to six words.
    """
    from . import engine  # deferred: engine builds on this module

    rng = np.random.default_rng(20240801)
    worst = 0.0
    n = cat.n_labels
    words = [(a,) for a in range(1, n)]
    pairs = [(a, b) for a in range(1, n) for b in range(1, n)]
    words = (words + pairs[:max(0, 6 - len(words))]) or [()]
    for w in words:
        X = engine.ObjectExpr.word(w)
        f = engine.random_endomorphism(cat, X, rng)
        left = engine.quantum_trace(cat, f, side="left")
        right = engine.quantum_trace(cat, f, side="right")
        worst = _fold(worst, abs(left - right))
    return worst


def _dimension_character_residual(cat: CategoryData) -> float:
    """Max |d_a d_b - sum_c N_ab^c d_c|: a pivotal structure is monoidal
    only if the quantum dimensions are a character of the fusion ring."""
    d = np.array(cat.dims, dtype=complex)
    return float(np.abs(np.outer(d, d) - cat.ring.N @ d).max())


def _zigzag_residual(cat: CategoryData) -> float:
    from . import engine

    worst = 0.0
    for a in range(cat.n_labels):
        X = engine.ObjectExpr.simple(a)
        for m in engine.zigzag_defects(cat, X):
            worst = _fold(worst, m)
    return worst


def validate(cat: CategoryData) -> ValidationReport:
    """Check the category axioms; failures are report entries, never raises."""
    eps = cat.tol.eps_structural
    checks = [
        ("pentagon", _pentagon_residual, eps),
        ("hexagon_forward", lambda c: _hexagon_residual(c, inverse=False), eps),
        ("hexagon_reverse", lambda c: _hexagon_residual(c, inverse=True), eps),
        ("unit_duality", _unit_duality_residual, eps),
        ("sphericality", _sphericality_residual, eps),
        ("zigzag", _zigzag_residual, eps),
        ("dimension_character", _dimension_character_residual, eps),
        ("f_condition", _f_condition_number, _F_CONDITION_LIMIT),
        ("min_quantum_dim_inverse", lambda c: 1.0 / min(abs(d) for d in c.dims),
         1.0 / cat.tol.eps_identity),
    ]
    entries = []
    for name, residual, threshold in checks:
        try:
            value = residual(cat)
        except (np.linalg.LinAlgError, InvalidCategoryError):
            # a singular F-matrix on the way: the axiom cannot be checked
            value = math.inf
        entries.append(ResidualEntry(name, value, threshold))
    return ValidationReport(category=cat.name, entries=entries)


# ----------------------------------------------------------------------
# quantum dimensions
# ----------------------------------------------------------------------

def quantum_dim(cat: CategoryData, X) -> Scalar:
    """Quantum dimension of an object: trace of its identity via eval o coev.

    Additive over direct sums and multiplicative over tensor words by
    construction of the duality morphisms.
    """
    from . import engine

    X = engine.as_object(X)
    return engine.quantum_trace(cat, engine.identity(cat, X))


def global_dim(cat: CategoryData) -> Scalar:
    """dim(Omega) = sum of squared quantum dimensions of the simples."""
    total = cat.total_dim
    if abs(total) < cat.tol.eps_identity:
        raise InvalidCategoryError(
            f"global dimension of '{cat.name}' vanishes within tolerance")
    return total


# ----------------------------------------------------------------------
# file schema
# ----------------------------------------------------------------------

def _require(doc: dict, key: str, kind: type = list):
    if key not in doc:
        raise SchemaError(f"category document is missing required key '{key}'")
    if not isinstance(doc[key], kind):
        raise SchemaError(f"key '{key}' must be a {kind.__name__}")
    return doc[key]


def _parse(what: str, value, read):
    """``read(value)``, where a malformed value is a SchemaError about
    ``what``."""
    try:
        return read(value)
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise SchemaError(f"malformed {what}: {value}") from exc


def _ids(values) -> tuple:
    """``values`` as label ids; a value that is not a whole number raises."""
    ids = tuple(map(int, values))
    if ids != tuple(values):
        raise ValueError(f"label ids {values} are not whole numbers")
    return ids


def _records(doc: dict, key: str, legs: str, fits, zero: str = "",
             off: str = "off the fusion rules") -> dict:
    """``{ids: re + i im}`` over the records under ``key``, the integer ids
    read at ``legs``.  Ids that ``fits`` refuses are ``off``, and a zero
    value is refused where ``zero`` names it."""
    out, what = {}, f"record in key '{key}'"
    for rec in _require(doc, key):
        ids, val = _parse(what, rec, lambda r: (
            _ids([r[x] for x in legs]),
            complex(float(r["re"]), float(r.get("im", 0.0)))))
        if not fits(*ids):
            raise SchemaError(f"key '{key}' has a record {off}: {rec}")
        if zero and val == 0:
            raise SchemaError(f"key '{key}' has a zero {zero}: {rec}")
        out[ids] = val
    return out


def _admissible(ring: FusionRing, a: int, b: int, c: int) -> bool:
    """N(a, b, c) = 1; False also when an id is out of range."""
    n = ring.n_labels
    return all(0 <= x < n for x in (a, b, c)) and ring.admissible(a, b, c)


def loads_category(text: str) -> CategoryData:
    """Parse a category document from its serialized text form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"category document is not valid JSON: {exc}") from exc
    return category_from_dict(doc)


def load_category(source) -> CategoryData:
    """Load a category from a path or file object; no axiom validation is run."""
    if hasattr(source, "read"):
        return loads_category(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return loads_category(fh.read())


def category_from_dict(doc: dict) -> CategoryData:
    if not isinstance(doc, dict):
        raise SchemaError("category document must be a mapping")
    unknown = set(doc) - SCHEMA_KEYS
    if unknown:
        raise SchemaError(f"unknown keys in category document: {sorted(unknown)}")
    name = _require(doc, "name", object)
    label_names = _require(doc, "labels")
    if not label_names:
        raise SchemaError("key 'labels' must list at least the tensor unit")
    n = len(label_names)
    labels = tuple(SimpleLabel(i, str(nm)) for i, nm in enumerate(label_names))

    dual = _require(doc, "dual")
    if len(dual) != n:
        raise SchemaError(f"key 'dual' must have length {n}, got {len(dual)}")
    dual = _parse("key 'dual'", dual, _ids)
    if any(not 0 <= d < n for d in dual):
        raise SchemaError("key 'dual' contains an out-of-range label id")
    if dual[0] != 0:
        raise SchemaError("unit must be self-dual (dual[0] must be 0)")
    for i, d in enumerate(dual):
        if dual[d] != i:
            raise SchemaError(f"key 'dual' is not an involution at label {i}")

    triples = []
    for rec in _require(doc, "fusion"):
        triple = _parse("entry in key 'fusion'", rec, _ids)
        if len(triple) != 3:
            raise SchemaError(f"key 'fusion' entries must be [i,j,k] triples, got {rec}")
        if not all(0 <= x < n for x in triple):
            raise SchemaError(f"key 'fusion' contains out-of-range ids in {rec}")
        if triple in triples:
            raise SchemaError(f"key 'fusion' lists the triple {rec} twice")
        triples.append(triple)
    ring = FusionRing(n, triples)

    for i in range(n):
        for k in range(n):
            if bool(ring.N[i, 0, k]) != (i == k) or bool(ring.N[0, i, k]) != (i == k):
                raise SchemaError("key 'fusion' violates the unit axiom "
                                  f"at labels ({i},{k})")
        for j in range(n):
            if bool(ring.N[i, j, 0]) != (j == dual[i]):
                raise SchemaError("key 'fusion' is inconsistent with key 'dual' "
                                  f"at labels ({i},{j})")

    def on_tree(a, b, c, d, e, f):
        rows, cols = ring.trees().get((a, b, c, d), ((), ()))
        return e in rows and f in cols

    f_table = FSymbolTable(ring, _records(doc, "F", "abcdef", on_tree))
    r_table = RSymbolTable(_records(
        doc, "R", "abc", lambda a, b, c: _admissible(ring, a, b, c),
        zero="braiding eigenvalue"))

    # identity-forced entries must be explicit: unit-leg F and R symbols
    for a in range(n):
        for b in range(n):
            for c in ring.fusion(a, b):
                for key in [(0, a, b, c, a, c), (a, 0, b, c, a, b),
                            (a, b, 0, c, c, b)]:
                    if key not in f_table.entries:
                        aa, bb, cc, dd, ee, ff = key
                        raise SchemaError(
                            "key 'F' is missing the identity-forced entry "
                            f"{{a:{aa},b:{bb},c:{cc},d:{dd},e:{ee},f:{ff}}}")
        if (0, a, a) not in r_table.entries:
            raise SchemaError("key 'R' is missing the identity-forced entry "
                              f"{{a:0,b:{a},c:{a}}}")
        if (a, 0, a) not in r_table.entries:
            raise SchemaError("key 'R' is missing the identity-forced entry "
                              f"{{a:{a},b:0,c:{a}}}")

    piv = _records(doc, "pivotal", "i", lambda i: 0 <= i < n,
                   zero="coefficient", off=f"off the labels 0..{n - 1}")
    missing = [i for i in range(n) if (i,) not in piv]
    if missing:
        raise SchemaError(f"key 'pivotal' is missing labels {missing}")
    piv = PivotalCoeffs(t=tuple(piv[(i,)] for i in range(n)))

    tol_doc = doc.get("tolerances", {})
    tol = _parse("key 'tolerances'", tol_doc, lambda t: ToleranceCfg(
        eps_structural=float(t.get("structural", 1e-10)),
        eps_identity=float(t.get("identity", 1e-9))))
    return CategoryData(name=str(name), labels=labels, dual=dual, ring=ring,
                        f=f_table, r=r_table, piv=piv, tol=tol)


def category_to_dict(cat: CategoryData) -> dict:
    f_records = [
        {"a": a, "b": b, "c": c, "d": d, "e": e, "f": f,
         "re": v.real, "im": v.imag}
        for (a, b, c, d, e, f), v in sorted(cat.f.entries.items())
    ]
    r_records = [
        {"a": a, "b": b, "c": c, "re": v.real, "im": v.imag}
        for (a, b, c), v in sorted(cat.r.entries.items())
    ]
    return {
        "name": cat.name,
        "labels": [l.name for l in cat.labels],
        "dual": list(cat.dual),
        "fusion": [list(t) for t in cat.ring.triples()],
        "F": f_records,
        "R": r_records,
        "pivotal": [{"i": i, "re": t.real, "im": t.imag}
                    for i, t in enumerate(cat.piv.t)],
        "tolerances": {"structural": cat.tol.eps_structural,
                       "identity": cat.tol.eps_identity},
    }


def serialize_category(cat: CategoryData) -> str:
    """Serialize to the category file schema; floats round-trip exactly."""
    return json.dumps(category_to_dict(cat), indent=2, sort_keys=True)
