"""Graphical-calculus engine: composition, tensor, braiding, duality, loops."""

import itertools
import math

import numpy as np
import pytest

from tcat import (CompositionError, ShapeError, loads_category,
                  serialize_category, validate)
from tcat import engine as E
from tcat.category import (_condition, _inverse, _spectral_norm, _svd,
                           category_from_dict, category_to_dict)
from tcat.engine import ObjectExpr

from conftest import ALL_NAMES, su2_doc
from test_center import TABLE_INPUTS, _table_input

PHI = (1 + math.sqrt(5)) / 2
RNG = np.random.default_rng(20240811)


def word(*ls):
    return ObjectExpr.word(ls)


# -- objects -------------------------------------------------------------

def test_unit_label_is_stripped_from_words():
    assert word(0) == ObjectExpr.unit()
    assert word(0, 1, 0) == word(1)


def test_sector_dims_count_fusion_trees(cats):
    cat = cats["fibonacci"]
    X = word(1, 1)          # tau tau = 1 + tau
    assert X.dim_sector(cat, 0) == 1
    assert X.dim_sector(cat, 1) == 1
    Y = word(1, 1, 1)       # tau^3 = 1 + 2 tau
    assert Y.dim_sector(cat, 0) == 1
    assert Y.dim_sector(cat, 1) == 2


def test_dual_reverses_and_dualizes(cats):
    cat = cats["vec_z3_modular"]
    assert word(1, 2, 1).dual(cat) == word(2, 1, 2)
    X = word(1, 1)
    assert X.dual(cat).dual(cat) == X


def test_fusion_tree_basis_enumeration(cats):
    cat = cats["fibonacci"]
    basis = E.fusion_tree_basis(cat, (1, 1, 1), 1)   # tau^3 -> tau
    assert basis.root == 1
    assert basis.leaves == (1, 1, 1)
    assert basis.trees == ((0,), (1,))               # lexicographic chains
    assert len(E.fusion_tree_basis(cat, (1, 1, 1), 0)) == 1


# -- composition ---------------------------------------------------------

def test_compose_identity_neutral(cats):
    cat = cats["ising"]
    X = word(1, 1)
    f = E.random_morphism(cat, X, X, RNG)
    assert E.distance(E.compose(E.identity(cat, X), f), f) == 0.0
    assert E.distance(E.compose(f, E.identity(cat, X)), f) == 0.0


def test_compose_matches_per_sector_matrix_oracle(cats):
    # independent oracle: composition of block morphisms is plain per-sector
    # matrix multiplication, checked with numpy directly
    cat = cats["fibonacci"]
    X = word(1, 1)
    f = E.random_morphism(cat, X, X, RNG)
    g = E.random_morphism(cat, X, X, RNG)
    h = E.compose(g, f)
    for k in range(cat.n_labels):
        assert np.allclose(h.block(k), g.block(k) @ f.block(k))


def test_compose_shape_mismatch_raises(cats):
    cat = cats["ising"]
    f = E.identity(cat, word(1))
    g = E.identity(cat, word(2))
    with pytest.raises(CompositionError):
        E.compose(g, f)


def test_compose_and_tensor_store_no_zero_block(cats):
    # a sector that one factor lacks, or that no channel reaches, is a zero
    # map and has no block
    cat = cats["ising"]
    X = word(1, 1)  # sectors 1 and psi
    f = E.Morphism(cat, X, X, {0: np.ones((1, 1), dtype=complex)})
    g = E.Morphism(cat, X, X, {2: np.ones((1, 1), dtype=complex)})
    assert E.compose(g, f).blocks == {}
    assert E.tensor(E.zero_morphism(cat, X, X), E.identity(cat, X)).blocks == {}
    # the channel (1, psi) reaches psi alone, though X psi has sector 1 too
    assert set(E.tensor(f, E.identity(cat, word(2))).blocks) == {2}


def test_assemble_lays_out_its_parts(cats):
    # part (t, s) sits at row part t and column part s (the np.block layout)
    # at every sector; a sector that no part holds has no block
    cat = cats["ising"]
    srcs = [word(1), word(1, 2), ObjectExpr.unit()]
    tgts = [word(2, 1), word(1, 1)]
    grid = [[E.random_morphism(cat, S, T, RNG) for S in srcs] for T in tgts]
    grid[1][2] = E.zero_morphism(cat, srcs[2], tgts[1])  # the only sector-0 part
    m = E.Morphism.assemble(cat, ObjectExpr.direct_sum(srcs),
                            ObjectExpr.direct_sum(tgts), grid)
    assert set(m.blocks) == {1}
    assert m.source.dim_sector(cat, 0) == 1 == m.target.dim_sector(cat, 0)
    for k in range(cat.n_labels):
        assert np.array_equal(m.block(k), np.block(
            [[part.block(k) for part in row] for row in grid]))


def test_braiding_inverse_pair(cats):
    for cat in cats.values():
        n = cat.n_labels
        X, Y = word(n - 1), word(n - 1, n - 1)
        fwd = E.braiding(cat, Y, X)                 # Y X -> X Y
        inv = E.braiding(cat, X, Y, inverse=True)   # X Y -> Y X, = c^{-1}_{Y,X}
        assert E.defect_from_identity(E.compose(inv, fwd)) < 1e-12


# -- tensor --------------------------------------------------------------

def test_tensor_unit_strictification(cats):
    cat = cats["ising"]
    X = word(1, 2)
    f = E.random_morphism(cat, X, X, RNG)
    assert E.distance(E.tensor(E.identity(cat, ObjectExpr.unit()), f), f) < 1e-13
    assert E.distance(E.tensor(f, E.identity(cat, ObjectExpr.unit())), f) < 1e-13


def test_tensor_sector_dims_fibonacci(cats):
    cat = cats["fibonacci"]
    t = E.tensor(E.identity(cat, word(1)), E.identity(cat, word(1)))
    assert t.block(0).shape == (1, 1)
    assert t.block(1).shape == (1, 1)
    assert E.defect_from_identity(t) < 1e-13


def test_interchange_law(cats):
    for name in ("ising", "fibonacci", "vec_z3_modular"):
        cat = cats[name]
        X, Y = word(1, 1), word(cat.n_labels - 1)
        a = E.random_morphism(cat, X, X, RNG)
        b = E.random_morphism(cat, X, X, RNG)
        c = E.random_morphism(cat, Y, Y, RNG)
        d = E.random_morphism(cat, Y, Y, RNG)
        lhs = E.tensor(E.compose(a, b), E.compose(c, d))
        rhs = E.compose(E.tensor(a, c), E.tensor(b, d))
        assert E.distance(lhs, rhs) < 1e-9


def test_tensor_associativity(cats):
    for cat in cats.values():
        n = cat.n_labels
        f = E.random_morphism(cat, word(n - 1), word(n - 1), RNG)
        one = min(1, n - 1)  # trivial has label 0 only
        g = E.random_morphism(cat, word(one), word(one), RNG)
        h = E.random_morphism(cat, word(n - 1), word(n - 1), RNG)
        assert E.distance(E.tensor(E.tensor(f, g), h),
                          E.tensor(f, E.tensor(g, h))) < 1e-12


# -- braiding ------------------------------------------------------------

def test_braiding_with_unit_is_identity(cats):
    for cat in cats.values():
        Y = word(cat.n_labels - 1)
        b = E.braiding(cat, ObjectExpr.unit(), Y)
        assert E.defect_from_identity(b) < 1e-13


def test_semion_braiding_eigenvalue(cats):
    cat = cats["semion"]
    b = E.braiding(cat, word(1), word(1))
    assert b.block(0)[0, 0] == pytest.approx(1j)


def test_transparent_double_braiding_vec_z2_sym(cats):
    cat = cats["vec_z2_sym"]
    X = word(1)
    dbl = E.compose(E.braiding(cat, X, X), E.braiding(cat, X, X))
    assert E.defect_from_identity(dbl) == pytest.approx(0.0, abs=1e-13)


def test_braiding_naturality(cats):
    for name in ("fibonacci", "ising", "semion"):
        cat = cats[name]
        X, Y = word(1, 1), word(cat.n_labels - 1)
        f = E.random_morphism(cat, X, X, RNG)
        g = E.random_morphism(cat, Y, Y, RNG)
        b = E.braiding(cat, X, Y)
        lhs = E.compose(b, E.tensor(f, g))
        rhs = E.compose(E.tensor(g, f), b)
        assert E.distance(lhs, rhs) < 1e-9


def test_hexagon_as_engine_composites(cats):
    for cat in cats.values():
        n = cat.n_labels
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    sa, sb, sc = word(a), word(b), word(c)
                    one = E.braiding(cat, sa, sb.tensor(sc))
                    two = E.compose(
                        E.tensor(E.identity(cat, sb), E.braiding(cat, sa, sc)),
                        E.tensor(E.braiding(cat, sa, sb), E.identity(cat, sc)))
                    assert E.distance(one, two) < 1e-12
                    # the inverse braiding resolves right-to-left
                    onei = E.braiding(cat, sb.tensor(sc), sa, inverse=True)
                    twoi = E.compose(
                        E.tensor(E.braiding(cat, sb, sa, inverse=True),
                                 E.identity(cat, sc)),
                        E.tensor(E.identity(cat, sb),
                                 E.braiding(cat, sc, sa, inverse=True)))
                    assert E.distance(onei, twoi) < 1e-12


# -- duality and traces --------------------------------------------------

def test_zigzag_identities(cats):
    for cat in cats.values():
        n = cat.n_labels
        objs = [word(a) for a in range(n)] + [word(n - 1, n - 1)]
        objs.append(ObjectExpr.direct_sum([word(n - 1), word(n - 1, n - 1)]))
        for X in objs:
            for r in E.zigzag_defects(cat, X):
                assert r < 1e-12


def test_trace_of_unit_and_zero(cats):
    cat = cats["ising"]
    assert E.quantum_trace(cat, E.identity(cat, ObjectExpr.unit())) == \
        pytest.approx(1.0)
    X = word(1, 1)
    assert E.quantum_trace(cat, E.zero_morphism(cat, X, X)) == 0.0


def test_trace_loop_matches_sector_formula(cats):
    # oracle: Tr f = sum_i dim(i) * tr(block_i), vs the explicit cup/cap loop
    cat = cats["ising"]
    X = word(1, 1, 1)
    f = E.random_endomorphism(cat, X, RNG)
    loop = E.quantum_trace(cat, f)
    formula = sum(cat.dim(k) * np.trace(f.block(k))
                  for k in range(cat.n_labels) if X.dim_sector(cat, k))
    assert loop == pytest.approx(complex(formula), abs=1e-10)


def test_trace_cyclicity(cats):
    cat = cats["fibonacci"]
    X = word(1, 1)
    f = E.random_morphism(cat, X, X, RNG)
    g = E.random_morphism(cat, X, X, RNG)
    assert E.quantum_trace(cat, E.compose(f, g)) == pytest.approx(
        E.quantum_trace(cat, E.compose(g, f)), abs=1e-10)


def test_trace_of_non_endomorphism_raises(cats):
    cat = cats["ising"]
    with pytest.raises(ShapeError):
        E.quantum_trace(cat, E.zero_morphism(cat, word(1), word(2)))


def test_loop_dimension_of_tau(cats):
    assert E.quantum_trace(
        cats["fibonacci"],
        E.identity(cats["fibonacci"], word(1))) == pytest.approx(PHI)


def test_coev_on_unit_is_scalar_one(cats):
    for cat in cats.values():
        c = E.cup_cap(cat, ObjectExpr.unit(), "coev")
        assert c.block(0)[0, 0] == pytest.approx(1.0)


def test_unknown_cup_kind_raises(cats):
    with pytest.raises(ShapeError):
        E.cup_cap(cats["ising"], word(1), "cap")


# -- dual bases ----------------------------------------------------------

def test_hom_basis_unit_case(cats):
    cat = cats["ising"]
    pair = E.hom_basis(cat, ObjectExpr.unit(), 0)
    assert len(pair.basis) == 1
    assert E.trace_pairing(cat, pair.dual_basis[0], pair.basis[0]) == \
        pytest.approx(1.0)


def test_hom_basis_fibonacci_count(cats):
    pair = E.hom_basis(cats["fibonacci"], word(1, 1), 1)
    assert len(pair.basis) == 1


def test_hom_basis_pairing_matrix_is_kronecker(cats):
    cat = cats["ising"]
    pair = E.hom_basis(cat, word(1, 1, 1), 1)  # sigma^3 contains sigma twice
    assert len(pair.basis) == 2
    gram = np.array([[E.trace_pairing(cat, pair.dual_basis[a], pair.basis[b])
                      for b in range(2)] for a in range(2)])
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    assert math.isfinite(pair.gram_condition)


def test_hom_basis_rotation_keeps_duality(cats):
    cat = cats["ising"]
    rot = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    pair = E.hom_basis(cat, word(1, 1, 1), 1, rotation=rot)
    gram = np.array([[E.trace_pairing(cat, pair.dual_basis[a], pair.basis[b])
                      for b in range(2)] for a in range(2)])
    assert np.allclose(gram, np.eye(2), atol=1e-9)


def test_hom_basis_copies_the_rotation(cats):
    cat = cats["ising"]
    rot = np.array([[1.0, 2.0], [0.0, 1.0]])
    pair = E.hom_basis(cat, word(1, 1, 1), 1, rotation=rot)
    rot[:] = 0.0
    assert [b.block(1).tolist() for b in pair.basis] == [[[1, 2]], [[0, 1]]]


@pytest.mark.parametrize("name", [
    "trivial", "fibonacci", "ising", "semion", "vec_z2_sym", "vec_z3_modular",
    "ising@2", "ising@5", "ising#2", "ising#5"])
def test_hom_basis_gram_matches_trace_pairing(cats, name):
    # hom_basis reads its Gram matrix off sector i*; the diagrammatic trace
    # pairing of the unit columns c_m with the basis is the reference ("@" a
    # phase vertex gauge, "#" a non-unitary one)
    cat = _table_input(cats, name)
    rng = np.random.default_rng(20261018)
    n_labels = cat.n_labels
    objs = [ObjectExpr.unit()] + [word(a) for a in range(1, n_labels)] + [
        word(a, b) for a in range(1, n_labels) for b in range(1, n_labels)]
    for X in objs:
        for i in range(n_labels):
            istar = cat.dual[i]
            n = X.dim_sector(cat, istar)
            if not n:
                continue
            rot = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for rotation in (None, rot):
                pair = E.hom_basis(cat, X, i, rotation=rotation)
                unit_cols = [E.Morphism(cat, word(istar), X,
                                        {istar: np.eye(n, dtype=complex)[:, [m]]})
                             for m in range(n)]
                gram = np.array([[E.trace_pairing(cat, unit_cols[m], pair.basis[l])
                                  for l in range(n)] for m in range(n)])
                # the duals are sum_m inv(gram)[a, m] c_m, so their blocks give gram back
                duals = np.hstack([d.block(istar) for d in pair.dual_basis])
                assert np.abs(np.linalg.inv(duals).T - gram).max() < 1e-12
                assert pair.gram_condition == pytest.approx(np.linalg.cond(gram))
                pairing = np.array([[E.trace_pairing(cat, pair.dual_basis[a],
                                                     pair.basis[b])
                                     for b in range(n)] for a in range(n)])
                assert np.abs(pairing - np.eye(n)).max() < 1e-9


def test_identity_resolution_unit(cats):
    cat = cats["semion"]
    triples = E.identity_resolution(cat, ObjectExpr.unit())
    assert len(triples) == 1
    i, lo, hi = triples[0]
    assert i == 0


@pytest.mark.parametrize("name,letters", [
    ("fibonacci", (1, 1)),
    ("ising", (1, 1)),
    ("ising", (1, 2, 1)),
    ("vec_z3_modular", (1, 2)),
    ("ising#5", (1, 2, 1)),
    ("vec_z3_modular", (1, 1)),  # sector 2, whose dual is 1
])
def test_identity_resolution_reconstructs(cats, name, letters):
    cat = _table_input(cats, name)
    W = word(*letters)
    acc = E.zero_morphism(cat, W, W)
    for i, lo, hi in E.identity_resolution(cat, W):
        assert lo.target == hi.source == word(i)
        acc = acc + cat.dim(i) * E.compose(hi, lo)
    assert E.defect_from_identity(acc) < 1e-9


# -- loops ---------------------------------------------------------------

def test_omega_loop_around_nothing_is_global_dim(cats):
    for cat in cats.values():
        loop = E.omega_loop(cat, ObjectExpr.unit())
        assert loop.block(0)[0, 0] == pytest.approx(complex(cat.total_dim))


def _close_by_cups(cat, f, X, j, Y):
    """(1 (x) ev'_j) (f (x) 1) (1 (x) coev_j) for f : X (x) j -> Y (x) j."""
    J = ObjectExpr.simple(j)
    return E.compose_all(
        E.tensor(E.identity(cat, Y), E.cup_cap(cat, J, "eval'")),
        E.tensor(f, E.identity(cat, J.dual(cat))),
        E.tensor(E.identity(cat, X), E.cup_cap(cat, J, "coev")))


def test_close_right_matches_cup_cap_closure(cats):
    rng = np.random.default_rng(20261018)
    for cat in cats.values():
        for X in _words_up_to_two(cat):
            for j in range(cat.n_labels):
                J = word(j)
                f = E.random_endomorphism(cat, X.tensor(J), rng)
                assert E.distance(E._close_right(cat, f, X, j),
                                  _close_by_cups(cat, f, X, j, X)) < 1e-12


def _words_up_to_two(cat):
    labels = range(1, cat.n_labels)
    return [ObjectExpr.word(w) for w in [()] + [(a,) for a in labels]
            + [(a, b) for a in labels for b in labels]]


@pytest.mark.parametrize("name", ALL_NAMES + ["su2_4"])
def test_channel_blocks_invert_recouple(cats, name):
    # the product-basis layout is read only through _recouple, its inverse
    # _channel_blocks and _channel: on random morphisms Xs Ys -> Xt Yt
    # between products of words up to length 2 the first two undo each
    # other, and the identity of one channel (x, y) carried from sector a
    # to a2 through _channel is Q(X,Y,a2)[:, xy] Qinv(X,Y,a)[xy, :] of the
    # product transforms
    rng = np.random.default_rng(20261019)
    cat = (category_from_dict(su2_doc(4)) if name == "su2_4" else cats[name])
    words = _words_up_to_two(cat)
    for _ in range(12):
        Xs, Ys, Xt, Yt = (words[n] for n in rng.integers(len(words), size=4))
        f = E.random_morphism(cat, Xs.tensor(Ys), Xt.tensor(Yt), rng)
        for k, block in f.blocks.items():
            chans = E._channel_blocks(cat, Xs, Ys, Xt, Yt, k, block)
            assert all(r.size for r in chans.values())
            mid = [(pt, ps, r) for (pt, ps), r in chans.items()]
            back = E._recouple(cat, Xs, Ys, Xt, Yt, k, mid)
            assert np.abs(back - block).max() < 1e-12 * max(
                1.0, np.abs(block).max())
            again = E._channel_blocks(cat, Xs, Ys, Xt, Yt, k, back)
            assert again.keys() == chans.keys()
            assert all(np.abs(again[p] - chans[p]).max() < 1e-12
                       for p in chans)
    for X in words[:6]:
        for Y in words:
            dX, dY = X.sector_dims(cat), Y.sector_dims(cat)
            for x, y in ((x, y) for x in dX for y in dY if dX[x] * dY[y]):
                for a in cat.ring.fusion(x, y):
                    for a2 in cat.ring.fusion(x, y):
                        got = (E._channel(cat, X, Y, a2, (x, y))[0]
                               @ E._channel(cat, X, Y, a, (x, y))[1])
                        Q2, ch2 = E._product_iso(cat, X, Y, a2)[:2]
                        Q1, ch1 = E._product_iso(cat, X, Y, a)[:2]
                        want = (Q2[:, ch2[(x, y)]]
                                @ np.linalg.inv(Q1)[ch1[(x, y)]])
                        assert got.shape == want.shape
                        assert np.abs(got - want).max() < 1e-12


def test_censorship_of_opacity_modular(cats):
    for name in ("semion", "fibonacci", "ising", "vec_z3_modular"):
        cat = cats[name]
        dim_omega = complex(cat.total_dim)
        for i in range(cat.n_labels):
            loop = E.omega_loop(cat, word(i))
            want = dim_omega if i == 0 else 0.0
            assert loop.block(i)[0, 0] == pytest.approx(want, abs=1e-9)


def test_censorship_fails_on_transparent_object(cats):
    cat = cats["vec_z2_sym"]
    loop = E.omega_loop(cat, word(1))
    assert loop.block(1)[0, 0] == pytest.approx(complex(cat.total_dim))


def test_sliding_mirror_invariance(cats):
    for cat in cats.values():
        n = cat.n_labels
        for X in (word(n - 1), word(n - 1, min(1, n - 1))):
            plain = E.omega_loop(cat, X)
            slid = E.omega_loop(cat, X, mirror=True)
            assert E.distance(plain, slid) < 1e-9


def test_sliding_across_morphism(cats):
    for name in ("fibonacci", "ising"):
        cat = cats[name]
        X = word(1, 1)
        f = E.random_endomorphism(cat, X, RNG)
        loop = E.omega_loop(cat, X)
        assert E.distance(E.compose(loop, f), E.compose(f, loop)) < 1e-9


def test_ribbon_regression_identity(cats):
    # eval . c_{X,Y} . c_{X,Y*} . c_{X,Y} . coev = c_{X,Y} on all simple pairs
    for cat in cats.values():
        n = cat.n_labels
        for x in range(n):
            for y in range(n):
                X, Y = word(x), word(y)
                Yd = Y.dual(cat)
                idX, idY, idYd = (E.identity(cat, o) for o in (X, Y, Yd))
                lhs = E.compose_all(
                    E.tensor(idY, E.tensor(E.cup_cap(cat, Y, "eval"), idX)),
                    E.tensor(idY, E.tensor(idYd, E.braiding(cat, X, Y))),
                    E.tensor(idY, E.tensor(E.braiding(cat, X, Yd), idY)),
                    E.tensor(E.braiding(cat, X, Y), E.tensor(idYd, idY)),
                    E.tensor(idX, E.tensor(E.cup_cap(cat, Y, "coev"), idY)))
                assert E.distance(lhs, E.braiding(cat, X, Y)) < 1e-9


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(20261018)
    for rows in range(1, 10):
        for cols in range(1, 10):
            M = (rng.standard_normal((rows, cols))
                 + 1j * rng.standard_normal((rows, cols)))
            assert E._spectral_norm(M) == float(np.linalg.norm(M, 2))


def test_scalar_block_helpers_match_numpy():
    rng = np.random.default_rng(20261019)
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        for _ in range(200):
            z = complex(*(scale * rng.standard_normal(2)))
            M = np.array([[z]])
            assert _spectral_norm(M) == pytest.approx(
                float(np.linalg.norm(M, 2)), rel=1e-15)
            assert _condition(M) == np.linalg.cond(M) == 1.0
            inv, ref = _inverse(M), np.linalg.inv(M)
            assert inv.shape == (1, 1) and inv.dtype == ref.dtype
            assert abs(inv[0, 0] - ref[0, 0]) <= 1e-15 * abs(ref[0, 0])
            u, s, vh = _svd(M)
            u0, s0, vh0 = np.linalg.svd(M)
            assert s == pytest.approx(s0, rel=1e-15)
            # the same phase convention: U carries z / |z|, Vh is 1
            assert abs(u[0, 0] - u0[0, 0]) <= 1e-15
            assert vh[0, 0] == vh0[0, 0] == 1.0
            assert u.dtype == u0.dtype and vh.dtype == vh0.dtype
    # real 1x1 blocks keep their dtype
    u, s, vh = _svd(np.array([[-2.0]]))
    assert u.dtype == vh.dtype == float and (u[0, 0], s[0]) == (-1.0, 2.0)


def test_scalar_block_helpers_leave_singular_and_nan_blocks_to_numpy():
    zero = np.zeros((1, 1), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        _inverse(zero)
    assert _condition(zero) == math.inf
    assert _spectral_norm(zero) == 0.0
    nan = np.array([[complex(math.nan, 0.0)]])
    for helper in (_condition, _spectral_norm, _svd):
        with pytest.raises(np.linalg.LinAlgError):
            helper(nan)
    assert np.isnan(_inverse(nan)).all()


def test_nan_f_matrix_reads_as_infinite_f_condition(cats):
    doc = category_to_dict(cats["fibonacci"])
    for r in doc["F"]:
        if (r["a"], r["b"], r["c"], r["d"]) == (1, 1, 1, 0):  # a 1x1 F-matrix
            r["re"] = math.nan
    report = validate(category_from_dict(doc))
    assert report.residual("f_condition") == math.inf
    assert not report.ok


def _peeled_word_duality(cat, w, kind):
    """A word's duality morphism peeled letter by letter down to the empty
    word, every step a tensor with identities."""
    if not w:
        return E.identity(cat, ObjectExpr.unit())
    a, u = w[0], w[1:]
    inner = _peeled_word_duality(cat, u, kind)
    ida = E.identity(cat, word(a))
    idad = E.identity(cat, word(cat.dual[a]))
    idu = E.identity(cat, ObjectExpr.word(u))
    idud = E.identity(cat, ObjectExpr.word(u).dual(cat))
    letter = E.cup_cap(cat, word(a), kind)
    if kind == "coev":
        return E.compose(E.tensor(ida, E.tensor(inner, idad)), letter)
    if kind == "coev'":
        return E.compose(E.tensor(idud, E.tensor(letter, idu)), inner)
    if kind == "eval":
        return E.compose(inner, E.tensor(idud, E.tensor(letter, idu)))
    return E.compose(letter, E.tensor(ida, E.tensor(inner, idad)))


def _embedded_cup_cap(cat, X, kind):
    """Every word summand's duality morphism between the tensored
    inclusions (cups) or projections (caps) of X and X*."""
    coev, right = kind.startswith("coev"), kind.endswith("'")
    Xd = X.dual(cat)
    first, second = (X, Xd) if coev != right else (Xd, X)
    leg = E.inclusion if coev else E.projection
    out = None
    for si, (w, m) in enumerate(X.summands):
        base = _peeled_word_duality(cat, w, kind)
        for c in range(m):
            emb = E.tensor(leg(cat, first, si, c), leg(cat, second, si, c))
            term = E.compose(emb, base) if coev else E.compose(base, emb)
            out = term if out is None else out + term
    return out


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_cup_cap_matches_embedding_assembly(cats, name):
    cat = _table_input(cats, name)
    labels = range(1, min(cat.n_labels, 4))
    # three-letter words peel through the cached cup or cap of a two-letter one
    words = [ObjectExpr.word(w) for n in range(4)
             for w in itertools.product(labels, repeat=n)]
    a, b = (labels[0], labels[-1]) if labels else (0, 0)  # 0: the unit
    sums = [ObjectExpr.word((a,), 2),
            ObjectExpr.direct_sum([word(a), word(a, b), ObjectExpr.unit()]),
            ObjectExpr.direct_sum([ObjectExpr.word((), 2),
                                   ObjectExpr.word((a, b), 3)])]
    for X in words + sums:
        for kind in ("coev", "eval", "coev'", "eval'"):
            assert E.distance(E.cup_cap(cat, X, kind),
                              _embedded_cup_cap(cat, X, kind)) < 1e-12


# -- determinism and dumps ----------------------------------------------

def test_operations_are_deterministic(cats):
    cat = cats["ising"]
    b1 = E.braiding(cat, word(1, 1), word(1))
    b2 = E.braiding(cat, word(1, 1), word(1))
    for k in range(cat.n_labels):
        assert np.array_equal(b1.block(k), b2.block(k))
    l1 = E.omega_loop(cat, word(1))
    l2 = E.omega_loop(cat, word(1))
    for k in range(cat.n_labels):
        assert np.array_equal(l1.block(k), l2.block(k))


@pytest.mark.parametrize("build", [
    lambda cat: E.cup_cap(cat, word(1, 2), "coev"),
    lambda cat: E.braiding(cat, word(1, 1), word(2)),
    lambda cat: E.identity(cat, word(1, 2)),
], ids=["cup_cap", "braiding", "identity"])
def test_memoized_morphisms_are_shared_and_read_only(cats, build):
    cat = cats["ising"]
    m = build(cat)
    assert build(cat) is m
    b = next(b for b in m.blocks.values() if b.size)
    with pytest.raises(ValueError):
        b[0, 0] = 1.0
    fresh = loads_category(serialize_category(cat))
    assert E.morphism_dump(m) == E.morphism_dump(build(fresh))


def _new_cache_keys(cat, build):
    before = set(cat._cache)
    build()
    return set(cat._cache) - before


def test_object_bases_are_one_layout_entry(cats):
    # every label's basis, positions and dimension of a fresh object come
    # from one "layout" entry, and its trees from one "tails" entry per
    # (root, rest of the word), whatever the end label
    cat = loads_category(serialize_category(cats["ising"]))
    X = ObjectExpr((((1, 2, 1), 2), ((2, 2), 1)))
    keys = _new_cache_keys(cat, lambda: [
        (E.sector_basis(cat, X, k), X.dim_sector(cat, k))
        for k in range(cat.n_labels)])
    assert keys == {("layout", X.summands), ("tails", 1, (2, 1)),
                    ("tails", 2, (2,))}
    layout = E._layout(cat, X)
    assert layout.dims == tuple(len(b) for b in layout.bases) == (3, 0, 2)
    for basis, positions in zip(layout.bases, layout.positions):
        assert [positions[t] for t in basis] == list(range(len(basis)))
    # sigma psi = sigma, then sigma sigma = 1 + psi: one chain per end
    assert E._tails(cat, 1, (2, 1)) == (((1,),), (), ((1,),))


def test_positions_are_built_when_a_product_transform_reads_them(cats):
    # a product X (x) Y needs only its bases and dimensions, until a product
    # transform factors it
    cat = loads_category(serialize_category(cats["ising"]))
    X, Y = word(1), word(1, 2)
    E.tensor(E.identity(cat, X), E.identity(cat, Y))
    assert "positions" in vars(E._layout(cat, X))
    XY = E._layout(cat, X.tensor(Y))
    assert XY.bases and "positions" not in vars(XY)
    E._product_iso(cat, X.tensor(Y), X, 0)
    assert "positions" in vars(XY)


def test_product_transform_and_inverse_are_one_entry(cats):
    # Q, its channel slices and its inverse are one cache entry, built once
    # and read-only
    cat = loads_category(serialize_category(cats["fibonacci"]))
    X, Y = word(1, 1), word(1)
    block = np.eye(X.tensor(Y).dim_sector(cat, 1))
    keys = _new_cache_keys(
        cat, lambda: E._channel_blocks(cat, X, Y, X, Y, 1, block))
    assert {key for key in keys if key[0] in ("Q", "Qinv")} == {
        ("Q", X.summands, Y.summands, 1)}
    Q, channels, Qinv = cat._cache[("Q", X.summands, Y.summands, 1)]
    got_Q, got_channels = E._product_iso(cat, X, Y, 1)[:2]
    assert got_Q is Q and got_channels is channels
    assert np.allclose(Q @ Qinv, np.eye(len(Q)))
    for a in (Q, Qinv):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


@pytest.mark.parametrize("letters", [(7, 1), (1, -1), (2,)])
def test_letter_outside_the_labels_is_a_shape_error(cats, letters):
    cat = cats["fibonacci"]
    X = ObjectExpr.word(letters)
    with pytest.raises(ShapeError):
        E._sector_dims(cat, X)
    with pytest.raises(ShapeError):
        E.quantum_trace(cat, E.identity(cat, X))


def test_morphism_dump_is_stable(cats):
    cat = cats["fibonacci"]
    d1 = E.braiding(cat, word(1), word(1)).dump()
    d2 = E.braiding(cat, word(1), word(1)).dump()
    assert d1 == d2
    assert "sector" in d1 and "source" in d1
