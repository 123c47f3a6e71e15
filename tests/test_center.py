"""Center machinery: half-braidings, coupling idempotents, tube algebra,
the two functors, and the four transformations."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcat import IdempotencyError, center as C, deligne, engine as E, validate
from tcat.category import category_from_dict, category_to_dict
from tcat.engine import ObjectExpr
from tcat.center import (CenterObject, HalfBraiding, _center_sort_key,
                         _legs, _loop_table,
                         _slot_couplings, _object_from_module, _test_objects,
                         center_hom_dim, center_simples, coupling_gamma,
                         functor_F, functor_F_on_morphism, functor_G,
                         functor_G_on_morphism, invertibility_report,
                         nat_transforms, transform_b, transform_d,
                         transform_p, transform_q, tube_algebra,
                         verify_center_object, zc_morphism_defect)
from tcat.deligne import (DeligneMorphism, DelignePair, deligne_compose,
                          deligne_defect, deligne_distance, deligne_identity,
                          pair_morphism, pair_object)
from tcat.modularity import is_modular, muger_center, s_matrix

from conftest import (ALL_NAMES, input_doc, phase_gauge, product_doc, su2_doc,
                      vec_zn_doc)
from tube_reference import (associativity_residual, functor_f_half_braiding,
                            loop_table, reference_b, reference_d, reference_p,
                            reference_q, reference_sort_key,
                            reference_tensoriality, tube_module, tube_structure)

PHI = (1 + math.sqrt(5)) / 2
RNG = np.random.default_rng(20240812)


def word(*ls):
    return ObjectExpr.word(ls)


def trivial_center_object(cat):
    X = ObjectExpr.unit()
    mats = {j: E.identity(cat, word(j)) for j in range(cat.n_labels)}
    return CenterObject(X=X, gamma=HalfBraiding(X=X, mats=mats))


# -- exterior product plumbing -------------------------------------------

def test_deligne_identity_and_compose(cats):
    cat = cats["ising"]
    D = pair_object(word(1, 1), word(2))
    ident = deligne_identity(cat, D)
    assert deligne_defect(ident) == 0.0
    f = pair_morphism(cat, E.random_morphism(cat, word(1, 1), word(1, 1), RNG),
                      E.random_morphism(cat, word(2), word(2), RNG))
    assert deligne_distance(deligne_compose(ident, f), f) < 1e-12
    assert deligne_distance(deligne_compose(f, ident), f) < 1e-12


def test_deligne_hom_spaces_factor(cats):
    cat = cats["fibonacci"]
    D1 = pair_object(word(1, 1), word(1))
    D2 = pair_object(word(1), word(1, 1))
    # Hom(X,X') (x) Hom(Y,Y') dimension = product of graded overlaps
    dim = D1.hom_dim(cat, D2)
    g1, g2 = D1.grading(cat), D2.grading(cat)
    assert dim == sum(m * g2.get(p, 0) for p, m in g1.items())
    assert dim > 0


@pytest.fixture(scope="module")
def layout_cats(cats):
    return {**cats, "so3_4": category_from_dict(su2_doc(4, so3=True))}


def _objects(n):
    """Sums of words over labels 0..n-1, the unit and the zero object among
    them."""
    words = st.builds(ObjectExpr.word, st.lists(st.integers(0, n - 1),
                                                max_size=3), st.integers(1, 2))
    return st.lists(words, max_size=2).map(ObjectExpr.direct_sum)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(ALL_NAMES + ["so3_4"]), data=st.data())
def test_pair_layout_is_a_running_sum_over_slots(layout_cats, name, data):
    # starts, dim_sector, grading and slot_pairs equal a direct sum over the
    # slots of products of sector dimensions
    cat = layout_cats[name]
    n = cat.n_labels
    slots = data.draw(st.lists(st.tuples(_objects(n), _objects(n)), max_size=3))
    D = DelignePair(tuple(slots))
    dims = [([X.dim_sector(cat, a) for a in range(n)],
             [Y.dim_sector(cat, b) for b in range(n)]) for X, Y in slots]
    grading = {}
    for a in range(n):
        for b in range(n):
            want = [0]
            for dX, dY in dims:
                want.append(want[-1] + dX[a] * dY[b])
            assert list(D.starts(cat, (a, b))) == want
            assert D.dim_sector(cat, (a, b)) == want[-1]
            if want[-1]:
                grading[(a, b)] = want[-1]
    assert D.grading(cat) == grading
    assert D.slot_pairs(cat) == [
        [(a, b) for a in range(n) for b in range(n) if dX[a] * dY[b]]
        for dX, dY in dims]


def test_report_keeps_each_pair_layout_on_its_pair(cats, monkeypatch):
    # no layout of an exterior-square object enters the category cache: a
    # pair builds its layout once per category and keeps it (a fresh
    # instance, so no other test's cache entries are seen)
    cat = category_from_dict(category_to_dict(cats["ising"]))
    layout, reads = DelignePair._layout, []

    def read(self, cat_):
        reads.append((self, cat_, layout(self, cat_)))
        return reads[-1][-1]

    monkeypatch.setattr(DelignePair, "_layout", read)
    invertibility_report(cat, max_word_length=2)
    assert not [key for key in cat._cache
                if isinstance(key, tuple) and key[0] == "pair_layout"]
    for D, c, _starts in list(reads):  # a second read of every pair
        D.grading(c)
    first = {}
    for D, c, starts in reads:  # held, so no id is reused
        assert first.setdefault((id(D), id(c)), starts) is starts
    assert len(first) < len(reads)


#: two-slot objects of ising whose slots share the simple pair (sigma, sigma)
#: (sigma psi = sigma), so a block at that pair stacks both slots
TWO_SLOT_SRC = DelignePair(((word(1), word(1)), (word(1, 2), word(1))))
TWO_SLOT_MID = DelignePair(((word(1, 1), word(1)), (word(2, 1), word(1))))
TWO_SLOT_TGT = DelignePair(((word(1), word(1, 2)), (word(2, 1), word(1))))


def _two_slot_morphism(cat, source, target):
    """A random sum of exterior products, one at every slot pair."""
    out = DeligneMorphism(cat, source, target, {})
    for t, (Xt, Yt) in enumerate(target.slots):
        for s, (Xs, Ys) in enumerate(source.slots):
            out = out + pair_morphism(
                cat, E.random_morphism(cat, Xs, Xt, RNG),
                E.random_morphism(cat, Ys, Yt, RNG),
                source=source, target=target, t_slot=t, s_slot=s)
    return out


def test_pair_morphism_fills_one_slot_pair(cats):
    # f [x] g at slot pair (t, s) is f_a (x) g_b (np.kron) there at every
    # simple pair (a, b), and zero at every other slot pair
    cat = cats["ising"]
    src, tgt = TWO_SLOT_SRC, TWO_SLOT_TGT
    n = cat.n_labels
    assert src.dim_sector(cat, (1, 1)) == 2 == tgt.dim_sector(cat, (1, 1))
    for t, (Xt, Yt) in enumerate(tgt.slots):
        for s, (Xs, Ys) in enumerate(src.slots):
            f = E.random_morphism(cat, Xs, Xt, RNG)
            g = E.random_morphism(cat, Ys, Yt, RNG)
            m = pair_morphism(cat, f, g, source=src, target=tgt,
                              t_slot=t, s_slot=s)
            for a in range(n):
                for b in range(n):
                    for t2, (Xt2, Yt2) in enumerate(tgt.slots):
                        for s2, (Xs2, Ys2) in enumerate(src.slots):
                            blk = m.slot_block(t2, s2, (a, b))
                            assert blk.shape == (
                                Xt2.dim_sector(cat, a) * Yt2.dim_sector(cat, b),
                                Xs2.dim_sector(cat, a) * Ys2.dim_sector(cat, b))
                            want = (np.kron(f.block(a), g.block(b))
                                    if (t2, s2) == (t, s)
                                    else np.zeros(blk.shape))
                            assert np.array_equal(blk, want)
    # the debug dump names the sectors by label pair
    assert "sector sigma [x] sigma:" in m.dump()


def test_assemble_keeps_the_deligne_morphism(cats):
    # part (t, s) of the grid is the block at slot pair (t, s)
    cat = cats["ising"]
    src, tgt = TWO_SLOT_SRC, TWO_SLOT_TGT
    grid = [[pair_morphism(cat, E.random_morphism(cat, Xs, Xt, RNG),
                           E.random_morphism(cat, Ys, Yt, RNG))
             for Xs, Ys in src.slots] for Xt, Yt in tgt.slots]
    m = DeligneMorphism.assemble(cat, src, tgt, grid)
    assert type(m) is DeligneMorphism
    assert m.blocks
    for k in m.blocks:
        for t, row in enumerate(grid):
            for s, part in enumerate(row):
                assert np.array_equal(m.slot_block(t, s, k), part.block(k))


def test_functor_f_functorial_on_two_slot_pairs(cats):
    cat = cats["ising"]
    m1 = _two_slot_morphism(cat, TWO_SLOT_MID, TWO_SLOT_TGT)
    m2 = _two_slot_morphism(cat, TWO_SLOT_SRC, TWO_SLOT_MID)
    lhs = functor_F_on_morphism(cat, deligne_compose(m1, m2))
    rhs = E.compose(functor_F_on_morphism(cat, m1),
                    functor_F_on_morphism(cat, m2))
    assert lhs.norm() > 1.0
    assert E.distance(lhs, rhs) < 1e-9
    ident = functor_F_on_morphism(cat, deligne_identity(cat, TWO_SLOT_SRC))
    assert E.defect_from_identity(ident) < 1e-12


def test_deligne_compose_is_the_engine_compose(cats):
    # one product per simple pair that both hold, and the subclass is kept
    cat = cats["ising"]
    assert deligne_compose is E.compose
    m1 = _two_slot_morphism(cat, TWO_SLOT_MID, TWO_SLOT_TGT)
    m2 = _two_slot_morphism(cat, TWO_SLOT_SRC, TWO_SLOT_MID)
    h = deligne_compose(m1, m2)
    assert type(h) is DeligneMorphism
    assert (h.source, h.target) == (TWO_SLOT_SRC, TWO_SLOT_TGT)
    want = {k: m1.blocks[k] @ b for k, b in m2.blocks.items() if k in m1.blocks}
    assert want and h.blocks.keys() == want.keys()
    assert all(np.array_equal(h.blocks[k], b) for k, b in want.items())


@pytest.mark.parametrize("name", ["ising", "fibonacci", "so3_4"])
def test_functor_f_of_an_exterior_product_is_the_tensor_product(cats, name):
    # F(f [x] g) = f (x) g exactly: both recouple the same channel blocks
    # (engine._recouple_channels), here on sums of words
    cat = category_from_dict(input_doc(cats, name))
    n = cat.n_labels
    X = ObjectExpr.direct_sum([word(1), word(1, n - 1), ObjectExpr.unit()])
    Y = ObjectExpr.direct_sum([word(n - 1, 1), word(1)])
    f = E.random_morphism(cat, X, Y, RNG)
    g = E.random_morphism(cat, Y, X, RNG)
    image = functor_F_on_morphism(cat, pair_morphism(cat, f, g))
    assert image.norm() > 1.0
    assert E.distance(image, E.tensor(f, g)) == 0.0


@pytest.mark.parametrize("name", ALL_NAMES)
def test_g_of_f_slots_meet_distinct_simple_pairs(cats, name):
    # the slots i* [x] image_i of G(F(X [x] Y)) have distinct first factors,
    # so each simple pair meets at most one slot, and the norm of a block of
    # d, q or their composites is the norm of its one slot-pair part
    cat = cats[name]
    objs = _test_objects(cat, 2)
    for X in objs:
        for Y in objs:
            GF = functor_G(cat, functor_F(cat, pair_object(X, Y)))
            firsts = [Xs.summands for Xs, _Ys in GF.slots]
            assert len(set(firsts)) == len(firsts)
            for k in GF.grading(cat):
                starts = GF.starts(cat, k)
                assert sum(b > a for a, b in zip(starts, starts[1:])) == 1


# -- center objects and the tautological functor --------------------------

def test_trivial_center_object_passes(cats):
    for cat in cats.values():
        rep = verify_center_object(cat, trivial_center_object(cat))
        assert rep.ok
        assert rep.unit_residual == 0.0
        assert rep.tensoriality_residual == 0.0


def test_functor_f_on_unit_pair(cats):
    cat = cats["semion"]
    obj = functor_F(cat, pair_object(ObjectExpr.unit(), ObjectExpr.unit()))
    assert obj.X == ObjectExpr.unit()
    assert verify_center_object(cat, obj).ok


def test_functor_f_images_verify(cats):
    for name in ("fibonacci", "ising", "vec_z2_sym"):
        cat = cats[name]
        for a in range(cat.n_labels):
            for b in range(cat.n_labels):
                obj = functor_F(cat, pair_object(word(a), word(b)))
                rep = verify_center_object(cat, obj)
                assert rep.ok, (name, a, b, rep)


def test_functor_f_half_braiding_reads_r_symbols(cats):
    cat = cats["fibonacci"]
    obj = functor_F(cat, pair_object(word(1), ObjectExpr.unit()))
    # gamma_j = c_{j, tau}: the sector blocks are the R-symbols
    g = obj.gamma[1]
    assert g.block(0)[0, 0] == pytest.approx(cat.r.get(1, 1, 0))
    assert g.block(1)[0, 0] == pytest.approx(cat.r.get(1, 1, 1))


def test_functor_f_transparent_square_collapses(cats):
    cat = cats["vec_z2_sym"]
    obj = functor_F(cat, pair_object(word(1), word(1)))
    # g (x) g is the unit object; the twisted half-braiding collapses to +1
    assert obj.X.dim_sector(cat, 0) == 1
    assert obj.gamma[1].block(1)[0, 0] == pytest.approx(1.0)


def test_broken_half_braiding_fails_verification(cats):
    cat = cats["vec_z2_sym"]
    obj = functor_F(cat, pair_object(word(1), ObjectExpr.unit()))
    # negating the unit crossing breaks tensoriality (and the unit axiom)
    mats = dict(obj.gamma)
    mats[0] = mats[0] * (-1.0)
    broken = CenterObject(X=obj.X, gamma=HalfBraiding(X=obj.X, mats=mats))
    rep = verify_center_object(cat, broken)
    assert not rep.ok
    assert rep.tensoriality_residual >= 1.0
    # scaling the g crossing by i breaks tensoriality at g (x) g, since the
    # square of the crossing must match the transparent unit channel
    mats = dict(obj.gamma)
    mats[1] = mats[1] * 1j
    skewed = CenterObject(X=obj.X, gamma=HalfBraiding(X=obj.X, mats=mats))
    rep = verify_center_object(cat, skewed)
    assert not rep.ok
    assert rep.tensoriality_residual >= 1.0


@pytest.mark.parametrize("j", [0, 1])
def test_nan_half_braiding_fails_verification(cats, j):
    # one NaN entry in gamma_j of a rebuilt ising center simple reads as a
    # NaN residual and a failed check, not as an SVD that does not converge
    cat = cats["ising"]
    for s in center_simples(cat):
        mats = dict(s.gamma)
        blocks = {c: b.copy() for c, b in mats[j].blocks.items()}
        blocks[max(blocks, key=lambda c: blocks[c].size)][0, 0] = math.nan
        mats[j] = E.Morphism(cat, mats[j].source, mats[j].target, blocks)
        rep = verify_center_object(cat, CenterObject(
            X=s.X, gamma=HalfBraiding(s.X, mats)))
        assert not rep.ok
        assert math.isnan(rep.tensoriality_residual)
        assert math.isnan(rep.max_condition)
        assert math.isnan(rep.unit_residual) is (j == 0)


def test_negated_transparent_crossing_is_another_valid_object(cats):
    # on the fully transparent category, flipping the sign of the g
    # crossing yields the other order-two anyon, still a valid object
    cat = cats["vec_z2_sym"]
    obj = functor_F(cat, pair_object(word(1), ObjectExpr.unit()))
    mats = dict(obj.gamma)
    mats[1] = mats[1] * (-1.0)
    other = CenterObject(X=obj.X, gamma=HalfBraiding(X=obj.X, mats=mats))
    assert verify_center_object(cat, other).ok
    assert center_hom_dim(cat, obj, other) == 0


def test_functor_f_functorial_on_morphisms(cats):
    cat = cats["ising"]
    X, X2 = word(1), word(1, 1)
    u1 = E.random_morphism(cat, X, X2, RNG)
    u2 = E.random_morphism(cat, X2, X, RNG)
    v1 = E.random_morphism(cat, X, X, RNG)
    v2 = E.random_morphism(cat, X, X, RNG)
    m1 = pair_morphism(cat, u1, v1)
    m2 = pair_morphism(cat, u2, v2)
    lhs = functor_F_on_morphism(cat, deligne_compose(m1, m2))
    rhs = E.compose(functor_F_on_morphism(cat, m1),
                    functor_F_on_morphism(cat, m2))
    assert E.distance(lhs, rhs) < 1e-9


def test_zc_morphism_defect_detects_non_morphism(cats):
    cat = cats["fibonacci"]
    obj = functor_F(cat, pair_object(word(1), ObjectExpr.unit()))
    f = E.random_morphism(cat, obj.X, obj.X, RNG)
    # a random endomorphism of tau is a scalar, hence central: defect 0;
    # a map between distinct half-braidings on tau is generically not
    other = CenterObject(X=obj.X, gamma=HalfBraiding(
        X=obj.X, mats={j: obj.gamma[j] * (1.0 if j == 0 else -1.0)
                       for j in range(cat.n_labels)}))
    assert zc_morphism_defect(cat, f, obj, other) > 0.1


# -- coupling idempotents --------------------------------------------------

def test_coupling_at_unit_is_identity(cats):
    for cat in cats.values():
        cp = coupling_gamma(cat, 0, trivial_center_object(cat))
        assert E.defect_from_identity(cp.gamma_mor) < 1e-9
        assert cp.image == ObjectExpr.unit()


def test_coupling_kills_non_unit_on_modular_fibonacci(cats):
    cat = cats["fibonacci"]
    cp = coupling_gamma(cat, 1, trivial_center_object(cat))
    assert cp.gamma_mor.norm() < 1e-9
    assert cp.image.summands == ()
    # the loop value is (1/dim Omega) sum_j dim(j) s(j, tau)/dim(tau),
    # which vanishes by censorship of opacity applied to the loop
    from tcat.modularity import s_matrix
    S = s_matrix(cat).entries
    total = sum(complex(cat.dim(j)) * S[j, 1] for j in range(cat.n_labels))
    assert total == pytest.approx(0.0, abs=1e-10)


def test_coupling_idempotency_and_image_factorization(cats):
    for name in ("vec_z2_sym", "fibonacci", "ising"):
        cat = cats[name]
        obj = functor_F(cat, pair_object(word(cat.n_labels - 1),
                                         ObjectExpr.unit()))
        for i in range(cat.n_labels):
            cp = coupling_gamma(cat, i, obj)
            assert cp.idempotency_residual < 1e-9
            assert E.distance(E.compose(cp.incl, cp.proj), cp.gamma_mor) < 1e-9
            if cp.image.summands:
                ident = E.compose(cp.proj, cp.incl)
                assert E.defect_from_identity(ident) < 1e-9


def _two_pass_coupling(cat, i, obj):
    """sum_j d_j / D^2 close((1 (x) gamma_j)(c_{j,i} (x) 1) c_{i X, j}), with
    the j strand closed by a cup and a cap."""
    si = word(i)
    W = si.tensor(obj.X)
    id_W = E.identity(cat, W)
    total = E.zero_morphism(cat, W, W)
    for j in range(cat.n_labels):
        sj = word(j)
        around = E.compose_all(
            E.tensor(E.identity(cat, si), obj.gamma[j]),
            E.tensor(E.braiding(cat, sj, si), E.identity(cat, obj.X)),
            E.braiding(cat, W, sj))
        closed = E.compose_all(
            E.tensor(id_W, E.cup_cap(cat, sj, "eval'")),
            E.tensor(around, E.identity(cat, sj.dual(cat))),
            E.tensor(id_W, E.cup_cap(cat, sj, "coev")))
        total = total + closed * (cat.dim(j) / cat.total_dim)
    return total


@pytest.mark.parametrize("name", ALL_NAMES + ["ising@2", "ising@5", "ising@12"])
def test_coupling_matches_two_pass_loop(cats, name):
    # every center simple, one- and two-slot F images, and an S + S re-based
    # by random matrices; "name@seed" applies a seeded vertex phase gauge
    base, _, seed = name.partition("@")
    cat = cats[base]
    if seed:
        cat = category_from_dict(phase_gauge(category_to_dict(cat), int(seed)))
    n = cat.n_labels
    a, z = 1 % n, n - 1   # the first and last labels (the unit if trivial)
    simples = center_simples(cat)
    largest = max(simples, key=lambda s: len(s.X.summands))
    objs = simples + [
        functor_F(cat, pair_object(word(a), word(z))),
        functor_F(cat, DelignePair(((word(z), word(a)), (word(a, z), word())))),
        _rebased_double(cat, largest, np.random.default_rng(20261018))]
    for obj in objs:
        for i in range(n):
            assert E.distance(coupling_gamma(cat, i, obj).gamma_mor,
                              _two_pass_coupling(cat, i, obj)) < 1e-12


def test_coupling_draws_no_braiding_on_i_x(cats):
    # the loop is read off gamma's channel blocks: no braiding of i (x) X
    # (a fresh instance, so no other test's cache entries are seen)
    cat = category_from_dict(category_to_dict(cats["ising"]))
    obj = functor_F(cat, pair_object(word(2), word(1, 2)))
    for i in range(cat.n_labels):
        coupling_gamma(cat, i, obj)
    firsts = {key[1] for key in cat._cache
              if isinstance(key, tuple) and key[0] == "braid"}
    for i in range(cat.n_labels):
        assert word(i).tensor(obj.X).summands not in firsts


def test_center_simple_couplings_recouple_live_sectors_only(monkeypatch):
    # on Vec_Z5 every coupling sector of a center simple is either roundoff
    # or a rank-one image, and only the images are recoupled
    cat = category_from_dict(vec_zn_doc(5, 1))
    simples = center_simples(cat)
    calls = []
    recouple = E._recouple
    monkeypatch.setattr(E, "_recouple",
                        lambda *args: calls.append(args) or recouple(*args))
    images = sum(len(coupling_gamma(cat, i, s).image.summands)
                 for s in simples for i in range(cat.n_labels))
    assert len(calls) == images == 25


def test_coupling_rejects_invalid_half_braiding(cats):
    cat = cats["vec_z2_sym"]
    obj = functor_F(cat, pair_object(word(1), ObjectExpr.unit()))
    mats = {j: obj.gamma[j] * (1.0 if j == 0 else 0.5)
            for j in range(cat.n_labels)}
    broken = CenterObject(X=obj.X, gamma=HalfBraiding(X=obj.X, mats=mats))
    with pytest.raises(IdempotencyError):
        coupling_gamma(cat, 1, broken)


# -- tube algebra ----------------------------------------------------------

def test_tube_algebra_dimensions(cats):
    assert tube_algebra(cats["trivial"]).dim == 1
    assert tube_algebra(cats["vec_z2_sym"]).dim == 4
    assert tube_algebra(cats["semion"]).dim == 4
    assert tube_algebra(cats["fibonacci"]).dim == 7
    assert tube_algebra(cats["vec_z3_modular"]).dim == 9
    assert tube_algebra(cats["ising"]).dim == 12


def test_tube_algebra_associative_with_unit(cats):
    for cat in cats.values():
        alg = tube_algebra(cat)
        assert associativity_residual(alg) < 1e-9
        assert alg.unit_residual() < 1e-12


def test_tube_algebra_blocks(cats):
    assert [n for _e, n in tube_algebra(cats["trivial"]).blocks] == [1]
    assert [n for _e, n in tube_algebra(cats["vec_z2_sym"]).blocks] == \
        [1, 1, 1, 1]
    assert sorted(n for _e, n in tube_algebra(cats["fibonacci"]).blocks) == \
        [1, 1, 1, 2]
    assert sorted(n for _e, n in tube_algebra(cats["ising"]).blocks) == \
        [1] * 8 + [2]


def test_tube_algebra_blocks_sorted_by_sign_normalized_key(cats):
    # the order of equal-size blocks must not depend on the sign of a
    # roundoff zero in the rounded idempotent
    for name, cat in cats.items():
        keys = [(n, (np.round(e, 6) + 0.0).tobytes().hex())
                for e, n in tube_algebra(cat).blocks]
        assert keys == sorted(keys), name


def test_tube_central_idempotents_are_idempotent(cats):
    for name in ("fibonacci", "vec_z2_sym"):
        alg = tube_algebra(cats[name])
        total = np.zeros(alg.dim, dtype=complex)
        for e_vec, _n in alg.blocks:
            sq = alg.multiply(e_vec, e_vec)
            assert np.allclose(sq, e_vec, atol=1e-8)
            total += e_vec
        assert np.allclose(total, alg.unit, atol=1e-8)


def test_tube_module_is_a_representation(cats):
    # the action of tube elements through the inverse half-braiding
    # intertwines the structure constants
    for name in ("fibonacci", "semion"):
        cat = cats[name]
        alg = tube_algebra(cat)
        obj = functor_F(cat, pair_object(word(cat.n_labels - 1),
                                         ObjectExpr.unit()))
        rho = tube_module(cat, obj)
        for x, qx in enumerate(alg.basis):
            for y, qy in enumerate(alg.basis):
                if qy[2] != qx[0] or qx not in rho or qy not in rho:
                    continue
                lhs = rho[qx] @ rho[qy]
                rhs = np.zeros_like(lhs)
                for z, cz in enumerate(alg.structure[x, y]):
                    if abs(cz) > 1e-14 and alg.basis[z] in rho:
                        rhs = rhs + cz * rho[alg.basis[z]]
                assert np.abs(lhs - rhs).max() < 1e-9


def _rebased_double(cat, s, rng):
    """S + S on X = (+)_a a^(2 d_a), re-based by a random invertible matrix
    per label, so every label of S occurs more than once in X."""
    dims = {a: 2 * d for a, d in s.X.grading(cat).items()}
    X = ObjectExpr(tuple(((a,) if a else (), d)
                         for a, d in sorted(dims.items())))
    P = {a: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
         for a, d in dims.items()}
    phi = E.Morphism(cat, ObjectExpr.direct_sum([s.X, s.X]), X, P)
    phi_inv = E.Morphism(cat, X, phi.source,
                         {a: np.linalg.inv(m) for a, m in P.items()})
    mats = {}
    for j in range(cat.n_labels):
        sj = word(j)
        mats[j] = E.compose_all(
            E.tensor(phi, E.identity(cat, sj)),
            E.direct_sum([s.gamma[j], s.gamma[j]]),
            E.tensor(E.identity(cat, sj), phi_inv))
    return CenterObject(X=X, gamma=HalfBraiding(X=X, mats=mats))


@pytest.mark.parametrize("name", ["fibonacci", "ising", "vec_z3_modular"])
def test_object_from_module_round_trips_multiplicities(cats, name):
    cat = cats[name]
    rng = np.random.default_rng(20261018)
    for s in center_simples(cat):
        obj = _rebased_double(cat, s, rng)
        dims = obj.X.grading(cat)
        back = _object_from_module(cat, dims, tube_module(cat, obj))
        assert back.X == obj.X
        for j in range(cat.n_labels):
            assert E.distance(back.gamma[j], obj.gamma[j]) < 1e-12


# -- simple center objects -------------------------------------------------

def test_center_simples_counts(cats):
    assert len(center_simples(cats["trivial"])) == 1
    assert len(center_simples(cats["semion"])) == 4
    assert len(center_simples(cats["vec_z2_sym"])) == 4
    assert len(center_simples(cats["fibonacci"])) == 4
    assert len(center_simples(cats["ising"])) == 9
    assert len(center_simples(cats["vec_z3_modular"])) == 9


def test_center_simples_verify_and_pairwise_distinct(cats):
    for cat in cats.values():
        simples = center_simples(cat)
        for s in simples:
            assert verify_center_object(cat, s).ok
            assert center_hom_dim(cat, s, s) == 1
        for i1, s1 in enumerate(simples):
            for i2, s2 in enumerate(simples):
                if i1 != i2:
                    assert center_hom_dim(cat, s1, s2) == 0


def test_fibonacci_center_quantum_dims(cats):
    cat = cats["fibonacci"]
    dims = sorted(complex(E.quantum_trace(cat, E.identity(cat, s.X))).real
                  for s in center_simples(cat))
    assert dims == pytest.approx([1.0, PHI, PHI, PHI * PHI], abs=1e-9)


def test_semion_center_simples_match_f_images(cats):
    cat = cats["semion"]
    simples = center_simples(cat)
    matches = {}
    for a in range(2):
        for b in range(2):
            obj = functor_F(cat, pair_object(word(a), word(b)))
            hit = [idx for idx, s in enumerate(simples)
                   if center_hom_dim(cat, obj, s) > 0]
            assert len(hit) == 1
            matches[(a, b)] = hit[0]
    assert sorted(matches.values()) == [0, 1, 2, 3]


def test_vec_z2_sym_f_not_essentially_surjective(cats):
    cat = cats["vec_z2_sym"]
    simples = center_simples(cat)
    hit = set()
    for a in range(2):
        for b in range(2):
            obj = functor_F(cat, pair_object(word(a), word(b)))
            for idx, s in enumerate(simples):
                if center_hom_dim(cat, obj, s) > 0:
                    hit.add(idx)
    assert len(hit) <= 2


def test_center_simples_deterministic(cats):
    cat = cats["fibonacci"]
    first = center_simples(cat)
    cat._cache.pop("center_simples")
    second = center_simples(cat)
    assert [s.X.summands for s in first] == [s.X.summands for s in second]
    for s1, s2 in zip(first, second):
        for j in range(cat.n_labels):
            assert E.distance(s1.gamma[j], s2.gamma[j]) < 1e-12


@pytest.mark.parametrize("seed", [2, 5, 12])
def test_center_simples_survive_phase_gauge(cats, seed):
    doc = phase_gauge(category_to_dict(cats["vec_z3_modular"]), seed)
    cat = category_from_dict(doc)
    simples = center_simples(cat)
    assert len(simples) == 9
    assert all(verify_center_object(cat, s).ok for s in simples)


# the catalog, three entries under phase ("@") and non-unitary ("#") vertex
# gauges, Vec_Z4 with R = i^ab, symmetric Vec_Z3 and Vec_Z5 with
# R = exp(2 pi i ab / 5)
TABLE_INPUTS = ALL_NAMES + [
    f"{base}{mark}{seed}" for mark in "@#"
    for base in ("ising", "fibonacci", "vec_z3_modular") for seed in (2, 5, 12)
] + ["vec_z4_k1", "vec_z3_k0", "vec_z5_k1"]

#: a non-pointed Deligne product ("C*D"), whose F objects have slots with
#: several summands per sector
PRODUCT_INPUT = "fibonacci*semion"


#: inputs of the q-Racah generator (``conftest.su2_doc``) with their center
#: counts; "_signed" takes the pivotal coefficients (-1)^{2j}
Q_RACAH_INPUTS = {"su2_2": 9, "su2_2_signed": 9, "su2_3": 16,
                  "su2_3_signed": 16, "su2_4": 25, "su2_4_signed": 25,
                  "so3_4": 8, "so3_5": 9, "so3_6": 14}


def _table_input(cats, name):
    """A named input (``conftest.input_doc``); catalog entries are the
    session's shared instances."""
    if name in cats:
        return cats[name]
    return category_from_dict(input_doc(cats, name))


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_tube_structure_matches_diagrams(cats, name):
    cat = _table_input(cats, name)
    alg = tube_algebra(cat)
    assert np.abs(alg.structure - tube_structure(cat, alg.basis)).max() < 1e-12


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_loop_table_matches_diagrams(cats, name):
    cat = _table_input(cats, name)
    for i in range(cat.n_labels):
        summed = {}
        for b, entries in _loop_table(cat, i).items():
            for j, a, a2, c, w in entries:
                key = (b, j, a, a2, c)
                summed[key] = summed.get(key, 0j) + w
        ref = loop_table(cat, i)
        assert set(summed) == set(ref)
        assert max(abs(summed[k] - ref[k]) for k in ref) < 1e-12


def test_tables_evaluate_no_diagram(cats, monkeypatch):
    # a fresh instance, so nothing is served from another test's cache
    cat = category_from_dict(category_to_dict(cats["ising"]))

    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was evaluated")

    for op in ("tensor", "compose", "braiding", "_close_right"):
        monkeypatch.setattr(E, op, refuse)
    tube_algebra(cat)
    for i in range(cat.n_labels):
        _loop_table(cat, i)


def _f_inputs(cat):
    """Every exterior product of two test objects (words up to length 2),
    one two-slot pair, and G of every center simple (multi-summand slots)."""
    objs = _test_objects(cat, 2)
    n = cat.n_labels
    a, z = 1 % n, n - 1
    return ([pair_object(X, Y) for X in objs for Y in objs]
            + [DelignePair(((word(z), word(a)), (word(a, z), word())))]
            + [functor_G(cat, s) for s in center_simples(cat)])


@pytest.mark.parametrize("name", TABLE_INPUTS + [PRODUCT_INPUT])
def test_functor_f_half_braiding_matches_diagrams(cats, name):
    # the crossing blocks F stacks from the crossing table, and the gamma
    # combed from them, against braid-past-X, reverse-braid-past-Y drawn
    # slot by slot; the "#" gauges tell F from Finv
    cat = _table_input(cats, name)
    for D in _f_inputs(cat):
        obj = functor_F(cat, D)
        ref = functor_f_half_braiding(cat, D)
        ref_blocks = HalfBraiding(X=obj.X, mats=ref).blocks
        blocks = obj.gamma.blocks
        assert set(blocks) <= set(ref_blocks)
        # a block F does not stack is zero
        for key, G_ref in ref_blocks.items():
            G = blocks.get(key, np.zeros_like(G_ref))
            assert G.shape == G_ref.shape
            assert np.abs(G - G_ref).max(initial=0.0) < 1e-12
        for j in range(cat.n_labels):
            assert E.distance(obj.gamma[j], ref[j]) < 1e-12


def test_factorize_draws_no_f_half_braiding(cats, monkeypatch):
    # F objects and their couplings come from channel blocks alone; the
    # combed gamma is drawn only when read (a fresh instance, so nothing is
    # served from another test's cache)
    cat = category_from_dict(category_to_dict(cats["ising"]))
    objs = _test_objects(cat, 2)
    pairs = [pair_object(X, Y) for X in objs for Y in objs]

    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was evaluated")

    with monkeypatch.context() as patch:
        for op in ("tensor", "braiding", "compose"):
            patch.setattr(E, op, refuse)
        fobjs = [functor_F(cat, D) for D in pairs]
        for obj in fobjs:
            for i in range(cat.n_labels):
                coupling_gamma(cat, i, obj)
    for D, obj in zip(pairs, fobjs):
        ref = functor_f_half_braiding(cat, D)
        mats = dict(obj.gamma)
        assert set(mats) == set(range(cat.n_labels))
        for j in range(cat.n_labels):
            assert mats[j] is obj.gamma[j]
            assert E.distance(obj.gamma[j], ref[j]) < 1e-12


@pytest.mark.parametrize("name", TABLE_INPUTS + [PRODUCT_INPUT])
def test_f_couplings_from_loop_table_match_gamma_blocks(cats, name):
    # an F object's couplings read the per-category loop-crossing table; a
    # plain CenterObject around the same combed gamma has no pair, so it
    # takes the crossing-block reader
    cat = _table_input(cats, name)
    for D in _f_inputs(cat):
        obj = functor_F(cat, D)
        plain = CenterObject(X=obj.X, gamma=HalfBraiding(obj.X, dict(obj.gamma)))
        assert plain.gamma.pair is None
        assert ([(cp.i, cp.image) for cp in _slot_couplings(cat, obj)]
                == [(cp.i, cp.image) for cp in _slot_couplings(cat, plain)])
        for i in range(cat.n_labels):
            cp, ref = coupling_gamma(cat, i, obj), coupling_gamma(cat, i, plain)
            assert E.distance(cp.gamma_mor, ref.gamma_mor) < 1e-12
            assert cp.image == ref.image


def test_invertibility_report_builds_no_f_channels(cats, monkeypatch):
    # the report reads F objects' couplings off the loop-crossing table
    # alone: no crossing blocks, so no combed gamma either (a fresh
    # instance, so nothing is served from another test's cache)
    cat = category_from_dict(category_to_dict(cats["ising"]))

    def refuse(*args, **kwargs):
        raise AssertionError("F's crossing blocks were built")

    monkeypatch.setattr(HalfBraiding, "_stack_crossings", refuse)
    rep = invertibility_report(cat, max_word_length=2)
    assert rep.factorizable


def test_half_braiding_builds_blocks_only_when_read(cats):
    # membership and a combed gamma_j given up front read no crossing
    # block, on a center simple and on an F object alike; a half-braiding
    # with neither combed mats nor a category is refused
    cat = category_from_dict(category_to_dict(cats["ising"]))
    s = center_simples(cat)[1]
    partial = HalfBraiding(s.X, {0: s.gamma[0]})
    fobj = functor_F(cat, pair_object(word(1), word(2)))
    for gamma in (partial, fobj.gamma):
        assert 2 in gamma and 3 not in gamma
        assert gamma._blocks is None
    assert partial[0] is s.gamma[0] and partial._blocks is None
    with pytest.raises(ValueError):
        HalfBraiding(s.X, {})


def test_crossing_channels_lay_out_non_empty_channels_only():
    # F(1 [x] 2) on Vec_Z5 is the single sector 3, so gamma_j has the one
    # crossing block on the channel j 3 -> 3 j through j + 3
    cat = category_from_dict(vec_zn_doc(5, 1))
    obj = functor_F(cat, pair_object(word(1), word(2)))
    assert sorted(obj.gamma.blocks) == [(j, (j + 3) % 5, 3, 3)
                                               for j in range(5)]


@pytest.mark.parametrize("name", TABLE_INPUTS + [PRODUCT_INPUT])
def test_center_simple_product_transforms_are_identities(cats, name):
    # a center simple's X is a label-ordered sum of simples, so both product
    # transforms of X and a simple are identities: its crossing blocks are
    # plain slices of gamma_j[c]
    cat = _table_input(cats, name)
    for s in center_simples(cat):
        for j in range(cat.n_labels):
            J = word(j)
            for c, n in enumerate(E._sector_dims(cat, s.X.tensor(J))):
                if n:
                    for P, Q in ((s.X, J), (J, s.X)):
                        assert np.array_equal(
                            E._product_iso(cat, P, Q, c)[0], np.eye(n))


def _twist_and_dim(cat, s):
    """(theta_Z, d_Z) of a center simple Z = (X, gamma): d_Z = Tr 1_X and
    theta_Z d_Z = Tr c_{Z,Z}, with the braiding of Z past itself
    c_{Z,Z} = sum_{a,n} (1_X (x) iota_{a,n}) gamma_a (pi_{a,n} (x) 1_X)."""
    X = s.X
    id_X = E.identity(cat, X)
    c = E.zero_morphism(cat, X.tensor(X), X.tensor(X))
    for si, (w, m) in enumerate(X.summands):
        for n in range(m):
            c = c + E.compose_all(
                E.tensor(id_X, E.inclusion(cat, X, si, n)),
                s.gamma[w[0] if w else 0],
                E.tensor(E.projection(cat, X, si, n), id_X))
    d = E.quantum_trace(cat, id_X)
    return E.quantum_trace(cat, c) / d, d


def _rounded(values):
    return sorted((round(z.real, 6) + 0.0, round(z.imag, 6) + 0.0)
                  for z in values)


@pytest.mark.parametrize("name", ALL_NAMES + [
    PRODUCT_INPUT, "vec_z2_sym*fibonacci", "vec_z4_k1", "vec_z3_k0",
    *Q_RACAH_INPUTS])
def test_center_is_complete(cats, name):
    # the center simples exhaust Z(C): sum d_Z^2 = D^4 and the Gauss sum
    # sum d_Z^2 theta_Z = D^2 (central charge 0); on a modular C, Z(C) is
    # C [x] C^rev and its twists are theta_a conj(theta_b)
    cat = _table_input(cats, name)
    D2 = cat.total_dim
    pairs = [_twist_and_dim(cat, s) for s in center_simples(cat)]
    assert abs(sum(d * d for _t, d in pairs) - D2 * D2) < 1e-12 * abs(D2) ** 2
    assert abs(sum(d * d * t for t, d in pairs) - D2) < 1e-12 * abs(D2)
    assert all(abs(abs(t) - 1) < 1e-12 for t, _d in pairs)
    if is_modular(cat).modular:
        th = cat.piv.twists
        assert _rounded(t for t, _d in pairs) == _rounded(
            a * b.conjugate() for a in th for b in th)


def _with_crossing_scaled(obj, j, factor, sector=None):
    """A copy of obj with gamma_j, or only its block at ``sector``, scaled."""
    mats = dict(obj.gamma)
    g = mats[j]
    mats[j] = g * factor if sector is None else E.Morphism(
        g.cat, g.source, g.target,
        {c: b * factor if c == sector else b for c, b in g.blocks.items()})
    return CenterObject(X=obj.X, gamma=HalfBraiding(X=obj.X, mats=mats))


def _close(value, ref):
    """Within 1e-12, relative to the reference once it exceeds one."""
    return abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("name", TABLE_INPUTS + [PRODUCT_INPUT, "su2_3", "so3_5"])
def test_verify_center_object_matches_diagrams(cats, name):
    # the residuals read off the channel blocks against the diagram loop,
    # on center simples, F objects of (simple, two-letter word) pairs and
    # copies with one crossing scaled (gamma_0 by -1, gamma_j by i)
    cat = _table_input(cats, name)
    n = cat.n_labels
    simples = center_simples(cat)
    fobjs = [functor_F(cat, pair_object(word(a), word(b, c)))
             for a in range(n) for b in range(1, n) for c in range(1, n)]
    objs = simples + fobjs + [
        _with_crossing_scaled(obj, j, -1.0 if j == 0 else 1j)
        for obj in simples + fobjs[:1] for j in range(n)]
    for obj in objs:
        rep, ref = verify_center_object(cat, obj), reference_tensoriality(cat, obj)
        assert _close(rep.unit_residual, ref.unit_residual)
        assert _close(rep.tensoriality_residual, ref.tensoriality_residual)
        assert _close(rep.max_condition, ref.max_condition)
        assert rep.ok == ref.ok
    # the fingerprint, and so the order of the simples, is the diagrams' own
    keys = [reference_sort_key(cat, s) for s in simples]
    assert [_center_sort_key(cat, s) for s in simples] == keys
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", ["ising", "fibonacci"])
def test_one_scaled_sector_block_fails_verification(cats, name):
    # on non-pointed channels: i times any one sector block of any gamma_j
    # (j != 0) of any center simple breaks tensoriality
    cat = cats[name]
    for obj in center_simples(cat):
        for j in range(1, cat.n_labels):
            for c in obj.gamma[j].blocks:
                rep = verify_center_object(
                    cat, _with_crossing_scaled(obj, j, 1j, sector=c))
                assert not rep.ok, (j, c)
                assert rep.tensoriality_residual > 1e-3, (j, c)


def test_center_simples_and_verification_draw_no_diagram(cats, monkeypatch):
    # sorting the simples and checking them and an F object read channel
    # blocks alone (a fresh instance, so nothing is served from another
    # test's cache)
    cat = category_from_dict(category_to_dict(cats["ising"]))

    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was evaluated")

    for op in ("tensor", "compose", "braiding", "quantum_trace", "cup_cap"):
        monkeypatch.setattr(E, op, refuse)
    objs = center_simples(cat) + [functor_F(cat, pair_object(word(1), word(2, 1)))]
    assert all(verify_center_object(cat, obj).ok for obj in objs)


@pytest.mark.parametrize("name", ["vec_z4_k1", "ising"])
def test_verifying_center_simples_builds_no_word_product_transform(cats, name):
    # a center simple's X is a letter sum, so its check reads the product
    # transforms of X with single letters only, never those of a word j k
    # (a fresh instance, so nothing is served from another test's cache)
    cat = category_from_dict(input_doc(cats, name))
    simples = center_simples(cat)
    before = set(cat._cache)
    assert all(verify_center_object(cat, s).ok for s in simples)
    added = [key for key in set(cat._cache) - before if key[0] == "Q"]
    assert added
    for _q, X, Y, _k in added:
        assert all(len(w) < 2 for w, _m in X + Y), (X, Y)


@pytest.mark.parametrize("name", ["vec_z4_k1", "ising"])
def test_center_simples_are_born_with_their_crossing_blocks(cats, monkeypatch,
                                                            name):
    # the crossing blocks are cut from the inverted module matrices, so
    # building and sorting the simples reads no channel block
    cat = category_from_dict(input_doc(cats, name))

    def refuse(*args):
        raise AssertionError("a channel block was read")

    monkeypatch.setattr(E, "_channel_blocks", refuse)
    simples = center_simples(cat)
    assert all(s.gamma._blocks is not None for s in simples)


@pytest.mark.parametrize("k", [1, 0])
def test_vec_z5_center_has_25_verified_simples(k):
    # R(a, b) = exp(2 pi i k a b / 5): modular for k = 1, symmetric for k = 0
    n = 5
    cat = category_from_dict(vec_zn_doc(n, k))
    assert validate(cat).ok
    simples = center_simples(cat)
    assert len(simples) == n * n
    assert all(verify_center_object(cat, s).ok for s in simples)


@pytest.mark.parametrize("left, right, factorizable", [
    ("fibonacci", "semion", True), ("vec_z2_sym", "fibonacci", False)])
def test_product_center_counts_multiply(cats, left, right, factorizable):
    # Z(C [x] D) = Z(C) [x] Z(D) (Muger 2003), so the center counts multiply;
    # the verdict follows modularity, which a transparent factor breaks
    cat = category_from_dict(product_doc(category_to_dict(cats[left]),
                                         category_to_dict(cats[right])))
    assert validate(cat).ok
    simples = center_simples(cat)
    assert len(simples) == (len(center_simples(cats[left]))
                            * len(center_simples(cats[right]))) == 16
    assert all(verify_center_object(cat, s).ok for s in simples)
    rep = invertibility_report(cat, max_word_length=1)
    assert rep.modular is is_modular(cat).modular is factorizable
    assert rep.factorizable is factorizable and rep.agrees_with_modularity


@pytest.mark.parametrize("name", Q_RACAH_INPUTS)
def test_q_racah_centers_verify_and_agree_with_modularity(cats, name):
    # every simple verified, the expected count, and a verdict at word
    # length 1 that follows modularity: SO(3)_4 and SO(3)_6 are premodular
    cat = _table_input(cats, name)
    simples = center_simples(cat)
    assert len(simples) == Q_RACAH_INPUTS[name]
    assert all(verify_center_object(cat, s).ok for s in simples)
    rep = invertibility_report(cat, max_word_length=1)
    assert rep.agrees_with_modularity
    assert rep.factorizable is (name not in ("so3_4", "so3_6"))


# -- the inverse functor ---------------------------------------------------

def test_functor_g_on_trivial_object(cats):
    for name in ("trivial", "semion", "fibonacci", "ising", "vec_z3_modular"):
        pair = functor_G(cats[name], trivial_center_object(cats[name]))
        assert pair.grading(cats[name]) == {(0, 0): 1}
    # on the degenerate entry every transparent label couples to the unit,
    # so the image of the unit is strictly larger: G is not an inverse
    degen = cats["vec_z2_sym"]
    pair = functor_G(degen, trivial_center_object(degen))
    assert pair.grading(degen) == {(0, 0): 1, (1, 1): 1}


def test_functor_g_of_f_unit(cats):
    cat = cats["fibonacci"]
    obj = functor_F(cat, pair_object(ObjectExpr.unit(), ObjectExpr.unit()))
    assert functor_G(cat, obj).grading(cat) == {(0, 0): 1}


def test_functor_g_bijection_on_simples_modular(cats):
    for name in ("semion", "fibonacci", "ising", "vec_z3_modular"):
        cat = cats[name]
        for a in range(cat.n_labels):
            for b in range(cat.n_labels):
                obj = functor_F(cat, pair_object(word(a), word(b)))
                assert functor_G(cat, obj).grading(cat) == {(a, b): 1}, \
                    (name, a, b)


def test_functor_g_images_of_center_simples_distinct(cats):
    cat = cats["fibonacci"]
    gradings = [tuple(sorted(functor_G(cat, s).grading(cat).items()))
                for s in center_simples(cat)]
    assert len(set(gradings)) == 4


def test_functor_g_functorial(cats):
    # G(p) o G(b) = G(p o b) = id for a modular category
    cat = cats["semion"]
    obj = center_simples(cat)[1]
    fg = functor_F(cat, functor_G(cat, obj))
    b = transform_b(cat, obj)
    p = transform_p(cat, obj)
    gb = functor_G_on_morphism(cat, obj, fg, b)
    gp = functor_G_on_morphism(cat, fg, obj, p)
    lhs = deligne_compose(gp, gb)
    rhs = functor_G_on_morphism(cat, obj, obj, E.compose(p, b))
    assert deligne_distance(lhs, rhs) < 1e-9
    assert deligne_defect(rhs) < 1e-9


# -- the four transformations ----------------------------------------------

def test_d_q_at_unit_pair_are_inverse_scalars(cats):
    for cat in cats.values():
        X = Y = ObjectExpr.unit()
        d = transform_d(cat, X, Y)
        q = transform_q(cat, X, Y)
        assert deligne_defect(deligne_compose(q, d)) < 1e-12


def test_nat_transforms_dispatch(cats):
    cat = cats["semion"]
    d, q = nat_transforms(cat, (word(1), ObjectExpr.unit()))
    assert deligne_defect(deligne_compose(q, d)) < 1e-9
    obj = center_simples(cat)[0]
    b, p = nat_transforms(cat, obj)
    assert E.defect_from_identity(E.compose(p, b)) < 1e-9


def test_d_naturality_square(cats):
    for name in ("fibonacci", "vec_z2_sym"):
        cat = cats[name]
        X, Y = word(cat.n_labels - 1), word(1)
        u = E.random_morphism(cat, X, X, RNG)
        v = E.random_morphism(cat, Y, Y, RNG)
        uv = pair_morphism(cat, u, v)
        d = transform_d(cat, X, Y)
        fobj = functor_F(cat, pair_object(X, Y))
        gf_uv = functor_G_on_morphism(cat, fobj, fobj,
                                      functor_F_on_morphism(cat, uv))
        assert deligne_distance(deligne_compose(d, uv),
                                deligne_compose(gf_uv, d)) < 1e-9


def test_q_naturality_square(cats):
    cat = cats["fibonacci"]
    X, Y = word(1), word(1)
    u = E.random_morphism(cat, X, X, RNG)
    v = E.random_morphism(cat, Y, Y, RNG)
    uv = pair_morphism(cat, u, v)
    q = transform_q(cat, X, Y)
    fobj = functor_F(cat, pair_object(X, Y))
    gf_uv = functor_G_on_morphism(cat, fobj, fobj,
                                  functor_F_on_morphism(cat, uv))
    assert deligne_distance(deligne_compose(uv, q),
                            deligne_compose(q, gf_uv)) < 1e-9


def test_basis_independence_of_d_and_q(cats):
    for name in ("fibonacci", "ising"):
        cat = cats[name]
        X, Y = word(1), word(1)
        d_ref = transform_d(cat, X, Y)
        q_ref = transform_q(cat, X, Y)
        for i in range(cat.n_labels):
            n = X.dim_sector(cat, cat.dual[i])
            if n == 0:
                continue
            rot = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))

            def rotated(ii, rot=rot, i=i):
                return E.hom_basis(cat, X, ii,
                                   rotation=(rot if ii == i else None))

            assert deligne_distance(
                reference_d(cat, X, Y, basis=rotated), d_ref) < 1e-9
            assert deligne_distance(
                reference_q(cat, X, Y, basis=rotated), q_ref) < 1e-9


@pytest.mark.parametrize("name", TABLE_INPUTS)
def test_nat_transforms_match_reference(cats, name):
    # each pair built in one pass against the four formulas built one at a
    # time, each with its own F object and hom basis
    cat = _table_input(cats, name)
    objs = _test_objects(cat, 2 if name in ALL_NAMES else 1)
    for X in objs:
        for Y in objs:
            d, q = nat_transforms(cat, (X, Y))
            assert deligne_distance(d, reference_d(cat, X, Y)) < 1e-12
            assert deligne_distance(q, reference_q(cat, X, Y)) < 1e-12
    for obj in center_simples(cat):
        b, p = nat_transforms(cat, obj)
        assert E.distance(b, reference_b(cat, obj)) < 1e-12
        assert E.distance(p, reference_p(cat, obj)) < 1e-12


def test_b_p_center_morphism_property(cats):
    for cat in cats.values():
        for obj in center_simples(cat):
            fg = functor_F(cat, functor_G(cat, obj))
            b = transform_b(cat, obj)
            p = transform_p(cat, obj)
            assert zc_morphism_defect(cat, b, obj, fg) < 1e-9
            assert zc_morphism_defect(cat, p, fg, obj) < 1e-9


def test_pb_identity_at_trivial_object(cats):
    cat = cats["fibonacci"]
    obj = trivial_center_object(cat)
    composite = E.compose(transform_p(cat, obj), transform_b(cat, obj))
    assert E.defect_from_identity(composite) < 1e-9


# -- the report -------------------------------------------------------------

def test_invertibility_report_fibonacci(cats):
    rep = invertibility_report(cats["fibonacci"], max_word_length=1)
    assert rep.factorizable
    assert rep.modular
    assert rep.agrees_with_modularity
    for v in (rep.defect_qd, rep.defect_dq, rep.defect_pb, rep.defect_bp):
        assert v < 1e-9
    assert rep.center_count == rep.square_count == 4


def test_test_objects_are_every_word_up_to_the_length(cats):
    cat = cats["ising"]
    words = [X.summands[0][0] for X in _test_objects(cat, 3)]
    assert words == [(), (1,), (2,)] + [(a, b) for a in (1, 2) for b in (1, 2)] + [
        (a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    assert _test_objects(cat, 2) == _test_objects(cat, 3)[:7]
    with pytest.raises(ValueError):
        _test_objects(cat, 0)
    rep = invertibility_report(cat, max_word_length=3)
    assert rep.factorizable and rep.agrees_with_modularity
    assert max(rep.defect_qd, rep.defect_dq) < 1e-12


def test_invertibility_report_degenerate(cats):
    rep = invertibility_report(cats["vec_z2_sym"], max_word_length=2)
    assert not rep.factorizable
    assert not rep.modular
    assert rep.agrees_with_modularity
    assert rep.defect_qd < 1e-9
    assert rep.defect_dq >= 0.5 or rep.defect_pb >= 0.5
    assert rep.rank_s == 1
    assert muger_center(cats["vec_z2_sym"]).transparent == [0, 1]


def test_invertibility_report_trivial(cats):
    rep = invertibility_report(cats["trivial"])
    assert rep.factorizable
    assert rep.defect_qd == rep.defect_dq == 0.0
    assert rep.defect_pb == rep.defect_bp == 0.0


def test_invertibility_report_keeps_no_f_objects(cats):
    # each test pair's F object is dropped once the pair is scored (a fresh
    # instance, so no other test's cache entries are seen)
    cat = category_from_dict(category_to_dict(cats["ising"]))
    invertibility_report(cat, max_word_length=2)
    assert not [key for key in cat._cache
                if isinstance(key, tuple) and key[0] == "F_obj"]


@pytest.mark.parametrize("reach", [
    lambda cat: list(_legs(cat, word(1), 1)),
    lambda cat: [tube_algebra(cat).structure, tube_algebra(cat).unit],
    lambda cat: [b for s in center_simples(cat) for j in s.gamma
                 for b in s.gamma[j].blocks.values()],
    lambda cat: [b for s in center_simples(cat) for b in s.gamma.blocks.values()],
    lambda cat: [b for s in center_simples(cat) for cp in _slot_couplings(cat, s)
                 for m in (cp.gamma_mor, cp.incl, cp.proj)
                 for b in m.blocks.values()],
    lambda cat: [cat.f.matrix(1, 1, 1, 1)[0], cat.f.inverse(1, 1, 1, 1)[0]],
], ids=["legs", "tube_algebra", "center_gamma", "crossing_blocks", "couplings",
        "f_blocks"])
def test_arrays_reached_from_the_category_cache_are_read_only(cats, reach):
    # a write into a shared array would change every later reader, for
    # example every later d and q through a leg
    cat = category_from_dict(category_to_dict(cats["ising"]))
    arrays = reach(cat)
    assert arrays
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_coupling_stores_no_zero_block(cats):
    # a sector of i (x) X whose loop entries all vanish has no block, so
    # gamma_mor holds exactly the sectors of its image
    cat = cats["ising"]
    dropped = 0
    for obj in [*center_simples(cat), functor_F(cat, pair_object(1, 1))]:
        for i in range(cat.n_labels):
            cp = coupling_gamma(cat, i, obj)
            assert cp.gamma_mor.blocks.keys() == cp.image.grading(cat).keys()
            dropped += len(cp.gamma_mor.source.grading(cat)) - len(
                cp.gamma_mor.blocks)
    assert dropped


def test_array_holders_compare_by_identity(cats):
    # an == that compared the arrays held would raise ValueError
    cat = cats["ising"]
    X = word(1, 1, 1)
    f, g = (E.random_endomorphism(cat, X, RNG) for _ in range(2))
    F1, F2 = (functor_F(cat, pair_object(1, 1)) for _ in range(2))
    alg = tube_algebra(cat)
    for x, y in [(f, g), (F1, F2), (F1.gamma, F2.gamma),
                 (coupling_gamma(cat, 1, F1), coupling_gamma(cat, 1, F2)),
                 (alg, dataclasses.replace(alg, structure=alg.structure.copy())),
                 (E.hom_basis(cat, X, 1), E.hom_basis(cat, X, 1)),
                 (s_matrix(cat), s_matrix(cats["fibonacci"]))]:
        assert x != y and x == x


def test_stack_gathers_each_block_in_one_product(cats, monkeypatch):
    # on a two-slot pair each block of HalfBraiding.stack is, at each slot's
    # offsets, sum t Q(X_s,Y_s,a2)[:, xy] Qinv(X_s,Y_s,a)[xy, :] over the
    # pairs xy and their terms, gathered without any _recouple
    cat = cats["ising"]
    obj = functor_F(cat, TWO_SLOT_SRC)
    rng = np.random.default_rng(20261020)
    scale = {}

    def terms(x, y):
        for a in cat.ring.fusion(x, y):
            for a2 in cat.ring.fusion(x, y):
                t = scale.setdefault((x, y, a, a2), complex(*rng.normal(size=2)))
                yield (a2, a), a, a2, t

    def refused(*args):
        raise AssertionError("stack called _recouple")

    monkeypatch.setattr(E, "_recouple", refused)
    blocks = obj.gamma.stack(terms)
    want = {}
    offset = [0] * cat.n_labels
    for (X, Y), pairs in zip(TWO_SLOT_SRC.slots, obj.gamma.slot_pairs):
        for x, y in pairs:
            for (a2, a), _a, _a2, t in terms(x, y):
                Q2, ch2, _ = E._product_iso(cat, X, Y, a2)
                _, ch1, Qinv1 = E._product_iso(cat, X, Y, a)
                K = t * Q2[:, ch2[(x, y)]] @ Qinv1[ch1[(x, y)]]
                blk = want.setdefault((a2, a), np.zeros(
                    (obj.X.dim_sector(cat, a2), obj.X.dim_sector(cat, a)),
                    dtype=complex))
                blk[offset[a2]:offset[a2] + K.shape[0],
                    offset[a]:offset[a] + K.shape[1]] += K
        offset = [o + X.tensor(Y).dim_sector(cat, k)
                  for k, o in enumerate(offset)]
    assert len(TWO_SLOT_SRC.slots) == 2 and blocks.keys() == want.keys()
    assert max(np.abs(blocks[k] - want[k]).max() for k in want) < 1e-13


@pytest.mark.parametrize("name", ["ising#2", "fibonacci#5",
                                  "vec_z2_sym*fibonacci"])
def test_d_and_q_match_reference_at_word_length_two(cats, name):
    # d and q built per sector from the leg matrices against the per-leg
    # diagrams of tube_reference, on gauged and product inputs
    cat = _table_input(cats, name)
    objs = _test_objects(cat, 2)
    for X in objs:
        for Y in objs:
            d, q = nat_transforms(cat, (X, Y))
            assert all(b.size for m in (d, q) for b in m.blocks.values())
            assert deligne_distance(d, reference_d(cat, X, Y)) < 1e-12
            assert deligne_distance(q, reference_q(cat, X, Y)) < 1e-12


def test_square_transforms_make_no_pair_tensor_or_assembly(cats, monkeypatch):
    # once the couplings are cached, d and q at a pair are products of
    # cached arrays and of leg matrices cut from a product transform: no
    # exterior product, tensor, composite, cup or cap, hom basis or join
    cat = category_from_dict(category_to_dict(cats["ising"]))
    objs = _test_objects(cat, 2)
    for X in objs:
        for Y in objs:
            nat_transforms(cat, (X, Y))
    for key in [k for k in cat._cache if k[0] == "legs"]:
        del cat._cache[key]
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for mod, name in [(C, "pair_morphism"), (deligne, "pair_morphism"),
                      (E, "tensor"), (E, "compose"), (E, "cup_cap"),
                      (E, "hom_basis")]:
        monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    monkeypatch.setattr(E.Morphism, "assemble", classmethod(counted(
        "assemble", E.Morphism.assemble.__func__)))
    for X in objs:
        for Y in objs:
            d, q = nat_transforms(cat, (X, Y))
            assert deligne_defect(deligne_compose(q, d)) < 1e-12
    assert calls == []
    assert any(k[0] == "legs" for k in cat._cache)


def test_invertibility_report_builds_no_hom_basis_and_each_leg_once(
        cats, monkeypatch):
    # the legs of d and q are cut from a product transform, each once per
    # (X, i), with no hom basis drawn
    cat = category_from_dict(category_to_dict(cats["ising"]))
    hom_bases, legs = [], {}
    hom_basis, cached = E.hom_basis, E._cached

    def counted_hom_basis(*args, **kwargs):
        hom_bases.append(args)
        return hom_basis(*args, **kwargs)

    def counted_cached(cat_, key, builder):
        def build():
            if key[0] == "legs":
                legs[key] = legs.get(key, 0) + 1
            return builder()
        return cached(cat_, key, build)

    monkeypatch.setattr(E, "hom_basis", counted_hom_basis)
    monkeypatch.setattr(E, "_cached", counted_cached)
    invertibility_report(cat, max_word_length=2)
    assert hom_bases == []
    assert legs and max(legs.values()) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_scalar_blocks_never_reach_lapack(monkeypatch, n):
    # every block of Vec_Z5 is 1x1; Vec_Z4 (R = i^ab) also has the 2x2
    # blocks of center simples on a + (a + 2), which still go to LAPACK
    cat = category_from_dict(vec_zn_doc(n, 1))
    simples = center_simples(cat)  # the tube split and the S-matrix are
    is_modular(cat)                # built before the check
    X, Y = word(1), word(n - 1)
    d, q = transform_d(cat, X, Y), transform_q(cat, X, Y)

    def refusing(name):
        numpy_call = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            if n == 5 or np.shape(a) == (1, 1):
                raise AssertionError(f"np.linalg.{name} got a {np.shape(a)} block")
            return numpy_call(a, *args, **kwargs)
        return call

    for name in ("svd", "inv", "cond"):
        monkeypatch.setattr(np.linalg, name, refusing(name))
    assert all(verify_center_object(cat, s).ok for s in simples)
    assert deligne_defect(deligne_compose(q, d)) < 1e-12
    assert invertibility_report(cat, max_word_length=1).agrees_with_modularity


def test_report_schema(cats):
    doc = invertibility_report(cats["trivial"]).as_dict()
    assert set(doc) == {"category", "modular", "rank_S", "defects",
                        "center_count", "square_count", "verdict",
                        "agrees_with_modularity"}
    assert set(doc["defects"]) == {"qd", "dq", "pb", "bp"}
