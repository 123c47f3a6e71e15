"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
on failure) and asserts the criterion at its stated tolerance:

  1  axiom suite on the whole catalog at 1e-10
  2  q.d = id unconditionally at 1e-9 (modular and degenerate alike)
  3  all four composites are identities on modular entries at 1e-9
  4  the degenerate entry fails d.q or p.b by >= 0.5 while 2 still holds
  5  coupling idempotency at 1e-9 over every (label, center simple) pair
  6  loop lemmas: identity resolution, sliding, censorship of opacity
  7  b and p are center morphisms at 1e-9 on every catalog entry
  8  center counts, the simple-pair bijection, and the triple equivalence
  9  basis independence of the unit/counit transformation families at 1e-9
 10  the ribbon-isotopy regression identity at 1e-9 on all simple pairs
"""

import numpy as np
import pytest

from tcat import engine as E, validate
from tcat.engine import ObjectExpr
from tcat.center import (center_hom_dim, center_simples, coupling_gamma,
                         functor_F, functor_G, transform_b, transform_d,
                         transform_p, transform_q, verify_center_object,
                         zc_morphism_defect)
from tcat.deligne import (deligne_compose, deligne_defect, deligne_distance,
                          pair_object)
from tcat.modularity import is_modular, muger_center, s_matrix

from conftest import ALL_NAMES, DEGENERATE_NAME, MODULAR_NAMES
from tube_reference import reference_d, reference_q

EPS_STRUCT = 1e-10
EPS_ID = 1e-9


def _report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {label}{suffix}")


def _simple_pairs(cat):
    for a in range(cat.n_labels):
        for b in range(cat.n_labels):
            yield ObjectExpr.simple(a), ObjectExpr.simple(b)


def test_criterion_1_axiom_suite(cats):
    worst = 0.0
    for name in ALL_NAMES:
        report = validate(cats[name])
        for key in ("pentagon", "hexagon_forward", "hexagon_reverse",
                    "sphericality"):
            worst = max(worst, report.residual(key))
        assert report.ok, f"{name} failed validation"
    ok = worst < EPS_STRUCT
    _report(1, "axiom suite on all catalog entries", ok,
            f"max residual {worst:.2e} < 1e-10")
    assert ok


def test_criterion_2_unconditional_counit_unit_composite(cats):
    worst = 0.0
    for name in ALL_NAMES:
        cat = cats[name]
        for X, Y in _simple_pairs(cat):
            d = transform_d(cat, X, Y)
            q = transform_q(cat, X, Y)
            worst = max(worst, deligne_defect(deligne_compose(q, d)))
    ok = worst < EPS_ID
    _report(2, "q.d = id on every simple exterior product, every entry", ok,
            f"max defect {worst:.2e} < 1e-9")
    assert ok


def test_criterion_3_main_theorem_modular(cats):
    worst = 0.0
    for name in MODULAR_NAMES:
        cat = cats[name]
        for X, Y in _simple_pairs(cat):
            d = transform_d(cat, X, Y)
            q = transform_q(cat, X, Y)
            worst = max(worst, deligne_defect(deligne_compose(q, d)))
            worst = max(worst, deligne_defect(deligne_compose(d, q)))
        for obj in center_simples(cat):
            b = transform_b(cat, obj)
            p = transform_p(cat, obj)
            worst = max(worst, E.defect_from_identity(E.compose(p, b)))
            worst = max(worst, E.defect_from_identity(E.compose(b, p)))
    ok = worst < EPS_ID
    _report(3, "all four composite defects vanish on modular entries", ok,
            f"max defect {worst:.2e} < 1e-9")
    assert ok


def test_criterion_4_degenerate_failure(cats):
    cat = cats[DEGENERATE_NAME]
    qd = dq = 0.0
    for X, Y in _simple_pairs(cat):
        d = transform_d(cat, X, Y)
        q = transform_q(cat, X, Y)
        qd = max(qd, deligne_defect(deligne_compose(q, d)))
        dq = max(dq, deligne_defect(deligne_compose(d, q)))
    pb = 0.0
    for obj in center_simples(cat):
        b = transform_b(cat, obj)
        p = transform_p(cat, obj)
        pb = max(pb, E.defect_from_identity(E.compose(p, b)))
    rank = s_matrix(cat).rank
    transparent = muger_center(cat).transparent
    ok = (qd < EPS_ID and (dq >= 0.5 or pb >= 0.5) and rank == 1
          and transparent == [0, 1])
    _report(4, "degenerate entry fails invertibility but not q.d", ok,
            f"qd {qd:.2e}, dq {dq:.2f}, pb {pb:.2f}, rank {rank}, "
            f"transparent {transparent}")
    assert ok


def test_criterion_5_coupling_idempotency(cats):
    worst = 0.0
    for name in ALL_NAMES:
        cat = cats[name]
        for obj in center_simples(cat):
            for i in range(cat.n_labels):
                cp = coupling_gamma(cat, i, obj)
                worst = max(worst, cp.idempotency_residual)
    ok = worst < EPS_ID
    _report(5, "coupling morphisms square to themselves", ok,
            f"max residual {worst:.2e} < 1e-9")
    assert ok


def test_criterion_6_loop_lemma_suite(cats):
    worst_res = 0.0
    rng = np.random.default_rng(20240813)
    for name in ALL_NAMES:
        cat = cats[name]
        labels = list(range(1, cat.n_labels)) or [0]
        words = [()] + [(a,) for a in labels] \
            + [(a, b) for a in labels for b in labels] \
            + [(a, b, c) for a in labels for b in labels for c in labels]
        for w in words:
            W = ObjectExpr.word(w)
            acc = E.zero_morphism(cat, W, W)
            for i, lo, hi in E.identity_resolution(cat, W):
                acc = acc + cat.dim(i) * E.compose(hi, lo)
            worst_res = max(worst_res, E.defect_from_identity(acc))
    ok_res = worst_res < EPS_ID

    worst_slide = 0.0
    for name in ALL_NAMES:
        cat = cats[name]
        last = cat.n_labels - 1  # trivial has label 0 only: W is the unit
        W = ObjectExpr.word((last, min(1, last)))
        loop = E.omega_loop(cat, W)
        worst_slide = max(worst_slide,
                          E.distance(loop, E.omega_loop(cat, W, mirror=True)))
        f = E.random_endomorphism(cat, W, rng)
        worst_slide = max(worst_slide,
                          E.distance(E.compose(loop, f), E.compose(f, loop)))
    ok_slide = worst_slide < EPS_ID

    worst_cens = 0.0
    for name in MODULAR_NAMES:
        cat = cats[name]
        dim_omega = complex(cat.total_dim)
        for i in range(cat.n_labels):
            loop = E.omega_loop(cat, ObjectExpr.simple(i))
            want = dim_omega if i == 0 else 0.0
            worst_cens = max(worst_cens, abs(loop.block(i)[0, 0] - want))
    ok_cens = worst_cens < EPS_ID
    degen = cats[DEGENERATE_NAME]
    loop_g = E.omega_loop(degen, ObjectExpr.simple(1))
    ok_degen = abs(loop_g.block(1)[0, 0] - complex(degen.total_dim)) < EPS_ID

    ok = ok_res and ok_slide and ok_cens and ok_degen
    _report(6, "loop lemmas: resolution, sliding, censorship of opacity", ok,
            f"resolution {worst_res:.2e}, sliding {worst_slide:.2e}, "
            f"censorship {worst_cens:.2e}, transparent loop nonzero {ok_degen}")
    assert ok


def test_criterion_7_b_p_are_center_morphisms(cats):
    worst = 0.0
    for name in ALL_NAMES:
        cat = cats[name]
        for obj in center_simples(cat):
            fg = functor_F(cat, functor_G(cat, obj))
            worst = max(worst, zc_morphism_defect(cat, transform_b(cat, obj),
                                                  obj, fg))
            worst = max(worst, zc_morphism_defect(cat, transform_p(cat, obj),
                                                  fg, obj))
    ok = worst < EPS_ID
    _report(7, "unit/counit maps respect the half-braidings", ok,
            f"max defect {worst:.2e} < 1e-9")
    assert ok


def test_criterion_8_counts_and_triple_equivalence(cats):
    ok = True
    details = []
    for name in MODULAR_NAMES:
        cat = cats[name]
        simples = center_simples(cat)
        n = cat.n_labels
        ok_count = len(simples) == n * n
        ok_pairwise = all(center_hom_dim(cat, s1, s2) == (1 if i1 == i2 else 0)
                          for i1, s1 in enumerate(simples)
                          for i2, s2 in enumerate(simples))
        ok_bij = True
        for a in range(n):
            for b in range(n):
                obj = functor_F(cat, pair_object(ObjectExpr.simple(a),
                                                 ObjectExpr.simple(b)))
                if functor_G(cat, obj).grading(cat) != {(a, b): 1}:
                    ok_bij = False
        ok = ok and ok_count and ok_pairwise and ok_bij
        details.append(f"{name}:{len(simples)}/{n * n}")
    for name in ALL_NAMES:
        cat = cats[name]
        modular = is_modular(cat).modular
        trivial_muger = muger_center(cat).transparent == [0]
        factorizable = modular  # cross-checked against the defect norms below
        for X, Y in [(ObjectExpr.simple(cat.n_labels - 1), ObjectExpr.unit())]:
            d = transform_d(cat, X, Y)
            q = transform_q(cat, X, Y)
            dq = deligne_defect(deligne_compose(d, q))
            factorizable = dq < EPS_ID
        trip = modular == trivial_muger == factorizable
        ok = ok and trip
    _report(8, "center counts, simple-pair bijection, triple equivalence", ok,
            " ".join(details))
    assert ok


def test_criterion_9_basis_independence(cats):
    rng = np.random.default_rng(20240814)
    worst = 0.0
    for name in ("fibonacci", "ising", "vec_z3_modular"):
        cat = cats[name]
        X, Y = ObjectExpr.simple(cat.n_labels - 1), ObjectExpr.simple(1)
        d_ref = transform_d(cat, X, Y)
        q_ref = transform_q(cat, X, Y)
        for i in range(cat.n_labels):
            dim = X.dim_sector(cat, cat.dual[i])
            if dim == 0:
                continue
            rot = (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)))

            def rotated(ii, rot=rot, i=i):
                return E.hom_basis(cat, X, ii,
                                   rotation=(rot if ii == i else None))

            worst = max(worst, deligne_distance(
                reference_d(cat, X, Y, basis=rotated), d_ref))
            worst = max(worst, deligne_distance(
                reference_q(cat, X, Y, basis=rotated), q_ref))
    ok = worst < EPS_ID
    _report(9, "unit/counit families are basis-independent", ok,
            f"max difference {worst:.2e} < 1e-9")
    assert ok


def test_criterion_10_graphical_calculus_regression(cats):
    worst = 0.0
    for name in ALL_NAMES:
        cat = cats[name]
        for x in range(cat.n_labels):
            for y in range(cat.n_labels):
                X, Y = ObjectExpr.simple(x), ObjectExpr.simple(y)
                Yd = Y.dual(cat)
                idX, idY, idYd = (E.identity(cat, o) for o in (X, Y, Yd))
                lhs = E.compose_all(
                    E.tensor(idY, E.tensor(E.cup_cap(cat, Y, "eval"), idX)),
                    E.tensor(idY, E.tensor(idYd, E.braiding(cat, X, Y))),
                    E.tensor(idY, E.tensor(E.braiding(cat, X, Yd), idY)),
                    E.tensor(E.braiding(cat, X, Y), E.tensor(idYd, idY)),
                    E.tensor(idX, E.tensor(E.cup_cap(cat, Y, "coev"), idY)))
                worst = max(worst, E.distance(lhs, E.braiding(cat, X, Y)))
    ok = worst < EPS_ID
    _report(10, "ribbon-isotopy regression identity on all simple pairs", ok,
            f"max residual {worst:.2e} < 1e-9")
    assert ok
