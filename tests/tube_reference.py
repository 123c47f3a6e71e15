"""Diagrammatic references for the tube algebra, the coupling loops and the
half-braidings of the tautological functor, and for the four transformation
families d, q, b, p.

The package reads the tube algebra's structure constants, the coupling
loop table and F(X [x] Y)'s half-braiding off the F- and R-symbols.  The
builders here evaluate the same numbers as diagrams with the engine's
``tensor``, ``compose``, ``braiding`` and ``cup_cap``, so that the tests
can hold the closed forms against them.  ``tube_module`` realizes the tube
action of a center object by wrapping the loop around it, the reference for
``center._object_from_module``.  ``reference_d`` .. ``reference_p`` build
the four transformations one at a time, each with its own F object and hom
basis, as the reference for the paired builders of ``center``.
``reference_tensoriality`` and ``reference_sort_key`` are the diagram loops
that ``center.verify_center_object`` and the center-simple sort key read
off the half-braiding's channel blocks instead.
"""

import math

import numpy as np

from tcat import engine as E
from tcat.center import (_SORT_DECIMALS, CenterReport, coupling_gamma,
                         functor_F, functor_G, tube_algebra)
from tcat.deligne import DeligneMorphism, pair_morphism, pair_object


def simple(a):
    return E.ObjectExpr.simple(a)


def tube_morphism(cat, a, j, b, c):
    """The tube channel j a -> b j through c."""
    return E.Morphism(cat, E.ObjectExpr.word((j, a)), E.ObjectExpr.word((b, j)),
                      {c: np.ones((1, 1), dtype=complex)})


def tube_structure(cat, basis):
    """Structure constants by stacking annuli: the two loop strands are
    fused through a complete set of splitting trees."""
    N = len(basis)
    index = {q: n for n, q in enumerate(basis)}
    structure = np.zeros((N, N, N), dtype=complex)
    for x, (a1, j1, b1, c1) in enumerate(basis):
        m1 = tube_morphism(cat, a1, j1, b1, c1)
        for y, (a2, j2, b2, c2) in enumerate(basis):
            if b2 != a1:
                continue
            m2 = tube_morphism(cat, a2, j2, b2, c2)
            total = E.compose(E.tensor(m1, E.identity(cat, simple(j2))),
                              E.tensor(E.identity(cat, simple(j1)), m2))
            jj = E.ObjectExpr.word((j1, j2))
            for l in range(cat.n_labels):
                trees = E.word_trees(cat, (j1, j2), l)
                for t in range(len(trees)):
                    vec = np.zeros((len(trees), 1), dtype=complex)
                    vec[t, 0] = 1.0
                    t_in = E.Morphism(cat, simple(l), jj, {l: vec})
                    t_out = E.Morphism(cat, jj, simple(l), {l: vec.T.copy()})
                    res = E.compose_all(
                        E.tensor(E.identity(cat, simple(b1)), t_out), total,
                        E.tensor(t_in, E.identity(cat, simple(a2))))
                    for s in range(cat.n_labels):
                        blk = res.block(s)
                        z = index.get((a2, l, b1, s))
                        if blk.size and z is not None:
                            structure[x, y, z] += blk[0, 0]
    return structure


def close_by_cups(cat, f, X, j, Y):
    """(1 (x) ev'_j) (f (x) 1) (1 (x) coev_j) for f : X (x) j -> Y (x) j."""
    J = simple(j)
    return E.compose_all(
        E.tensor(E.identity(cat, Y), E.cup_cap(cat, J, "eval'")),
        E.tensor(f, E.identity(cat, J.dual(cat))),
        E.tensor(E.identity(cat, X), E.cup_cap(cat, J, "coev")))


def loop_table(cat, i):
    """``{(b, j, a, a2, c): w}``: d_j / D^2 times the sector-b entry of
    close_j((1_i (x) tau) (c_{j,i} (x) 1_a) c_{i a, j}) for every tube
    channel tau : j a -> a2 j through c."""
    si = simple(i)
    out = {}
    for j in range(cat.n_labels):
        sj = simple(j)
        weight = cat.dim(j) / cat.total_dim
        for a in range(cat.n_labels):
            ia = si.tensor(simple(a))
            behind = E.compose(
                E.tensor(E.braiding(cat, sj, si), E.identity(cat, simple(a))),
                E.braiding(cat, ia, sj))
            for c in cat.ring.fusion(j, a):
                for a2 in range(cat.n_labels):
                    if not cat.ring.admissible(a2, j, c):
                        continue
                    ia2 = si.tensor(simple(a2))
                    around = E.compose(
                        E.tensor(E.identity(cat, si),
                                 tube_morphism(cat, a, j, a2, c)), behind)
                    closed = close_by_cups(cat, around, ia, j, ia2)
                    for b, blk in closed.blocks.items():
                        key = (b, j, a, a2, c)
                        out[key] = out.get(key, 0j) + weight * blk[0, 0]
    return out


def slot_half_braiding(cat, X, Y, j):
    """j (x) (X Y) -> (X Y) (x) j: braid through X, reverse-braid through Y."""
    sj = simple(j)
    step1 = E.tensor(E.braiding(cat, sj, X), E.identity(cat, Y))
    step2 = E.tensor(E.identity(cat, X), E.braiding(cat, sj, Y, inverse=True))
    return E.compose(step2, step1)


def functor_f_half_braiding(cat, D):
    """``{j: gamma_j}`` of F(D) for a DelignePair D, slot by slot."""
    if not D.slots:
        zero = E.ObjectExpr.zero()
        return {j: E.zero_morphism(cat, zero, zero) for j in range(cat.n_labels)}
    return {j: E.direct_sum([slot_half_braiding(cat, X, Y, j)
                             for X, Y in D.slots])
            for j in range(cat.n_labels)}


def slot_couplings(cat, obj):
    """The couplings with a non-zero image, in the slot order of G."""
    return [cp for cp in (coupling_gamma(cat, i, obj)
                          for i in range(cat.n_labels))
            if cp.image.summands]


def reference_d(cat, X, Y, basis=None):
    """X [x] Y -> G(F(X [x] Y)): per slot i and basis element phi_l of
    Hom(X, i*), sqrt(d_i) phi_l [x] proj_i (1_i (x) phi^l (x) 1_Y)
    (coev_i (x) 1_Y)."""
    X, Y = E.as_object(X), E.as_object(Y)
    src = pair_object(X, Y)
    fobj = functor_F(cat, src)
    tgt = functor_G(cat, fobj)
    out = DeligneMorphism(cat, src, tgt, {})
    id_Y = E.identity(cat, Y)
    for t_slot, cp in enumerate(slot_couplings(cat, fobj)):
        i = cp.i
        cas = basis(i) if basis is not None else E.hom_basis(cat, X, i)
        if not cas.basis:
            continue
        w = np.sqrt(complex(cat.dim(i)))
        si = E.ObjectExpr.simple(i)
        pre = E.tensor(E.cup_cap(cat, si, "coev"), id_Y)  # Y -> i i* Y
        for phi, phi_dual in zip(cas.basis, cas.dual_basis):
            second = E.compose_all(
                cp.proj,
                E.tensor(E.identity(cat, si), E.tensor(phi_dual, id_Y)),
                pre)
            term = pair_morphism(cat, phi * w, second, source=src, target=tgt,
                                 t_slot=t_slot, s_slot=0)
            out = out + term
    return out


def reference_q(cat, X, Y, basis=None):
    """G(F(X [x] Y)) -> X [x] Y: per slot i and basis element phi_l,
    sqrt(d_i) phi^l [x] (ev'_i (x) 1_Y) (1_i (x) phi_l (x) 1_Y) incl_i."""
    X, Y = E.as_object(X), E.as_object(Y)
    tgt = pair_object(X, Y)
    fobj = functor_F(cat, tgt)
    src = functor_G(cat, fobj)
    out = DeligneMorphism(cat, src, tgt, {})
    id_Y = E.identity(cat, Y)
    for s_slot, cp in enumerate(slot_couplings(cat, fobj)):
        i = cp.i
        cas = basis(i) if basis is not None else E.hom_basis(cat, X, i)
        if not cas.basis:
            continue
        w = np.sqrt(complex(cat.dim(i)))
        si = E.ObjectExpr.simple(i)
        post = E.tensor(E.cup_cap(cat, si, "eval'"), id_Y)  # i i* Y -> Y
        for phi, phi_dual in zip(cas.basis, cas.dual_basis):
            second = E.compose_all(
                post,
                E.tensor(E.identity(cat, si), E.tensor(phi, id_Y)),
                cp.incl)
            term = pair_morphism(cat, phi_dual * w, second, source=src,
                                 target=tgt, t_slot=0, s_slot=s_slot)
            out = out + term
    return out


def reference_b(cat, obj):
    """(X, gamma) -> F(G(X, gamma)): the slots' sqrt(d_i)
    (1_{i*} (x) proj_i) (coev'_i (x) 1_X), stacked."""
    parts = []
    for cp in slot_couplings(cat, obj):
        i = cp.i
        w = np.sqrt(complex(cat.dim(i)))
        si = E.ObjectExpr.simple(i)
        sid = E.ObjectExpr.simple(cat.dual[i])
        m = E.compose_all(
            E.tensor(E.identity(cat, sid), cp.proj),
            E.tensor(E.cup_cap(cat, si, "coev'"), E.identity(cat, obj.X)))
        parts.append(m * w)
    if not parts:
        return E.zero_morphism(cat, obj.X, E.ObjectExpr.zero())
    tgt = E.ObjectExpr.direct_sum([m.target for m in parts])
    blocks = {k: np.vstack([m.block(k) for m in parts])
              for k in range(cat.n_labels)
              if obj.X.dim_sector(cat, k) and tgt.dim_sector(cat, k)}
    return E.Morphism(cat, obj.X, tgt, blocks)


def reference_p(cat, obj):
    """F(G(X, gamma)) -> (X, gamma): the slots' sqrt(d_i)
    (ev_i (x) 1_X) (1_{i*} (x) incl_i), side by side."""
    parts = []
    for cp in slot_couplings(cat, obj):
        i = cp.i
        w = np.sqrt(complex(cat.dim(i)))
        si = E.ObjectExpr.simple(i)
        sid = E.ObjectExpr.simple(cat.dual[i])
        m = E.compose_all(
            E.tensor(E.cup_cap(cat, si, "eval"), E.identity(cat, obj.X)),
            E.tensor(E.identity(cat, sid), cp.incl))
        parts.append(m * w)
    if not parts:
        return E.zero_morphism(cat, E.ObjectExpr.zero(), obj.X)
    src = E.ObjectExpr.direct_sum([m.source for m in parts])
    blocks = {k: np.hstack([m.block(k) for m in parts])
              for k in range(cat.n_labels)
              if obj.X.dim_sector(cat, k) and src.dim_sector(cat, k)}
    return E.Morphism(cat, src, obj.X, blocks)


def associativity_residual(alg):
    """max |L_{xy} - L_x L_y| over pairs of basis elements."""
    eye = np.eye(alg.dim)
    lefts = [alg.left_mult(e) for e in eye]
    worst = 0.0
    for x in range(alg.dim):
        for y in range(alg.dim):
            xy = alg.multiply(eye[x], eye[y])
            worst = max(worst, float(np.abs(
                alg.left_mult(xy) - lefts[x] @ lefts[y]).max()))
    return worst


def tube_action(cat, X, gamma_inv_j, a, j, b, c):
    """Matrix of the tube element (a, j, b, c) on Hom(X, a) -> Hom(X, b).

    The j-loop is wrapped around the X strand through the inverse
    half-braiding and closed by a cup and a cap.
    """
    da, db = X.dim_sector(cat, a), X.dim_sector(cat, b)
    sj, sjd = simple(j), simple(cat.dual[j])
    sa, sb = simple(a), simple(b)
    tau = E.Morphism(cat, sj.tensor(sa), sb.tensor(sj),
                     {c: np.ones((1, 1), dtype=complex)})
    pre = E.compose(E.tensor(gamma_inv_j, E.identity(cat, sjd)),
                    E.tensor(E.identity(cat, X), E.cup_cap(cat, sj, "coev")))
    post = E.compose(E.tensor(E.identity(cat, sb), E.cup_cap(cat, sj, "eval'")),
                     E.tensor(tau, E.identity(cat, sjd)))
    mat = np.zeros((db, da), dtype=complex)
    for col in range(da):
        eta_blk = np.zeros((1, da), dtype=complex)
        eta_blk[0, col] = 1.0
        eta = E.Morphism(cat, X, sa, {a: eta_blk})
        res = E.compose_all(
            post,
            E.tensor(E.identity(cat, sj), E.tensor(eta, E.identity(cat, sjd))),
            pre)
        mat[:, col] = res.block(b).ravel()
    return mat


def tube_module(cat, obj):
    """The tube-algebra module carried by a center object: one matrix on
    the graded spaces Hom(X, a) per algebra basis quadruple."""
    alg = tube_algebra(cat)
    ginv = {j: E.Morphism(cat, g.target, g.source,
                          {k: np.linalg.inv(b) for k, b in g.blocks.items()})
            for j, g in obj.gamma.items()}
    out = {}
    for (a, j, b, c) in alg.basis:
        if obj.X.dim_sector(cat, a) and obj.X.dim_sector(cat, b):
            out[(a, j, b, c)] = tube_action(cat, obj.X, ginv[j], a, j, b, c)
    return out


def reference_tensoriality(cat, obj):
    """The half-braiding axioms through the engine's diagrams.

    Per pair of simples (j, k), stacking the crossings,
    (gamma_j (x) 1_k)(1_j (x) gamma_k), must equal resolving j k through
    every fusion channel m and crossing with gamma_m; the residual is the
    largest distance over (j, k).
    """
    X, gamma = obj.X, obj.gamma
    eps = cat.tol.eps_identity
    id_X = E.identity(cat, X)
    unit_res = E.distance(gamma[0], id_X)
    worst = 0.0
    for j in range(cat.n_labels):
        sj = E.ObjectExpr.simple(j)
        for k in range(cat.n_labels):
            sk = E.ObjectExpr.simple(k)
            stacked = E.compose(
                E.tensor(gamma[j], E.identity(cat, sk)),
                E.tensor(E.identity(cat, sj), gamma[k]))
            jk = sj.tensor(sk)
            resolved = E.zero_morphism(cat, jk.tensor(X), X.tensor(jk))
            for m in range(cat.n_labels):
                if not cat.ring.admissible(j, k, m):
                    continue
                tree_in = E.Morphism(cat, E.ObjectExpr.simple(m), jk,
                                     {m: np.ones((1, 1), dtype=complex)})
                tree_out = E.Morphism(cat, jk, E.ObjectExpr.simple(m),
                                      {m: np.ones((1, 1), dtype=complex)})
                resolved = resolved + E.compose_all(
                    E.tensor(id_X, tree_in), gamma[m],
                    E.tensor(tree_out, id_X))
            worst = max(worst, E.distance(stacked, resolved))
    cond = 1.0
    for j in range(cat.n_labels):
        for k, b in gamma[j].blocks.items():
            if b.size:
                cond = max(cond, float(np.linalg.cond(b)))
    ok = unit_res < eps and worst < eps and math.isfinite(cond)
    return CenterReport(unit_residual=unit_res, tensoriality_residual=worst,
                        max_condition=cond, ok=ok)


def reference_sort_key(cat, obj):
    """Sector dimensions and the rounded quantum traces of
    gamma_j o c_{X,j}, drawn with the engine's braiding and cups."""
    dims_sig = tuple(obj.X.dim_sector(cat, a) for a in range(cat.n_labels))
    finger = []
    for j in range(cat.n_labels):
        sj = E.ObjectExpr.simple(j)
        m = E.compose(obj.gamma[j], E.braiding(cat, obj.X, sj))
        v = E.quantum_trace(cat, m)
        finger.append((round(v.real, _SORT_DECIMALS),
                       round(v.imag, _SORT_DECIMALS)))
    return (dims_sig, tuple(finger))
