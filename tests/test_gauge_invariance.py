"""Gauge invariance: a vertex gauge and a relabeling of the simples give an
equivalent category, so nothing the package reports may change."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tcat.category import category_from_dict, category_to_dict
from tcat.center import invertibility_report

from test_center import _phase_gauge, _vec_zn_doc

# the modular entries, a symmetric one and Vec_Z4 with R = i^ab (premodular)
NAMES = ["fibonacci", "ising", "vec_z3_modular", "vec_z2_sym", "vec_z4_k1"]
_REFERENCE = {}


def _doc(cats, name):
    if name == "vec_z4_k1":
        return _vec_zn_doc(4, 1)
    return category_to_dict(cats[name])


def _relabel(doc, perm):
    """Relabel simple ``a`` as ``perm[a]``; names move with their objects."""
    p = perm
    labels, dual = [None] * len(p), [None] * len(p)
    for a, label in enumerate(doc["labels"]):
        labels[p[a]] = label
        dual[p[a]] = p[doc["dual"][a]]
    return dict(
        doc, labels=labels, dual=dual,
        fusion=sorted([p[i], p[j], p[k]] for i, j, k in doc["fusion"]),
        F=[dict(r, **{x: p[r[x]] for x in "abcdef"}) for r in doc["F"]],
        R=[dict(r, **{x: p[r[x]] for x in "abc"}) for r in doc["R"]],
        pivotal=[dict(r, i=p[r["i"]]) for r in doc["pivotal"]])


def _invariants(cat):
    """S-matrix rank, sorted twists, center count, verdict and the four
    defects at max_word_length=1."""
    rep = invertibility_report(cat, max_word_length=1)
    twists = sorted(cat.piv.twists,
                    key=lambda t: (round(t.real, 6), round(t.imag, 6)))
    defects = (rep.defect_qd, rep.defect_dq, rep.defect_pb, rep.defect_bp)
    return (rep.rank_s, rep.center_count, rep.factorizable), twists, defects


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_reports_survive_vertex_gauge_and_relabeling(cats, name, seed, data):
    doc = _doc(cats, name)
    if name not in _REFERENCE:
        _REFERENCE[name] = _invariants(category_from_dict(doc))
    counts, twists, defects = _REFERENCE[name]
    rest = data.draw(st.permutations(range(1, len(doc["labels"]))))
    gauged = _relabel(_phase_gauge(doc, seed), [0] + list(rest))
    g_counts, g_twists, g_defects = _invariants(category_from_dict(gauged))
    assert g_counts == counts
    assert np.abs(np.array(g_twists) - np.array(twists)).max() < 1e-9
    assert np.abs(np.array(g_defects) - np.array(defects)).max() < 1e-9
