"""Gauge invariance: a vertex gauge and a relabeling of the simples give an
equivalent category, so nothing the package reports may change, except
|b o p - id| on a premodular input under a non-unitary gauge: that norm is
not a gauge invariant there (it moves from 1 to between 1.8 and 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcat.category import category_from_dict
from tcat.center import invertibility_report

from conftest import input_doc, phase_gauge

# the modular entries, a symmetric one and Vec_Z4 with R = i^ab (premodular)
NAMES = ["fibonacci", "ising", "vec_z3_modular", "vec_z2_sym", "vec_z4_k1"]
# q-Racah inputs ("_signed": pivotal coefficients (-1)^{2j}) and a Deligne
# product; SO(3)_4, SO(3)_6 and vec_z2_sym*fibonacci are premodular
BEYOND_CATALOG = ["su2_2", "su2_2_signed", "su2_3", "su2_3_signed", "su2_4",
                  "su2_4_signed", "so3_4", "so3_6", "vec_z2_sym*fibonacci"]
_REFERENCE = {}


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
    """S-matrix rank, center count, both verdicts, sorted twists and the
    four defects at max_word_length=1."""
    rep = invertibility_report(cat, max_word_length=1)
    twists = sorted(cat.piv.twists,
                    key=lambda t: (round(t.real, 6), round(t.imag, 6)))
    defects = (rep.defect_qd, rep.defect_dq, rep.defect_pb, rep.defect_bp)
    counts = (rep.rank_s, rep.center_count, rep.modular, rep.factorizable)
    return counts, twists, defects


def _reference(cats, name):
    if name not in _REFERENCE:
        doc = input_doc(cats, name)
        _REFERENCE[name] = _invariants(category_from_dict(doc))
    return _REFERENCE[name]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_reports_survive_vertex_gauge_and_relabeling(cats, name, seed, data):
    doc = input_doc(cats, name)
    counts, twists, defects = _reference(cats, name)
    rest = data.draw(st.permutations(range(1, len(doc["labels"]))))
    gauged = _relabel(phase_gauge(doc, seed), [0] + list(rest))
    g_counts, g_twists, g_defects = _invariants(category_from_dict(gauged))
    assert g_counts == counts
    assert np.abs(np.array(g_twists) - np.array(twists)).max() < 1e-9
    assert np.abs(np.array(g_defects) - np.array(defects)).max() < 1e-9


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("modulus", [False, True], ids=["phase", "modulus"])
@pytest.mark.parametrize("name", BEYOND_CATALOG)
def test_reports_survive_gauge_beyond_catalog(cats, name, modulus, seed):
    doc = input_doc(cats, name)
    counts, twists, defects = _reference(cats, name)
    rng = np.random.default_rng(seed)
    perm = [0] + list(1 + rng.permutation(len(doc["labels"]) - 1))
    gauged = _relabel(phase_gauge(doc, seed, modulus=modulus), perm)
    g_counts, g_twists, g_defects = _invariants(category_from_dict(gauged))
    assert g_counts == counts
    assert np.abs(np.array(g_twists) - np.array(twists)).max() < 1e-9
    # defect_bp, the last, only where it is gauge invariant (counts[2]: modular)
    kept = 4 if counts[2] or not modulus else 3
    assert np.abs(np.array(g_defects[:kept])
                  - np.array(defects[:kept])).max() < 1e-9
