"""Category data: schema, catalog, validation, quantum dimensions."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from tcat import (InvalidCategoryError, SchemaError, UnknownCategoryError,
                  catalog, catalog_names, global_dim, loads_category, quantum_dim, serialize_category,
                  validate)
from tcat.category import (CategoryData, FSymbolTable, ToleranceCfg, _fold,
                           category_from_dict, category_to_dict)
from tcat.engine import ObjectExpr
from tcat.modularity import is_modular

from conftest import (ALL_NAMES, input_doc, nonassociative_doc, su2_doc,
                      vec_zn_doc)

PHI = (1 + math.sqrt(5)) / 2


def test_catalog_names_contains_required_entries():
    names = catalog_names()
    for required in ["trivial", "fibonacci", "ising", "semion", "vec_z2_sym",
                     "vec_z3_modular"]:
        assert required in names


def test_unknown_catalog_name_lists_available():
    with pytest.raises(UnknownCategoryError) as err:
        catalog("does-not-exist")
    assert "fibonacci" in str(err.value)


def test_trivial_category_shape(cats):
    cat = cats["trivial"]
    assert cat.n_labels == 1
    assert cat.dual == (0,)
    assert complex(cat.total_dim) == pytest.approx(1.0)


def test_serialize_load_round_trip_bit_identical(cats):
    cat = cats["fibonacci"]
    text = serialize_category(cat)
    again = loads_category(text)
    assert again.name == cat.name
    assert again.dual == cat.dual
    assert again.f.entries == cat.f.entries  # exact float equality
    assert again.r.entries == cat.r.entries
    assert again.piv.t == cat.piv.t
    assert serialize_category(again) == text


def test_round_trip_every_catalog_entry(cats):
    for cat in cats.values():
        text = serialize_category(cat)
        again = loads_category(text)
        assert again.f.entries == cat.f.entries
        assert again.r.entries == cat.r.entries


def test_loader_rejects_non_self_dual_unit(cats):
    doc = category_to_dict(cats["semion"])
    doc["dual"] = [1, 0]
    with pytest.raises(SchemaError, match="unit must be self-dual"):
        category_from_dict(doc)


def test_loader_rejects_missing_key(cats):
    doc = category_to_dict(cats["semion"])
    del doc["pivotal"]
    with pytest.raises(SchemaError, match="pivotal"):
        category_from_dict(doc)


def test_loader_rejects_unknown_key(cats):
    doc = category_to_dict(cats["semion"])
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="extra"):
        category_from_dict(doc)


def test_loader_rejects_ragged_fusion(cats):
    doc = category_to_dict(cats["semion"])
    doc["fusion"] = doc["fusion"] + [[0, 1]]
    with pytest.raises(SchemaError, match="fusion"):
        category_from_dict(doc)


def test_loader_requires_identity_forced_f_entries(cats):
    doc = category_to_dict(cats["semion"])
    doc["F"] = [rec for rec in doc["F"]
                if not (rec["a"] == 0 and rec["b"] == 1 and rec["c"] == 1)]
    with pytest.raises(SchemaError, match="identity-forced"):
        category_from_dict(doc)


def test_loader_requires_identity_forced_r_entries(cats):
    doc = category_to_dict(cats["semion"])
    doc["R"] = [rec for rec in doc["R"] if rec["a"] != 0]
    with pytest.raises(SchemaError, match="identity-forced"):
        category_from_dict(doc)


@pytest.mark.parametrize("key", [(1, 1, 1, 1, 1, 0), (1, 1, 1, 1, 0, 2)],
                         ids=["off_fusion_rules", "out_of_range"])
def test_loader_rejects_non_admissible_f_record(cats, key):
    doc = category_to_dict(cats["semion"])
    doc["F"].append(dict(zip("abcdef", key), re=1.0, im=0.0))
    with pytest.raises(SchemaError, match="key 'F' has a record off"):
        category_from_dict(doc)


def test_loader_rejects_non_admissible_r_record(cats):
    doc = category_to_dict(cats["semion"])
    doc["R"].append({"a": 1, "b": 1, "c": 1, "re": 1.0, "im": 0.0})
    with pytest.raises(SchemaError, match="key 'R' has a record off"):
        category_from_dict(doc)


def test_loader_rejects_zero_r_symbol(cats):
    doc = category_to_dict(cats["semion"])
    for rec in doc["R"]:
        if (rec["a"], rec["b"], rec["c"]) == (1, 1, 0):
            rec["re"] = rec["im"] = 0.0
    with pytest.raises(SchemaError, match="zero braiding eigenvalue"):
        category_from_dict(doc)


def _drop(key, keep):
    def edit(doc):
        doc[key] = [rec for rec in doc[key] if keep(rec)]
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
    return edit


# edits of vec_z3_modular (duals 1 <-> 2), one per refusal of the loader
LOADER_REFUSALS = {
    "not_a_mapping": (None, "must be a mapping"),
    "no_labels": (_set("labels", []), "at least the tensor unit"),
    "dual_length": (_set("dual", [0, 2]), "'dual' must have length 3, got 2"),
    "dual_out_of_range": (_set("dual", [0, 2, 3]), "out-of-range label id"),
    "dual_not_involution": (_set("dual", [0, 2, 2]),
                            "not an involution at label 1"),
    "fusion_out_of_range": (lambda doc: doc["fusion"].append([1, 1, 3]),
                            r"out-of-range ids in \[1, 1, 3\]"),
    "fusion_unit_axiom": (_drop("fusion", lambda t: t != [0, 1, 1]),
                          r"violates the unit axiom at labels \(1,1\)"),
    "fusion_against_dual": (_set("dual", [0, 1, 2]),
                            r"inconsistent with key 'dual' at labels \(1,1\)"),
    "r_right_unit": (_drop("R", lambda r: (r["a"], r["b"]) != (1, 0)),
                     r"identity-forced entry \{a:1,b:0,c:1\}"),
    "pivotal_labels": (_drop("pivotal", lambda r: r["i"] != 2),
                       r"'pivotal' is missing labels \[2\]"),
}


@pytest.mark.parametrize("case", LOADER_REFUSALS)
def test_loader_refuses_malformed_structure(cats, case):
    edit, message = LOADER_REFUSALS[case]
    doc = category_to_dict(cats["vec_z3_modular"])
    if edit is None:
        doc = [doc]
    else:
        edit(doc)
    with pytest.raises(SchemaError, match=message):
        category_from_dict(doc)


def test_loader_rejects_zero_pivotal_coefficient(cats):
    doc = category_to_dict(cats["semion"])
    doc["pivotal"][1]["re"] = 0.0
    with pytest.raises(SchemaError, match="zero coefficient"):
        category_from_dict(doc)


MALFORMED = {
    "f_value": lambda d: d["F"][0].update(re="abc"),
    "r_value": lambda d: d["R"][0].update(re="abc"),
    "pivotal_value": lambda d: d["pivotal"][0].update(re="abc"),
    "tolerance_value": lambda d: d.update(tolerances={"identity": "x"}),
    "fusion_id": lambda d: d["fusion"].append([1, "a", 1]),
    "dual_id": lambda d: d.update(dual=[0, "x"]),
    "tolerances_list": lambda d: d.update(tolerances=[1]),
    "f_not_a_list": lambda d: d.update(F=5),
    "pivotal_negative_label": lambda d: d["pivotal"].append(
        {"i": -1, "re": 2.0, "im": 0.0}),
    "fractional_label": lambda d: d["R"][0].update(a=0.5),
    "infinite_label": lambda d: d["F"][0].update(a=float("inf")),
    "fusion_string": lambda d: d["fusion"].append("110"),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_loader_reports_every_malformed_document(cats, edit):
    # a value of the wrong type, or a label outside 0..n-1 (-1 would index
    # the last label), is a schema error, which the CLI reports with exit 2
    doc = category_to_dict(cats["fibonacci"])
    edit(doc)
    with pytest.raises(SchemaError):
        category_from_dict(doc)


def test_loader_rejects_a_zero_quantum_dimension(cats):
    # JSON reads F(tau,tau,tau,tau; 0,0) = 1e309 as inf, so coev(tau) is 0
    text = serialize_category(cats["fibonacci"])
    doc = json.loads(text)
    for rec in doc["F"]:
        if [rec[x] for x in "abcdef"] == [1, 1, 1, 1, 0, 0]:
            rec["re"] = "INF"
    text = json.dumps(doc).replace('"INF"', "1e309")
    with pytest.raises(InvalidCategoryError, match="label 'tau'"):
        loads_category(text)


def test_loader_rejects_an_infinite_pivotal_coefficient(cats):
    # JSON reads 1e309 as inf, so the quantum dimension of tau is infinite
    doc = json.loads(serialize_category(cats["fibonacci"]))
    for rec in doc["pivotal"]:
        if rec["i"] == 1:
            rec["re"] = "INF"
    text = json.dumps(doc).replace('"INF"', "1e309")
    with pytest.raises(InvalidCategoryError, match="label 'tau' is inf"):
        loads_category(text)


def test_loader_rejects_a_repeated_fusion_triple(cats):
    doc = category_to_dict(cats["fibonacci"])
    doc["fusion"].append([1, 1, 1])
    with pytest.raises(SchemaError, match=r"triple \[1, 1, 1\] twice"):
        category_from_dict(doc)


def test_tolerance_invariant():
    with pytest.raises(SchemaError):
        ToleranceCfg(eps_structural=1e-8, eps_identity=1e-10)
    with pytest.raises(SchemaError):
        ToleranceCfg(eps_structural=0.0)


def test_dual_is_involution_with_nontrivial_duals(cats):
    cat = cats["vec_z3_modular"]
    assert cat.dual == (0, 2, 1)


# -- validation ---------------------------------------------------------

def test_validate_passes_every_catalog_entry(cats):
    for name, cat in cats.items():
        report = validate(cat)
        assert report.ok, f"{name}: {[(e.name, e.value) for e in report.entries]}"
        for key in ("pentagon", "hexagon_forward", "hexagon_reverse",
                    "sphericality"):
            assert report.residual(key) < 1e-10


@pytest.mark.parametrize("k, so3, pivotal_sign", [
    (2, False, 1), (2, False, -1), (3, False, 1), (3, False, -1),
    (4, False, 1), (4, False, -1), (4, True, 1), (5, True, 1), (6, True, 1)])
def test_validate_passes_q_racah_inputs(k, so3, pivotal_sign):
    # SU(2)_k with either pivotal sign and SO(3)_k from the q-Racah formula;
    # SO(3)_k at even k has the transparent simple j = k/2, so it is
    # premodular and not modular
    cat = category_from_dict(su2_doc(k, so3, pivotal_sign))
    report = validate(cat)
    assert report.ok, [(e.name, e.value) for e in report.entries]
    for key in ("pentagon", "hexagon_forward", "hexagon_reverse",
                "sphericality"):
        assert report.residual(key) < 1e-10
    assert is_modular(cat).modular is not (so3 and k % 2 == 0)


def test_validate_trivial_residuals_exactly_zero(cats):
    report = validate(cats["trivial"])
    for key in ("pentagon", "hexagon_forward", "hexagon_reverse",
                "unit_duality", "sphericality", "zigzag"):
        assert report.residual(key) == 0.0


def test_perturbed_f_symbol_fails_pentagon(cats):
    cat = cats["fibonacci"]
    entries = dict(cat.f.entries)
    entries[(1, 1, 1, 1, 0, 0)] += 1e-3
    broken = CategoryData(name="broken", labels=cat.labels, dual=cat.dual,
                          ring=cat.ring, f=FSymbolTable(cat.ring, entries),
                          r=cat.r, piv=cat.piv, tol=cat.tol)
    report = validate(broken)
    assert not report.ok
    assert report.residual("pentagon") >= 1e-4


def _fibonacci_with_nan(cats, table, key):
    """The serialized fibonacci with the real part of one F or R record NaN."""
    doc = category_to_dict(cats["fibonacci"])
    legs = "abcdef" if table == "F" else "abc"
    for rec in doc[table]:
        if tuple(rec[k] for k in legs) == key:
            rec["re"] = math.nan
    return category_from_dict(doc)


def test_residual_fold_keeps_nan():
    assert _fold(1.0, 2.0) == 2.0 and _fold(2.0, 1.0) == 2.0
    assert math.isnan(_fold(1.0, math.nan))
    assert math.isnan(_fold(math.nan, 1.0))


def test_nan_r_symbol_fails_both_hexagons(cats):
    report = validate(_fibonacci_with_nan(cats, "R", (1, 1, 1)))
    assert not report.ok
    for name in ("hexagon_forward", "hexagon_reverse"):
        assert math.isnan(report.residual(name))


def test_nan_f_symbol_fails_pentagon(cats):
    report = validate(_fibonacci_with_nan(cats, "F", (1, 1, 1, 1, 1, 1)))
    assert not report.ok
    assert math.isnan(report.residual("pentagon"))


def _trees_by_scan(ring):
    """Every F-tree with its rows and columns, by scanning all n^4 trees."""
    n, N = ring.n_labels, ring.N
    out = {}
    for a, b, c, d in itertools.product(range(n), repeat=4):
        rows = tuple(e for e in range(n) if N[a, b, e] and N[e, c, d])
        cols = tuple(f for f in range(n) if N[b, c, f] and N[a, f, d])
        if rows or cols:
            out[(a, b, c, d)] = (rows, cols)
    return out


@pytest.mark.parametrize("name", ALL_NAMES + [
    "su2_3", "so3_6", "vec_z5_k1", "fibonacci*semion", "nonassociative"])
def test_fusion_trees_match_a_scan_of_every_tree(cats, name):
    doc = (nonassociative_doc() if name == "nonassociative"
           else input_doc(cats, name))
    ring = category_from_dict(doc).ring
    trees = ring.trees()
    assert trees == _trees_by_scan(ring)
    assert list(trees) == sorted(trees)


def test_non_associative_ring_has_a_non_square_f_matrix():
    # (x x) y = 2 y but x (x y) = y: the tree (x, x, y) -> y has two rows
    # and one column, so it has no inverse and f_condition reads inf
    cat = category_from_dict(nonassociative_doc())
    assert cat.ring.trees()[(1, 1, 2, 2)] == ((0, 1), (2,))
    with pytest.raises(InvalidCategoryError,
                       match=re.escape("F-matrix for (1, 1, 2, 2) is not "
                                       "square: (2, 1)")):
        cat.f.inverse(1, 1, 2, 2)
    report = validate(cat)
    assert report.residual("f_condition") == math.inf
    assert not report.ok


# -- quantum dimensions -------------------------------------------------

def test_quantum_dim_unit_is_one(cats):
    for cat in cats.values():
        assert quantum_dim(cat, ObjectExpr.unit()) == pytest.approx(1.0)


def test_quantum_dim_fibonacci_tau_is_golden_ratio(cats):
    # the loop value must solve d^2 = d + 1 with the positive root
    d = quantum_dim(cats["fibonacci"], ObjectExpr.simple(1))
    assert d == pytest.approx(PHI, abs=1e-12)
    assert d.real ** 2 == pytest.approx(d.real + 1.0, abs=1e-12)


def test_quantum_dim_invertible_object(cats):
    assert quantum_dim(cats["vec_z2_sym"], ObjectExpr.simple(1)) == \
        pytest.approx(1.0)


def test_quantum_dim_respects_duality(cats):
    for cat in cats.values():
        for i in range(cat.n_labels):
            di = quantum_dim(cat, ObjectExpr.simple(i))
            dd = quantum_dim(cat, ObjectExpr.simple(cat.dual[i]))
            assert di == pytest.approx(dd, abs=1e-9)


def test_quantum_dim_additive_and_multiplicative(cats):
    cat = cats["ising"]
    word = quantum_dim(cat, ObjectExpr.word((1, 1)))
    assert word == pytest.approx(2.0, abs=1e-9)  # sqrt(2)^2
    total = quantum_dim(cat, ObjectExpr.direct_sum(
        [ObjectExpr.simple(1), ObjectExpr.word((1, 2))]))
    assert total == pytest.approx(math.sqrt(2) + math.sqrt(2), abs=1e-9)


def test_global_dim_examples(cats):
    assert global_dim(cats["trivial"]) == pytest.approx(1.0)
    assert global_dim(cats["fibonacci"]) == pytest.approx((5 + math.sqrt(5)) / 2,
                                                          abs=1e-12)
    assert global_dim(cats["ising"]) == pytest.approx(4.0, abs=1e-12)


def test_global_dim_at_least_one_on_catalog(cats):
    for cat in cats.values():
        assert complex(global_dim(cat)).real >= 1.0 - 1e-9


def test_derived_twists(cats):
    assert complex(cats["semion"].piv.twists[1]) == pytest.approx(1j)
    assert complex(cats["ising"].piv.twists[1]) == pytest.approx(
        np.exp(1j * np.pi / 8))
    assert complex(cats["ising"].piv.twists[2]) == pytest.approx(-1.0)
    assert complex(cats["fibonacci"].piv.twists[1]) == pytest.approx(
        np.exp(4j * np.pi / 5))
    for cat in cats.values():
        assert complex(cat.piv.twists[0]) == pytest.approx(1.0)


def test_semion_catalog_modular_data(cats):
    cat = cats["semion"]
    assert cat.r.get(1, 1, 0) == pytest.approx(1j)
    assert validate(cat).ok


def test_serialized_document_parses_as_json(cats):
    doc = json.loads(serialize_category(cats["ising"]))
    assert set(doc) == {"name", "labels", "dual", "fusion", "F", "R",
                        "pivotal", "tolerances"}


def test_sphericality_checks_every_label():
    assert validate(category_from_dict(vec_zn_doc(9))).ok
    # t_8 = 2 breaks sphericality at the highest label: d_8 = 2, d_{8*} = 1
    report = validate(category_from_dict(vec_zn_doc(9, pivotal={8: 2.0})))
    entry = next(e for e in report.entries if e.name == "sphericality")
    assert entry.value == 1.0
    assert entry.value >= entry.threshold
    assert not report.ok


def test_dimension_character_rejects_non_monoidal_pivotal():
    assert validate(category_from_dict(vec_zn_doc(11))).ok
    # t_1 = -1 gives dim(1) = -1 but dim(10) = dim(1*) = +1, so
    # dim(1) dim(10) = -1 != dim(0), and |dim(1) - dim(1*)| = 2 is not
    # spherical: every other residual still reads zero
    report = validate(category_from_dict(vec_zn_doc(11, pivotal={1: -1.0})))
    assert report.residual("dimension_character") == pytest.approx(2.0)
    assert report.residual("sphericality") == 2.0
    assert [e.name for e in report.entries if not e.ok] == [
        "sphericality", "dimension_character"]
