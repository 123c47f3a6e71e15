"""S-matrix, modularity verdicts, and transparent objects."""

import math

import numpy as np
import pytest

from tcat.category import category_from_dict, category_to_dict
from tcat.modularity import double_braiding, is_modular, muger_center, s_matrix
from tcat import engine as E

from conftest import ALL_NAMES, vec_zn_doc
from test_center import _table_input

PHI = (1 + math.sqrt(5)) / 2


def test_s_matrix_trivial(cats):
    S = s_matrix(cats["trivial"])
    assert np.allclose(S.entries, [[1.0]])
    assert S.rank == 1


def test_s_matrix_semion(cats):
    S = s_matrix(cats["semion"])
    assert np.allclose(S.entries, [[1, 1], [1, -1]], atol=1e-12)
    assert S.rank == 2


def test_s_matrix_vec_z2_sym_rank_one(cats):
    S = s_matrix(cats["vec_z2_sym"])
    assert np.allclose(S.entries, [[1, 1], [1, 1]], atol=1e-12)
    assert S.rank == 1


def test_s_matrix_fibonacci_entries(cats):
    S = s_matrix(cats["fibonacci"])
    assert np.allclose(S.entries, [[1, PHI], [PHI, -1]], atol=1e-10)


def test_s_matrix_ising_entries(cats):
    r2 = math.sqrt(2)
    S = s_matrix(cats["ising"])
    assert np.allclose(S.entries,
                       [[1, r2, 1], [r2, 0, -r2], [1, -r2, 1]], atol=1e-10)


def test_s_matrix_first_row_is_dims(cats):
    for cat in cats.values():
        S = s_matrix(cat)
        for i in range(cat.n_labels):
            assert S.entries[0, i] == pytest.approx(complex(cat.dim(i)),
                                                    abs=1e-10)
        assert S.entries[0, 0] == pytest.approx(1.0)


def test_s_matrix_symmetry(cats):
    for cat in cats.values():
        S = s_matrix(cat).entries
        assert np.allclose(S, S.T, atol=1e-10)


def test_is_modular_verdicts(cats):
    assert is_modular(cats["trivial"]).modular
    assert is_modular(cats["fibonacci"]).modular
    assert is_modular(cats["semion"]).modular
    assert is_modular(cats["ising"]).modular
    assert is_modular(cats["vec_z3_modular"]).modular
    verdict = is_modular(cats["vec_z2_sym"])
    assert not verdict.modular
    assert verdict.rank == 1
    assert verdict.det_abs == pytest.approx(0.0, abs=1e-10)


def test_muger_center_trivial_cases(cats):
    assert muger_center(cats["trivial"]).transparent == [0]
    assert muger_center(cats["fibonacci"]).transparent == [0]
    assert muger_center(cats["semion"]).transparent == [0]


def test_muger_center_vec_z2_sym_fully_transparent(cats):
    rep = muger_center(cats["vec_z2_sym"])
    assert rep.transparent == [0, 1]
    assert rep.s_row_consistent


def test_muger_monodromy_defect_values(cats):
    rep = muger_center(cats["fibonacci"])
    assert rep.monodromy_defects[0] < 1e-12
    assert rep.monodromy_defects[1] > 0.5


def test_muger_center_flags_s_rows_on_a_non_monoidal_pivotal():
    # t_2 = -1 on Vec_Z4 fails validate (dimension_character): the
    # monodromies still make 0 and 2 transparent, but the S-matrix rows,
    # which use the inconsistent dimensions, disagree with them
    rep = muger_center(category_from_dict(vec_zn_doc(4, 1, {2: -1.0})))
    assert rep.transparent == [0, 2]
    assert rep.s_row_consistent is False


def test_unit_always_transparent(cats):
    for cat in cats.values():
        rep = muger_center(cat)
        assert 0 in rep.transparent
        assert rep.s_row_consistent


def test_characterization_modular_iff_trivial_muger(cats):
    for cat in cats.values():
        modular = is_modular(cat).modular
        assert modular == (muger_center(cat).transparent == [0])


@pytest.mark.parametrize("name", ALL_NAMES + [
    "ising#2", "fibonacci@5", "vec_z3_modular#12", "su2_3", "su2_3_signed",
    "so3_5", "so3_6", "fibonacci*semion", "vec_z2_sym*fibonacci"])
def test_double_braiding_cross_module_consistency(cats, name):
    # the diagrams the closed forms stand for: the trace and the identity
    # defect of c_{Y,X} c_{X,Y}, drawn through the engine's braidings
    cat = _table_input(cats, name)
    S, rep = s_matrix(cat).entries, muger_center(cat)
    n = cat.n_labels
    drawn = [[double_braiding(cat, x, y) for y in range(n)] for x in range(n)]
    traces = np.array([[E.quantum_trace(cat, m) for m in row] for row in drawn])
    assert np.abs(traces - S).max() <= 1e-12 * np.abs(S).max()
    defects = [max(E.defect_from_identity(m) for m in row) for row in drawn]
    assert np.abs(np.subtract(defects, rep.monodromy_defects)).max() <= 1e-15
    eps = cat.tol.eps_identity
    assert [x for x in range(n) if defects[x] < eps] == rep.transparent


def test_modularity_draws_no_diagram(cats, monkeypatch):
    # the S-matrix and the monodromies are read off the R-symbols and the
    # dimensions of a fresh category: no trace, braiding, cup, cap or tensor
    cat = category_from_dict(category_to_dict(cats["ising"]))

    def refused(*args, **kwargs):
        raise AssertionError("a diagram was drawn")

    for name in ("quantum_trace", "braiding", "cup_cap", "tensor"):
        monkeypatch.setattr(E, name, refused)
    assert s_matrix(cat).rank == 3
    assert is_modular(cat).modular
    assert muger_center(cat).transparent == [0]


def test_s_matrix_built_once_and_read_only(cats):
    # a fresh instance, so no other test's cache entry is seen
    cat = category_from_dict(category_to_dict(cats["ising"]))
    S = s_matrix(cat)
    assert s_matrix(cat) is S
    with pytest.raises(ValueError):
        S.entries[0, 0] = 0.0
