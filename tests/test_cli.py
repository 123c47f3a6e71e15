"""Command-line interface: exit codes, formats, atomic output, catalog dir."""

import dataclasses
import json
import os

import pytest

from tcat.cli import run
from tcat import catalog, catalog_names, serialize_category


def test_validate_catalog_entry_exits_zero(capsys):
    assert run(["validate", "fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "pentagon" in out


def test_smatrix_trivial(capsys):
    assert run(["smatrix", "trivial"]) == 0
    out = capsys.readouterr().out
    assert "[+1+0j]" in out


def test_factorize_degenerate_reports_not_factorizable(capsys):
    assert run(["factorize", "vec_z2_sym"]) == 0
    out = capsys.readouterr().out
    assert "not factorizable" in out
    assert "unconditional" in out


def test_factorize_expect_modular_fails_on_degenerate(capsys):
    assert run(["factorize", "vec_z2_sym", "--expect-modular"]) == 1
    assert run(["factorize", "semion", "--expect-modular"]) == 0
    capsys.readouterr()


def test_unknown_category_exits_two(capsys):
    assert run(["validate", "nope"]) == 2
    err = capsys.readouterr().err
    assert "fibonacci" in err


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["validate", str(bad)]) == 2
    assert "tcat:" in capsys.readouterr().err


def test_zero_pivotal_coefficient_exits_two(tmp_path, capsys):
    doc = json.loads(serialize_category(catalog("semion")))
    doc["pivotal"][1]["re"] = 0.0
    path = tmp_path / "semion_zero_pivotal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", str(path)]) == 2
    assert "tcat:" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    for value in ("0", "-1", "two"):
        assert run(["factorize", "ising", "--max-word-length", value]) == 2
        assert "--max-word-length" in capsys.readouterr().err


def test_machine_format_is_schema_versioned_json(capsys):
    assert run(["factorize", "semion", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["command"] == "factorize"
    assert doc["verdict"] == "factorizable"


def test_human_and_machine_values_agree(capsys):
    assert run(["factorize", "vec_z2_sym", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run(["factorize", "vec_z2_sym"]) == 0
    human = capsys.readouterr().out
    for key in ("qd", "dq", "pb", "bp"):
        assert f"{doc['defects'][key]:.6e}" in human


def test_out_file_written_atomically(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["smatrix", "ising", "--format", "machine",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["rank"] == 3
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tcat-")]
    assert leftovers == []


def test_dump_round_trips_through_load(tmp_path, capsys):
    out = tmp_path / "fib.json"
    assert run(["dump", "fibonacci", "--out", str(out)]) == 0
    assert run(["validate", str(out)]) == 0
    capsys.readouterr()


def test_machine_output_stable_across_runs(capsys):
    assert run(["center", "fibonacci", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert run(["center", "fibonacci", "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_catalog_dir_extends_namespace(tmp_path, monkeypatch, capsys):
    doc = serialize_category(catalog("semion"))
    (tmp_path / "my_semion.json").write_text(doc, encoding="utf-8")
    monkeypatch.setenv("TCAT_CATALOG_DIR", str(tmp_path))
    assert run(["catalog-list"]) == 0
    out = capsys.readouterr().out
    assert "my_semion" in out
    assert run(["validate", "my_semion"]) == 0
    capsys.readouterr()


def test_tolerance_override_flags(capsys):
    assert run(["validate", "fibonacci", "--tolerance-structural", "1e-20"]) == 1
    capsys.readouterr()


def test_tolerance_override_keeps_file_values(tmp_path, capsys):
    doc = json.loads(serialize_category(catalog("semion")))
    doc["tolerances"] = {"structural": 1e-8, "identity": 1e-6}
    path = tmp_path / "semion_tol.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", str(path), "--tolerance-identity", "1e-5",
                "--format", "machine"]) == 0
    res = json.loads(capsys.readouterr().out)["residuals"]
    assert res["pentagon"]["threshold"] == 1e-8
    assert res["min_quantum_dim_inverse"]["threshold"] == pytest.approx(1e5)


def test_validate_reports_singular_f_matrix(tmp_path, capsys):
    # every F[1,1,1,1] entry of fibonacci set to 1: loadable, but singular
    doc = json.loads(serialize_category(catalog("fibonacci")))
    for rec in doc["F"]:
        if (rec["a"], rec["b"], rec["c"], rec["d"]) == (1, 1, 1, 1):
            rec["re"], rec["im"] = 1.0, 0.0
    path = tmp_path / "fib_singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", str(path), "--format", "machine"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False
    for name in ("hexagon_forward", "sphericality", "zigzag"):
        assert out["residuals"][name]["value"] == "inf"


@pytest.mark.parametrize("command", ["center", "factorize", "smatrix", "muger"])
def test_singular_f_matrix_exits_one(tmp_path, capsys, command):
    # the same singular fibonacci: no command past validate can invert it
    doc = json.loads(serialize_category(catalog("fibonacci")))
    for rec in doc["F"]:
        if (rec["a"], rec["b"], rec["c"], rec["d"]) == (1, 1, 1, 1):
            rec["re"], rec["im"] = 1.0, 0.0
    path = tmp_path / "fib_singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tcat:") and "singular" in err


@pytest.mark.parametrize("command", ["validate", "smatrix", "factorize", "muger"])
def test_nan_r_symbol_exits_one(tmp_path, capsys, command):
    # R[1,1,1] of fibonacci set to NaN: validate fails both hexagons, and the
    # S-matrix, which the other commands need, has non-finite entries
    doc = json.loads(serialize_category(catalog("fibonacci")))
    for rec in doc["R"]:
        if (rec["a"], rec["b"], rec["c"]) == (1, 1, 1):
            rec["re"] = float("nan")
    path = tmp_path / "fib_nan_r.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tcat:") and "Traceback" not in err
    assert ("hexagon_forward, hexagon_reverse" if command == "validate"
            else "non-finite") in err


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_machine_format_writes_non_finite_values_as_strings(tmp_path, capsys):
    # the NaN-R fibonacci fails both hexagons with NaN residuals; the
    # document must still parse under a parser that refuses NaN and Infinity
    doc = json.loads(serialize_category(catalog("fibonacci")))
    for rec in doc["R"]:
        if (rec["a"], rec["b"], rec["c"]) == (1, 1, 1):
            rec["re"] = float("nan")
    path = tmp_path / "fib_nan_r.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", str(path), "--format", "machine"]) == 1
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    for name in ("hexagon_forward", "hexagon_reverse"):
        assert out["residuals"][name]["value"] == "nan"
        assert out["residuals"][name]["pass"] is False


@pytest.mark.parametrize("name", catalog_names())
def test_validate_machine_format_parses(name, capsys):
    assert run(["validate", name, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "validate"
    assert doc["pass"] is True
    assert all(r["pass"] is True for r in doc["residuals"].values())


def test_muger_command(capsys):
    assert run(["muger", "vec_z2_sym"]) == 0
    out = capsys.readouterr().out
    assert "{1, g}" in out
    assert "modular: False" in out


@pytest.mark.parametrize("name, transparent, modular", [
    ("vec_z2_sym", [0, 1], False), ("ising", [0], True)])
def test_muger_machine_format_is_schema_versioned_json(capsys, name,
                                                       transparent, modular):
    assert run(["muger", name, "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["command"] == "muger"
    assert doc["category"] == name
    assert doc["transparent"] == transparent
    assert doc["modular"] is modular
    assert doc["s_row_consistent"] is True
    assert len(doc["monodromy_defects"]) == catalog(name).n_labels


def test_catalog_list_machine_format_is_schema_versioned_json(capsys):
    assert run(["catalog-list", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert doc["command"] == "catalog-list"
    assert doc["names"] == catalog_names()


def test_center_command_counts(capsys):
    assert run(["center", "semion"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def _fibonacci_file(tmp_path, table, key, value):
    # one record of fibonacci set to value, written as a JSON number (1e309
    # reads back as inf)
    doc = json.loads(serialize_category(catalog("fibonacci")))
    legs = {"F": "abcdef", "pivotal": "i"}[table]
    for rec in doc[table]:
        if tuple(rec[k] for k in legs) == key:
            rec["re"] = "VALUE"
    path = tmp_path / "fib_edit.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', value), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("table, key, value, command", [
    ("F", (1, 1, 1, 1, 1, 1), "NaN", "center"),
    ("F", (1, 1, 1, 1, 1, 1), "NaN", "smatrix"),
    ("F", (1, 1, 1, 1, 1, 1), "NaN", "muger"),
    ("pivotal", (1,), "1e309", "validate"),
    ("pivotal", (1,), "1e309", "center"),
    ("pivotal", (1,), "1e309", "factorize"),
], ids=["nan_f-center", "nan_f-smatrix", "nan_f-muger", "inf_pivotal-validate",
        "inf_pivotal-center", "inf_pivotal-factorize"])
def test_non_finite_data_exits_one(tmp_path, capsys, table, key, value,
                                   command):
    # a NaN F(tau,tau,tau,tau; tau,tau) reaches the tube algebra and the
    # inverted F-matrices the S-matrix needs; an infinite pivotal
    # coefficient gives tau an infinite quantum dimension
    assert run([command, _fibonacci_file(tmp_path, table, key, value)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tcat:") and "Traceback" not in err
    assert "not finite" in err or "is inf" in err


def test_center_exits_one_when_a_simple_fails_verification(monkeypatch,
                                                            capsys):
    import tcat.cli as cli
    verify = cli.verify_center_object

    def failing(cat, obj):
        return dataclasses.replace(verify(cat, obj), ok=False)

    monkeypatch.setattr(cli, "verify_center_object", failing)
    assert run(["center", "semion"]) == 1
    captured = capsys.readouterr()
    assert "verified=False" in captured.out
    assert captured.err.startswith("tcat: semion: unverified simples: ")
