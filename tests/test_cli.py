import json

import pytest

from brauer_derive import tilting
from brauer_derive.cli import EXIT_CERTIFICATE, run
from brauer_derive.homological import ChainMap

from conftest import CORPUS_TEXTS, G_MIN_TEXT


@pytest.fixture()
def g_min_file(tmp_path):
    path = tmp_path / "g_min.json"
    path.write_text(G_MIN_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"vertices":[{"id":"S","cyclic":["1","1","2"]},{"id":"u","cyclic":["2","2"]}]}',
        encoding="utf-8",
    )
    return str(path)


def test_reduce_certified_json(g_min_file, capsys):
    assert run(["reduce", g_min_file, "--certify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "brauer-derive/1"
    assert payload["n"] == 3
    assert len(payload["steps"]) == 1
    assert payload["steps"][0]["certificate"]["detEnd"] == 4


def test_cartan_omega_json(capsys):
    assert run(["cartan", "--omega", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matrix"] == [[4, 2, 2], [2, 2, 1], [2, 1, 2]]
    assert payload["dim"] == 18 and payload["det"] == 4


def test_validate_bad_exit_code(bad_file, capsys):
    assert run(["validate", bad_file]) == 1
    err = capsys.readouterr().err
    assert "exactly one loop" in err


def test_validate_ok(g_min_file, capsys):
    assert run(["validate", g_min_file]) == 0
    assert "3 edges" in capsys.readouterr().out


def test_omega_reports(capsys):
    assert run(["omega", "1"]) == 0
    assert "dim: 4" in capsys.readouterr().out
    assert run(["omega", "4"]) == 0
    assert "dim: 28" in capsys.readouterr().out


def test_an_compare_socle(capsys):
    assert run(["an", "2", "--compare-socle"]) == 0
    assert "socle quotients equal: true" in capsys.readouterr().out


def test_quiver_dot(g_min_file, capsys):
    assert run(["quiver", g_min_file]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 5


def test_algebra_report(g_min_file, capsys):
    assert run(["algebra", g_min_file]) == 0
    out = capsys.readouterr().out
    assert "dim: 14" in out and "relations:" in out


def test_tilt_shrink(g_min_file, capsys):
    assert run(["tilt-shrink", g_min_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ordering"] == ["1", "3", "2"]
    cert = payload["certificate"]
    assert all(v == 0 for v in cert["homVanishing"].values())
    assert cert["endCartan"]["matrix"] == [[4, 2, 2], [2, 2, 1], [2, 1, 2]]


def test_tilt_enlarge(g_min_file, capsys):
    assert run(["tilt-enlarge", g_min_file, "--at", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["successor"] == "3"
    assert payload["certificate"]["detSource"] == 4


def test_tilt_enlarge_requires_at(g_min_file, capsys):
    assert run(["tilt-enlarge", g_min_file]) == 4


def test_enlarge_empty_tree_is_input_error(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text('{"vertices":[{"id":"S","cyclic":["1","1","2"]}]}', encoding="utf-8")
    assert run(["tilt-enlarge", str(path), "--at", "2"]) == 1


def test_classify(g_min_file, capsys):
    assert run(["classify", g_min_file]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_unknown_command_usage():
    assert run(["frobnicate"]) == 4
    assert run([]) == 4


def test_missing_file_is_input_error(capsys):
    assert run(["validate", "/nonexistent/nope.json"]) == 1


def test_cartan_needs_exactly_one_source(g_min_file):
    assert run(["cartan"]) == 4
    assert run(["cartan", g_min_file, "--omega", "2"]) == 4


def test_determinism(g_min_file, capsys):
    run(["reduce", g_min_file, "--certify", "--json"])
    first = capsys.readouterr().out
    run(["reduce", g_min_file, "--certify", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_field_flag(capsys):
    assert run(["omega", "2", "--field", "3"]) == 0
    assert "dim: 10" in capsys.readouterr().out
    assert run(["omega", "2", "--field", "4"]) == 1  # not a prime


def test_not_stabilized_exit_code(capsys):
    assert run(["cartan", "--omega", "3", "--cap", "2", "--margin", "1"]) == 2
    assert "NotStabilized" in capsys.readouterr().err


def test_non_commuting_chain_map_is_certificate_failure(tmp_path, capsys, monkeypatch):
    """A chain map the program builds wrongly is a certificate failure (exit
    3), not invalid input (exit 1)."""

    class DropTop(ChainMap):
        """Loses its top component, so the square below it stops commuting."""

        def __init__(self, source, target, comps, check=True):
            comps = dict(comps)
            if len(comps) > 1:
                del comps[max(comps)]
            super().__init__(source, target, comps, check)

    monkeypatch.setattr(tilting, "ChainMap", DropTop)
    path = tmp_path / "chain2.json"
    path.write_text(CORPUS_TEXTS["chain2"], encoding="utf-8")
    assert run(["tilt-shrink", str(path)]) == EXIT_CERTIFICATE
    assert "ChainMapFailure: square at degree 0 does not commute" in capsys.readouterr().err
