import json
from pathlib import Path

import jsonschema
import pytest

from cyclade import cli

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_tseries_csv(capsys):
    code, out, _ = run_cli(capsys, "graph-tseries", "--family", "E7",
                           "--order", "16", "--format", "csv")
    assert code == 0
    values = out.strip().split(",")
    assert len(values) == 17
    # the table entry (1 - q^12)/((1 - q^4)(1 + q^9)) expanded
    assert values[:10] == ["1", "0", "0", "0", "1", "0", "0", "0", "1", "-1"]


def test_graph_loops_text(capsys):
    code, out, _ = run_cli(capsys, "graph-loops", "--family", "A", "--param", "3",
                           "--order", "4")
    assert code == 0
    assert out.strip() == "1, 1, 2, 4, 8"


def test_measure_moments(capsys):
    code, out, _ = run_cli(capsys, "measure-moments", "--expr", "d_1", "--count", "4")
    assert code == 0
    assert out.strip() == "1, 0, 1, 0, 1"


def test_xi_expand_json_schema(capsys):
    code, out, _ = run_cli(capsys, "xi-expand", "--expr", "xi(2:3)",
                           "--order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((DATA / "cli_series.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["values"][:4] == [1, 0, -1, 1]


def test_measure_show_csv_line_endings(capsys):
    code, out, _ = run_cli(capsys, "measure-show", "--expr", "d'_1",
                           "--format", "csv")
    assert code == 0
    assert "\r" not in out
    lines = out.strip().split("\n")
    assert lines[0] == "position,order,weight,weight_decimal"
    assert len(lines) == 3  # two atoms at the odd fourth roots


def test_measure_pushforward(capsys):
    code, out, _ = run_cli(capsys, "measure-pushforward", "--expr", "d_1",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("4,4.0,1,1.0")


def test_expand_and_level(capsys):
    code, out, _ = run_cli(capsys, "expand", "--expr", "alpha_5")
    assert code == 0
    assert "residual_ok" in out and "true" in out
    code, out, _ = run_cli(capsys, "level", "--expr", "alpha_12")
    assert code == 0
    assert out.strip() == "1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "loops.csv"
    code, out, _ = run_cli(capsys, "graph-loops", "--family", "Atilde", "--param", "2",
                           "--order", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "1,4,16,64\n"


def test_verify_subset_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "8",
                           "--only", "xi-identity/*", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((DATA / "report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["failures"] == 0
    assert all(c["id"].startswith("xi-identity/") for c in payload["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    import cyclade.verify as verify_mod

    def failing_registry():
        return {"demo/failing": lambda ctx: ("fail", "intentional")}

    monkeypatch.setattr(verify_mod, "registry", failing_registry)
    code, out, _ = run_cli(capsys, "verify", "--order", "8")
    assert code == 1
    assert "demo/failing" in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph-loops", "--family", "A"])  # missing --param
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["xi-expand", "--expr", "xi(2:3)", "--order", "-1"],
    ["measure-tseries", "--expr", "d_1", "--order", "-1"],
    ["expand", "--expr", "alpha_5", "--support", "0"],
    ["graph-loops", "--family", "A", "--param", "3", "--order", "-2"],
    ["measure-moments", "--expr", "d_1", "--count", "-3"],
])
def test_out_of_range_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {argv[-2]}: must be at least" in errors[0]


@pytest.mark.parametrize("argv", [
    ["measure-tseries", "--expr", "d_2000"],
    ["measure-show", "--expr", "gamma_2000"],
    ["measure-moments", "--expr", "alpha_12 + d''_84"],
    ["level", "--expr", "beta'_251"],
])
def test_atom_support_limit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: atom ") and "above the limit 1000" in lines[0]


def test_sum_support_limit(capsys):
    # lcm(194, 202) = 19594: the sum is refused before anything is built
    code, out, err = run_cli(capsys, "measure-show", "--expr", "d_97 + d_101")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        "error: sum has support order 19594, above the limit 1000"]


def test_expression_error_exit(capsys):
    code, _, err = run_cli(capsys, "xi-expand", "--expr", "xi(1:2")
    assert code == 2
    assert "position" in err
    code, _, err = run_cli(capsys, "measure-tseries", "--expr", "d''''_1")
    assert code == 2


def test_exceptional_family_param_optional(capsys):
    code, out, _ = run_cli(capsys, "graph-loops", "--family", "E6", "--order", "2",
                           "--format", "csv")
    assert code == 0
    assert out.strip() == "1,1,2"
