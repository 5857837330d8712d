import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from cyclade import cli
from cyclade.cli import MAX_ORDER, MAX_VERTICES
from cyclade.exact import cyclo_as_rational, cyclo_make
from cyclade.exprs import parse_measure_expr
from oracles import moment_by_dense_sum, weights_of

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


@pytest.mark.parametrize("expr,count", [("alpha_12 + d''_3", 41), ("gamma'_15", 7),
                                        ("beta'_2", 30), ("d_1", 0)])
def test_measure_moments_match_moment_calls(capsys, expr, count):
    # each moment as a dense sum over the weights, not read off the sequence
    code, out, _ = run_cli(capsys, "measure-moments", "--expr", expr, "--count", str(count),
                           "--format", "json")
    assert code == 0
    e = parse_measure_expr(expr)
    assert json.loads(out)["values"] == [
        cli._fr(cyclo_as_rational(moment_by_dense_sum(e.order, weights_of(e), k)))
        for k in range(count + 1)]


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


def test_failing_command_leaves_out_file(tmp_path, capsys, monkeypatch):
    # the output is written once the command has returned, so an error
    # leaves a pre-filled --out file as it was; a success replaces it
    target = tmp_path / "out.txt"
    target.write_text("old content\n", encoding="utf-8")
    for argv, message in ((["level", "--expr", "d_1 +"], "error: unexpected end of input"),
                          (["verify", "--only", "nomatch*"],
                           "error: no check id matches 'nomatch*'"),
                          (["verify", "--only", ""], "error: no check id matches ''")):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(message)
        assert target.read_text(encoding="utf-8") == "old content\n"
    code, out, _ = run_cli(capsys, "level", "--expr", "alpha_12", "--out", str(target))
    assert (code, out) == (0, "")
    assert target.read_text(encoding="utf-8") == "1\n"
    # a failing verify run still writes its report
    import cyclade.verify as verify_mod
    monkeypatch.setattr(verify_mod, "registry",
                        lambda: {"demo/failing": lambda ctx: ("fail", "intentional")})
    code, out, _ = run_cli(capsys, "verify", "--order", "8", "--out", str(target))
    assert (code, out) == (1, "")
    assert "demo/failing" in target.read_text(encoding="utf-8")


def test_verify_subset_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "8",
                           "--only", "xi-identity/*", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    schema = json.loads((DATA / "report.schema.json").read_text())
    jsonschema.validate(payload, schema)
    assert payload["failures"] == 0
    assert all(c["id"].startswith("xi-identity/") for c in payload["checks"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_glob_matching_nothing_exits_2(capsys, fmt):
    code, out, err = run_cli(capsys, "verify", "--only", "thm9*", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: no check id matches 'thm9*'\n"


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


# int() reads each of these; an integer option takes ASCII digits only
@pytest.mark.parametrize("argv", [
    ["verify", "--order", "1_0"],
    ["xi-expand", "--expr", "xi(2:3)", "--order", " 5"],
    ["measure-tseries", "--expr", "d_1", "--order", "+4"],
    ["graph-loops", "--family", "A", "--param", "\u0663"],
    ["measure-moments", "--expr", "d_1", "--count", "x"],
    ["expand", "--expr", "alpha_5", "--support", "-"],
])
def test_malformed_int_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"cyclade {argv[0]}: error: argument {argv[-2]}: "
                      f"invalid int value: {argv[-1]!r}"]


@pytest.mark.parametrize("argv", [
    ["graph-loops", "--family", "A", "--param", str(MAX_VERTICES + 1)],
    ["graph-tseries", "--family", "Dtilde", "--param", str(MAX_VERTICES + 1)],
    ["graph-tseries", "--family", "E8", "--order", str(MAX_ORDER + 1)],
    ["xi-expand", "--expr", "xi(2:3)", "--order", str(MAX_ORDER + 1)],
    ["measure-tseries", "--expr", "d_1", "--order", str(MAX_ORDER + 1)],
    ["measure-moments", "--expr", "d_1", "--count", str(MAX_ORDER + 1)],
    ["expand", "--expr", "alpha_5", "--support", str(MAX_ORDER + 1)],
    ["verify", "--order", str(MAX_ORDER + 1)],
])
def test_caps(capsys, argv):
    cap = MAX_VERTICES if argv[-2] == "--param" else MAX_ORDER
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"argument {argv[-2]}: must be at most {cap}, got {cap + 1}" in errors[0]


def test_out_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "loops.csv"
    code, out, err = run_cli(capsys, "graph-loops", "--family", "A", "--param", "3",
                             "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: [Errno 2] No such file or directory: '{target}'"]


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
        "error: sum has support order 19594, above the limit 1000 at position 5"]


@pytest.mark.parametrize("expr,support,order", [
    ("d_40 - d_20", "5", 80), ("gamma'_250", "512", 1000)])
def test_expand_support_not_dividing(capsys, expr, support, order):
    code, out, err = run_cli(capsys, "expand", "--expr", expr, "--support", support)
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        f"error: support order {order} does not divide {2 * int(support)}, "
        f"so the moments lack period {support}"]


def test_expression_error_exit(capsys):
    code, _, err = run_cli(capsys, "xi-expand", "--expr", "xi(1:2")
    assert code == 2
    assert "position" in err
    code, _, err = run_cli(capsys, "measure-tseries", "--expr", "d''''_1")
    assert code == 2


@pytest.mark.parametrize("argv,position", [
    (["level", "--expr", "d_\u00b2"], 2),
    (["measure-tseries", "--expr", "d_\u0663"], 2),
    (["xi-expand", "--expr", "xi(\u00b2:1)"], 3),
], ids=["level", "measure-tseries", "xi-expand"])
def test_non_ascii_digit_exit(capsys, argv, position):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    char = argv[-1][position]
    assert err.splitlines() == [
        f"error: unexpected character {char!r} at position {position} (expected integer)"]


@pytest.mark.parametrize("expr,position", [("1/0*d_1", 2), ("d_1/0", 4)],
                         ids=["1/0*d_1", "d_1/0"])
def test_division_by_zero_exit(capsys, expr, position):
    code, out, err = run_cli(capsys, "measure-tseries", "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: division by zero at position {position}"]


def test_exceptional_family_param_optional(capsys):
    code, out, _ = run_cli(capsys, "graph-loops", "--family", "E6", "--order", "2",
                           "--format", "csv")
    assert code == 0
    assert out.strip() == "1,1,2"


@pytest.mark.parametrize("family,param", [("E7", "9"), ("E6tilde", "7"), ("E8", "0")])
def test_exceptional_family_rejects_other_param(capsys, family, param):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph-loops", "--family", family, "--param", param])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"cyclade: error: family {family} has parameter {int(family[1])}, "
        f"got --param {param}"]
    code, out, _ = run_cli(capsys, "graph-loops", "--family", family, "--param", family[1],
                           "--order", "2", "--format", "csv")
    assert code == 0


# random argv for main(): small in-range values, values outside the ranges,
# malformed text and an --out path inside a missing directory
_EXPRS = ("d_1", "alpha_5", "beta'_3 + d_2/2", "gamma''_2", "d'''_4 - d_1", "2*alpha_12",
          "d_(", "", "3", "d_97 + d_101", "d_2000", "alpha_0", "d_1 * d_1",
          "(" * 3000 + "d_1" + ")" * 3000, "xi(2:3)")
_XIS = ("xi(2:3)", "xi'(3,12+:15+)", "xi''(5+:4)", "xi(", "xi(0:1)", "d_1")


def _int_text(low, high):
    numbers = st.one_of(st.integers(low, high), st.integers(low - 10, low - 1),
                        st.integers(high + 1, high + 10 ** 6))
    return numbers.map(str) | st.sampled_from(["x", "1.5"])


_ORDER = _int_text(0, 12)
_COMMANDS = {
    "graph-loops": {"--family": st.sampled_from(["A", "D", "Atilde", "Dtilde", "E6", "F4"]),
                    "--param": _int_text(2, 12), "--order": _ORDER},
    "graph-tseries": {"--family": st.sampled_from(["A", "Atilde", "Dtilde", "E7", "E8tilde"]),
                      "--param": _int_text(2, 12), "--order": _ORDER},
    "xi-expand": {"--expr": st.sampled_from(_XIS), "--order": _ORDER},
    "measure-show": {"--expr": st.sampled_from(_EXPRS)},
    "measure-moments": {"--expr": st.sampled_from(_EXPRS), "--count": _ORDER},
    "measure-tseries": {"--expr": st.sampled_from(_EXPRS), "--order": _ORDER},
    "measure-pushforward": {"--expr": st.sampled_from(_EXPRS)},
    "expand": {"--expr": st.sampled_from(_EXPRS), "--support": _int_text(1, 12)},
    "level": {"--expr": st.sampled_from(_EXPRS)},
    # verify always gets --only, so one example runs a few checks at most
    "verify": {"--only": st.sampled_from(["xi-identity/E6", "prop5.4/alpha2", "none"]),
               "--order": _ORDER},
}


@st.composite
def _argv(draw, out_dir):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for option, values in _COMMANDS[command].items():
        if option == "--only" or draw(st.integers(0, 4)):
            argv += [option, draw(values)]
    fmt = draw(st.sampled_from([None, "text", "json", "csv", "xml"]))
    if fmt:
        argv += ["--format", fmt]
    out = draw(st.sampled_from([None, "file.txt", "missing/file.txt"]))
    if out:
        argv += ["--out", str(out_dir / out)]
    return argv


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_random_argv_never_tracebacks(tmp_path_factory, data):
    argv = data.draw(_argv(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


def test_format_decimal_decides_realness_exactly():
    # an imaginary part of 1e-30 sits below any 30-digit threshold, yet the
    # value is not real, so it prints as a complex number
    assert cli.format_decimal(cyclo_make(4, {1: Fraction(1, 10**30)})) == "(0.0 + 1.0e-30j)"
    assert cli.format_decimal(cyclo_make(8, {1: 1, 7: 1})) == "1.4142135623731"
