"""CLI commands, exit codes, and report determinism."""

import json

import pytest
from click.testing import CliRunner

from quatbraid.cli import cli, run_suite


@pytest.fixture
def runner():
    return CliRunner()


def test_verify(runner):
    result = runner.invoke(cli, ["verify", "--n", "4"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["pass"]
    assert any(e["relation"] == "B1" for e in report["checks"])


def test_dim(runner):
    result = runner.invoke(cli, ["dim", "--n", "3"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["spanClosure"] == report["pathCount"] == 6


def test_center(runner):
    result = runner.invoke(cli, ["center", "--n", "3"])
    report = json.loads(result.output)
    assert report["dimension"] == 4
    assert "u1u2" in report["basis"]


def test_invariant(runner):
    result = runner.invoke(cli, ["invariant", "--strands", "2", "--word", "1 1 1"])
    report = json.loads(result.output)
    assert report["value"] == ["-2", "0"]


def _assert_one_line_error(result):
    # an uncaught exception would also give exit code 1 under CliRunner
    assert result.exit_code == 1
    assert type(result.exception) is SystemExit
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_invariant_bad_letter(runner):
    _assert_one_line_error(runner.invoke(cli, ["invariant", "--strands", "2", "--word", "3"]))


@pytest.mark.parametrize(
    "args",
    [
        ["dim", "--n", "7"],
        ["dim", "--n", "1"],
        ["center", "--n", "1"],
        ["group", "--n", "6"],
        ["invariant", "--strands", "3", "--word", "1 x 2"],
        ["invariant", "--strands", "3", "--word", "1 -3"],
        ["invariant", "--strands", "0", "--word", ""],
    ],
)
def test_bad_input_is_one_line_error(runner, args):
    _assert_one_line_error(runner.invoke(cli, args))


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_group_cap_variable(value):
    runner = CliRunner(env={"QUATBRAID_MAX_GROUP_ELEMENTS": value})
    for args in (["group", "--n", "3"], ["suite", "--group-n-max", "2"]):
        result = runner.invoke(cli, args)
        _assert_one_line_error(result)
        assert "QUATBRAID_MAX_GROUP_ELEMENTS" in result.output


def test_group(runner):
    result = runner.invoke(cli, ["group", "--n", "3"])
    report = json.loads(result.output)
    assert report["imageOrder"] == 12
    assert result.exit_code == 0


def test_group_cap_exceeded_is_inconclusive(runner):
    result = runner.invoke(cli, ["group", "--n", "4", "--max", "50"])
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["conclusive"] is False


def test_bratteli(runner, tmp_path):
    dot = tmp_path / "graph.dot"
    result = runner.invoke(
        cli, ["bratteli", "--levels", "7", "--reduced", "--dot", str(dot)]
    )
    report = json.loads(result.output)
    assert [len(lv["nodes"]) for lv in report["levels"]] == [1, 2, 3, 3, 3, 4, 3]
    assert dot.exists() and "graph bratteli" in dot.read_text()


def test_cover_dim_matrix(runner, tmp_path):
    path = tmp_path / "seifert.json"
    path.write_text("[[-1, 1], [0, -1]]")
    result = runner.invoke(cli, ["cover-dim", "--seifert", str(path)])
    assert json.loads(result.output)["dim"] == 2


def test_cover_dim_missing_file(runner):
    result = runner.invoke(cli, ["cover-dim", "--seifert", "/nope/missing.json"])
    assert result.exit_code == 1
    assert "missing.json" in result.output


def test_suite_missing_link_table(runner):
    result = runner.invoke(cli, ["suite", "--link-table", "/nope/links.json"])
    assert result.exit_code == 1
    assert "/nope/links.json" in result.output


def _strip_timing(report):
    report = dict(report)
    report.pop("wallTimeSeconds")
    return report


def test_suite_deterministic_given_seed():
    kwargs = dict(
        seed=5,
        relation_n_max=3,
        dim_n_max=3,
        group_n_max=3,
        markov_braids=5,
    )
    a = run_suite(**kwargs)
    b = run_suite(**kwargs)
    assert a["pass"]
    assert _strip_timing(a) == _strip_timing(b)


def test_suite_small_passes_and_exits_zero(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        cli,
        [
            "suite",
            "--group-n-max", "3",
            "--dim-n-max", "3",
            "--markov-braids", "3",
            "--json-out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["pass"]
    assert all("name" in e and "expected" in e for e in report["checks"])
