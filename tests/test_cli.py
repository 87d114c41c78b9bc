"""CLI commands, exit codes, and report determinism."""

import json
import pathlib
import random

import pytest
from click.testing import CliRunner

from quatbraid import braids, cli as cli_module, diagrams, hecke, intspan, linktable
from quatbraid.algebra import AlgebraElement
from quatbraid.braids import BraidWord, evaluate, markov_move_test, random_braid
from quatbraid.cli import cli, run_suite
from quatbraid.image_group import conjugation_action
from quatbraid.scalar import ONE, Scalar, qpow


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


def test_invariant_many_strands(runner):
    result = runner.invoke(cli, ["invariant", "--strands", "40", "--word", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["value"] == [str(2**38), "0"]


def _assert_one_line_error(result):
    # an uncaught exception would also give exit code 1 under CliRunner
    assert result.exit_code == 1
    assert type(result.exception) is SystemExit
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1
    assert "Traceback" not in result.output


def test_failed_internal_guard_is_one_line_error(runner, monkeypatch):
    # a RuntimeError from a guard (here the span closure's relation check)
    # takes the one error path, not a traceback
    monkeypatch.setattr("quatbraid.hecke.verify_relations", lambda n: [
        {"relation": "E1", "indices": [2], "pass": False},
    ])
    result = runner.invoke(cli, ["dim", "--n", "4"])
    _assert_one_line_error(result)
    assert result.output == "error: span closure needs the Hecke relations; failed: E1[2]\n"


def test_invariant_bad_letter(runner):
    _assert_one_line_error(runner.invoke(cli, ["invariant", "--strands", "2", "--word", "3"]))


@pytest.mark.parametrize(
    "args",
    [
        ["dim", "--n", "9"],
        ["dim", "--n", "1"],
        ["center", "--n", "1"],
        ["center", "--n", "4097"],
        ["group", "--n", "6"],
        ["group", "--n", "3", "--max", "0"],
        ["group", "--n", "3", "--max", "abc"],
        ["invariant", "--strands", "3", "--word", "1 x 2", {"error": "--word: 'x' is not an integer letter"}],
        ["invariant", "--strands", "3", "--word", "1 -3"],
        ["invariant", "--strands", "0", "--word", ""],
        ["invariant", "--strands", "40", "--word", "1 39"],
        ["bratteli", "--levels", "0"],
        ["bratteli", "--k", "6", "--l", "6"],
        ["bratteli", "--k", "0", "--levels", "3"],
        ["verify", "--n", "2"],
        ["cover-dim", "--seifert", {"json": "[[1, 2"}],
        ["cover-dim", "--seifert", {"json": "[[1, 2], [3]]"}],
        ["cover-dim", "--seifert", {"json": "[[1.5]]"}],
        ["cover-dim", "--seifert", {"json": "[[true]]"}],
        ["cover-dim", "--seifert", {"json": '{"rows": [[1]]}'}],
        ["cover-dim", "--seifert", {"json": '"abc"'}],
        ["suite", "--group-n-max", "6", "--dim-n-max", "2", "--markov-braids", "0"],
        ["suite", "--dim-n-max", "9", "--group-n-max", "2", "--markov-braids", "0"],
        ["suite", "--markov-braids", "-3", "--group-n-max", "2", "--dim-n-max", "2"],
        ["suite", "--max", "-5", "--group-n-max", "2", "--dim-n-max", "2", "--markov-braids", "0"],
        ["suite", "--config", {"json": '{"group_n_max": 6, "dim_n_max": 2, "markov_braids": 0}'}],
        ["suite", "--config", {"json": '{"dim_n_max": 9, "group_n_max": 2, "markov_braids": 0}'}],
        ["suite", "--config", {"json": '{"markov_braids": -3, "group_n_max": 2, "dim_n_max": 2}'}],
        ["suite", "--config", {"json": '{"relation_n_max": 2}'}],
        ["suite", "--config", {"json": '{"relation_n_max": 9}'}],
        [],
        ["suite", "--seed", "abc"],
        ["suite", "--bogus"],
        ["group", "--n", "x"],
        ["bratteli", "--levels", "1", "--dot", {"missing": "graph.dot"}],
        ["bratteli", "--levels", "3", "--dot", {"missing": "dir/graph.dot"}],
        ["verify", "--n", "3", "--json-out", {"missing": "dir/report.json"}],
        ["suite", "--dim-n-max", "0", "--group-n-max", "0", "--markov-braids", "0"],
        ["suite", "--link-table", ""],
        ["suite", "--config", {"json": '{"link_table_path": ""}'}],
        ["bratteli", "--dot", ""],
        ["invariant", "--strands", "5000", "--word", "1",
         {"error": "the invariant supports at most 4096 strands, got 5000"}],
        ["bratteli", "--levels", "7144", {"error": "--levels must be at most 1000, got 7144"}],
        ["bratteli", "--k", "5", "--l", "1000", "--levels", "1000",
         {"error": "--k 5 --l 1000 allow C(l-1, k-1) diagrams per level, more than 500"}],
        ["bratteli", "--k", "2", "--l", "502", "--levels", "2"],
        ["bratteli", "--k", "3", "--l", "34", "--levels", "2"],
        ["bratteli", "--k", str(10**20), "--l", str(10**20 + 1), "--levels", "2"],
        ["bratteli", "--k", "3", "--l", str(10**20), "--levels", "2"],
    ],
)
def test_bad_input_is_one_line_error(runner, tmp_path, args):
    # an argument {"json": text} stands for the path of a file holding text,
    # {"missing": name} for a path under tmp_path that must stay absent;
    # {"error": message} is not an argument but the message the line must carry
    argv, message = [], None
    for arg in args:
        if isinstance(arg, dict) and "error" in arg:
            message = arg["error"]
            continue
        if isinstance(arg, dict) and "json" in arg:
            path = tmp_path / "input.json"
            path.write_text(arg["json"])
            arg = str(path)
        elif isinstance(arg, dict):
            arg = str(tmp_path / arg["missing"])
        argv.append(arg)
    result = runner.invoke(cli, argv)
    _assert_one_line_error(result)
    assert message is None or result.output == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] in ([], ["input.json"])


@pytest.mark.parametrize("k, l", [(2, 501), (3, 33)])
def test_bratteli_width_bound_admits_its_cap(runner, k, l):
    # a level holds at most C(l-1, k-1) diagrams: 500 and 496 pass (501 and 528 are
    # bad input above)
    result = runner.invoke(cli, ["bratteli", "--k", str(k), "--l", str(l), "--levels", "2"])
    assert result.exit_code == 0, result.output


def test_help_exits_zero(runner):
    result = runner.invoke(cli, ["--help"])
    assert result.exit_code == 0
    assert "Usage:" in result.output and "suite" in result.output


def test_unwritable_suite_report_fails_before_any_work(runner, monkeypatch, tmp_path):
    # the relation checks run first; reaching them means the report path was tried too late
    def no_work(n):
        raise AssertionError("a check ran before the report file was opened")

    monkeypatch.setattr("quatbraid.hecke.verify_relations", no_work)
    result = runner.invoke(cli, ["suite", "--json-out", str(tmp_path / "missing" / "report.json")])
    _assert_one_line_error(result)
    assert "report.json" in result.output


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


def test_bratteli(runner, monkeypatch, tmp_path):
    # the DOT cut is read off the levels the report already built: one bratteli_levels call
    calls = []
    real = diagrams.bratteli_levels
    monkeypatch.setattr(diagrams, "bratteli_levels", lambda *args, **kw: calls.append(args) or real(*args, **kw))
    dot = tmp_path / "graph.dot"
    result = runner.invoke(
        cli, ["bratteli", "--levels", "7", "--reduced", "--dot", str(dot)]
    )
    report = json.loads(result.output)
    assert [len(lv["nodes"]) for lv in report["levels"]] == [1, 2, 3, 3, 3, 4, 3]
    assert calls == [(3, 6, 7)]
    # the graph principal_graph_cut gives from levels of its own
    assert dot.read_text() == diagrams.to_dot(*diagrams.principal_graph_cut(3, 6, (6, 7))) + "\n"


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


LINK_TABLE_MISSING_WORD = json.dumps(
    {
        "schema": "quatbraid-link-table-v1",
        "links": [
            {"name": "trefoil", "strands": 2, "word": [1, 1, 1]},
            {"name": "broken", "strands": 2},
        ],
    }
)


@pytest.mark.parametrize("command", [["cover-dim", "--seifert"], ["suite", "--link-table"]])
def test_link_table_missing_key_is_one_line_error(runner, tmp_path, command):
    path = tmp_path / "links.json"
    path.write_text(LINK_TABLE_MISSING_WORD)
    result = runner.invoke(cli, command + [str(path)])
    _assert_one_line_error(result)
    assert "link entry 1 ('broken') lacks 'word'" in result.output


@pytest.mark.parametrize("command", [["cover-dim", "--seifert"], ["suite", "--link-table"]])
@pytest.mark.parametrize("strands,word", [(3, [1.5, 1]), (2.5, [1]), (2, [True])])
def test_link_table_non_integer_is_one_line_error(runner, tmp_path, command, strands, word):
    path = tmp_path / "links.json"
    path.write_text(json.dumps({
        "schema": "quatbraid-link-table-v1",
        "links": [{"name": "x", "strands": strands, "word": word}],
    }))
    result = runner.invoke(cli, command + [str(path)])
    _assert_one_line_error(result)
    assert f"{path}: link entry 0 ('x'):" in result.output


def test_link_table_braiding_too_many_strands_fails_before_any_check(runner, monkeypatch, tmp_path):
    def no_work(n):
        raise AssertionError("a check ran before the link table was checked")

    monkeypatch.setattr("quatbraid.hecke.verify_relations", no_work)
    path = tmp_path / "links.json"
    path.write_text(json.dumps({
        "schema": "quatbraid-link-table-v1",
        "links": [{"name": "unknot", "strands": 2, "word": [1]}, {"name": "wide", "strands": 9, "word": [1, 8]}],
    }))
    result = runner.invoke(cli, ["suite", "--link-table", str(path)])
    _assert_one_line_error(result)
    assert f"{path}: link entry 1 ('wide'): the word braids 9 strands" in result.output


@pytest.mark.parametrize(
    "command", [["cover-dim", "--seifert"], ["suite", "--config"], ["suite", "--link-table"]]
)
def test_malformed_json_has_one_wording(runner, tmp_path, command):
    # a syntax error, and nesting too deep for the parser (a RecursionError)
    path = tmp_path / "input.json"
    nested = "[" * 200000 + "]" * 200000
    for text, reason in [("{not json", "Expecting property name"), (nested, "maximum recursion depth")]:
        path.write_text(text)
        result = runner.invoke(cli, command + [str(path)])
        _assert_one_line_error(result)
        assert result.output.startswith(f"error: {path} is not valid JSON: {reason}")


def test_suite_flags_override_config(runner, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"seed": 1, "markov_braids": 2, "relation_n_max": 3, "dim_n_max": 2, "group_n_max": 2}
    ))
    out = tmp_path / "report.json"
    result = runner.invoke(cli, [
        "suite", "--config", str(config), "--seed", "5", "--markov-braids", "3",
        "--json-out", str(out),
    ])
    assert result.exit_code == 0, result.output
    params = json.loads(out.read_text())["parameters"]
    assert params["seed"] == 5 and params["markovBraids"] == 3
    assert params["relationNMax"] == 3 and params["dimNMax"] == 2


@pytest.mark.parametrize(
    "config,message",
    [
        ('{"seed": 1, "markov_braid": 2}', "unknown config key 'markov_braid'"),
        ('{"group_n_max": "2"}', "config key 'group_n_max' must be an integer"),
        ('[1, 2]', "config must be a JSON object"),
        ('{"seed": 1', "is not valid JSON"),
    ],
    ids=["unknown-key", "wrong-type", "not-an-object", "malformed-json"],
)
def test_bad_suite_config_is_one_line_error(runner, tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(config)
    result = runner.invoke(cli, ["suite", "--config", str(path)])
    _assert_one_line_error(result)
    assert message in result.output


@pytest.mark.parametrize(
    "bad",
    [{"group_n_max": 6}, {"dim_n_max": 9}, {"markov_braids": -3}, {"max_group_elements": 0},
     {"relation_n_max": 2}, {"relation_n_max": 9}, {"dim_n_max": 1}, {"group_n_max": 1}],
    ids=["group-n-max", "dim-n-max", "negative-markov-braids", "zero-group-cap", "relation-n-max",
         "relation-n-max-above-8", "dim-n-max-below-2", "group-n-max-below-2"],
)
def test_run_suite_checks_ranges_before_any_work(monkeypatch, bad):
    # the relation checks run first; reaching them means the range check came too late
    def no_work(n):
        raise AssertionError("a check ran before the range check")

    monkeypatch.setattr("quatbraid.hecke.verify_relations", no_work)
    with pytest.raises(ValueError, match=next(iter(bad))):
        run_suite(**bad)


def test_verify_above_eight_strands_fails_before_any_check(runner, monkeypatch):
    # n = 9 would cache about 89 MB of T_i tables before reporting anything
    def no_work(n):
        raise AssertionError("a check ran before the range check")

    monkeypatch.setattr("quatbraid.hecke.verify_relations", no_work)
    result = runner.invoke(cli, ["verify", "--n", "9"])
    _assert_one_line_error(result)
    assert "at most 8" in result.output


@pytest.mark.parametrize("table", ["bundled", "link-table"])
def test_run_suite_multiplies_no_algebra_elements(monkeypatch, tmp_path, table):
    # every check runs on integer tables, F2 or F4; the Q(zeta) route `evaluate`
    # is the tests' reference only.  On an 8-strand, 24-letter word it would
    # multiply elements of up to 4096 terms for seconds.
    products = []
    real_mul = AlgebraElement.__mul__

    def mul(self, other):
        products.append(self.n)
        return real_mul(self, other)

    def evaluate(beta):
        raise AssertionError(f"run_suite reached evaluate on {beta}")

    monkeypatch.setattr(AlgebraElement, "__mul__", mul)
    monkeypatch.setattr(braids, "evaluate", evaluate)
    kwargs = dict(relation_n_max=3, dim_n_max=2, group_n_max=2, markov_braids=2)
    if table == "link-table":
        rng = random.Random(8)
        word = [rng.choice([-1, 1]) * rng.randint(1, 7) for _ in range(24)]
        path = tmp_path / "links.json"
        path.write_text(json.dumps({
            "schema": "quatbraid-link-table-v1",
            "links": [{"name": "long", "strands": 8, "word": word}],
        }))
        kwargs["link_table_path"] = str(path)
    report = run_suite(**kwargs)
    names = [c["name"] for c in report["checks"]]
    assert report["pass"] and "cube[n=2]" in names and "closed-form[2 braids]" in names
    assert table == "bundled" or "invariant-phase[long]" in names
    assert not products, f"{len(products)} AlgebraElement products"
    assert not hasattr(cli_module, "evaluate")


def test_run_suite_builds_the_bratteli_levels_once(monkeypatch):
    # the path counts of dimension[n=k], bratteli-node-counts and the E6 cut
    # are all read off one build of levels 1..7
    calls = []
    real = diagrams.bratteli_levels
    monkeypatch.setattr(diagrams, "bratteli_levels", lambda *args, **kw: calls.append((args, kw)) or real(*args, **kw))
    report = run_suite(relation_n_max=3, dim_n_max=2, group_n_max=2, markov_braids=2)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["bratteli-node-counts"]["pass"] and checks["principal-graph-E6(1)"]["pass"]
    assert checks["dimension[n=2]"]["expected"] == 2
    assert calls == [((3, 6, 7), {"reduced": True})]


def test_run_suite_closes_the_span_once(monkeypatch):
    # every dimension[n=2..5] actual is a stage rank of one strand-prefix closure
    calls = []
    real = intspan._t_word_basis
    monkeypatch.setattr(intspan, "_t_word_basis", lambda n: calls.append(n) or real(n))
    checks = [c for c in run_suite()["checks"] if c["name"].startswith("dimension[")]
    assert calls == [5]
    assert [c["name"] for c in checks] == [f"dimension[n={n}]" for n in range(2, 6)]
    assert [c["actual"] for c in checks] == [c["expected"] for c in checks] == [2, 6, 22, 86]


def test_run_suite_checks_the_dimension_up_to_the_cap():
    # the path counts reach as many levels as the closure: n = 8 is past the 7
    # levels bratteli-node-counts reads
    report = run_suite(relation_n_max=3, dim_n_max=hecke.MAX_DIMENSION_N, group_n_max=2, markov_braids=0)
    checks = [c for c in report["checks"] if c["name"].startswith("dimension[")]
    assert report["pass"] and hecke.MAX_DIMENSION_N == 8
    assert [c["actual"] for c in checks] == [c["expected"] for c in checks] == [2, 6, 22, 86, 342, 1366, 5462]


def test_run_suite_builds_each_conjugation_table_once():
    # verify_conjugation_table(3, 4) and enumerate_group(2..4) share their s_1 tables:
    # (1, 3) and (1, 4) are built once and read twice
    conjugation_action.cache_clear()
    report = run_suite(relation_n_max=4, dim_n_max=2, group_n_max=4, markov_braids=0)
    assert report["pass"]
    info = conjugation_action.cache_info()
    assert (info.misses, info.hits) == (6, 2)
    with pytest.raises(ValueError, match="read-only"):
        conjugation_action(1, 3).codes[0] = 0


def _strip_timing(report):
    report = dict(report)
    report.pop("wallTimeSeconds")
    return report


def test_invariant_phase_can_fail(monkeypatch):
    # a value with the right magnitude and the wrong sign fails the phase check only,
    # and the failing entry alone carries the link's word as a reproducer
    kwargs = dict(relation_n_max=3, dim_n_max=2, group_n_max=2, markov_braids=0)
    phases = [c for c in run_suite(**kwargs)["checks"] if c["name"].startswith("invariant-phase[")]
    assert phases and all(c["pass"] and "reproducer" not in c for c in phases)

    trefoil = next(e.braid for e in linktable.load_bundled() if e.name == "trefoil")
    real = braids.invariant
    monkeypatch.setattr(braids, "invariant", lambda b: -real(b) if b == trefoil else real(b))
    checks = {c["name"]: c for c in run_suite(**kwargs)["checks"]}
    assert checks["invariant-magnitude[trefoil]"]["pass"] and not checks["invariant-phase[trefoil]"]["pass"]
    assert [name for name, c in checks.items() if not c["pass"]] == ["invariant-phase[trefoil]"]
    rep = checks["invariant-phase[trefoil]"]["reproducer"]
    assert rep == {"link": "trefoil", "strands": trefoil.strands, "word": list(trefoil.letters)}
    beta = BraidWord(rep["strands"], tuple(rep["word"]))
    want = Scalar.of(2 ** (beta.strands - 1)) * qpow(-2 * beta.exponent_sum) * evaluate(beta).trace()
    assert braids.invariant(beta) != want


DATA = pathlib.Path(__file__).parent / "data"


def test_reports_match_saved_reports(runner, tmp_path):
    # verify --n 6 and the default suite report, saved while the relation and
    # Markov checks still ran on AlgebraElement (the suite's group-terminates
    # entries have carried levelSizes since); only the timing may differ
    result = runner.invoke(cli, ["verify", "--n", "6"])
    assert result.exit_code == 0
    assert result.output == (DATA / "verify_n6.json").read_text()
    out = tmp_path / "suite.json"
    result = runner.invoke(cli, ["suite", "--json-out", str(out)])
    assert result.exit_code == 0, result.output
    assert _strip_timing(json.loads(out.read_text())) == json.loads((DATA / "suite_default.json").read_text())


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


def test_markov_failure_carries_reproducer(monkeypatch):
    kwargs = dict(seed=5, relation_n_max=3, dim_n_max=2, group_n_max=2, markov_braids=3)
    passing = next(c for c in run_suite(**kwargs)["checks"] if c["name"].startswith("markov-moves"))
    assert passing["pass"] and "reproducer" not in passing

    # run_suite draws each braid, then its per-braid seed, from one generator
    rng = random.Random(kwargs["seed"])
    drawn = [(random_braid(rng), rng.randrange(2**30)) for _ in range(kwargs["markov_braids"])]
    beta, braid_seed = drawn[1]
    broken = beta.stabilize(1)
    # markov_move_test reads a stabilization off beta's extended T-word state,
    # not through braids.invariant, so the wrong value goes in where that state's
    # trace becomes the stabilized word's invariant
    real = braids._from_trace
    monkeypatch.setattr(braids, "_from_trace", lambda b, tr: real(b, tr) + ONE if b == broken else real(b, tr))

    check = next(c for c in run_suite(**kwargs)["checks"] if c["name"].startswith("markov-moves"))
    assert not check["pass"] and check["actual"] == 1
    assert check["reproducer"] == {"strands": beta.strands, "word": list(beta.letters), "seed": braid_seed}
    rep = check["reproducer"]
    assert not markov_move_test(BraidWord(rep["strands"], tuple(rep["word"])), trials=1, seed=rep["seed"])["pass"]


def test_closed_form_mismatch_carries_reproducer(monkeypatch):
    kwargs = dict(seed=5, relation_n_max=3, dim_n_max=2, group_n_max=2, markov_braids=3)
    passing = next(c for c in run_suite(**kwargs)["checks"] if c["name"] == "closed-form[3 braids]")
    assert passing["pass"] and passing["actual"] == 0 and "reproducer" not in passing

    rng = random.Random(kwargs["seed"])
    drawn = [(random_braid(rng), rng.randrange(2**30)) for _ in range(kwargs["markov_braids"])]
    beta, braid_seed = drawn[1]  # drawn[2] is the bundled link 5_1
    real = braids.closed_form
    monkeypatch.setattr(braids, "closed_form", lambda b: -real(b) if b == beta else real(b))

    checks = {c["name"]: c for c in run_suite(**kwargs)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["closed-form[3 braids]"]
    check = checks["closed-form[3 braids]"]
    assert check["actual"] == 1
    assert check["reproducer"] == {"strands": beta.strands, "word": list(beta.letters), "seed": braid_seed}
    rep = check["reproducer"]
    assert braids.invariant(BraidWord(rep["strands"], tuple(rep["word"]))) != braids.closed_form(beta)
