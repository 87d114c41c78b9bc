"""Command-line entry point and machine-readable verification reports.

Every acceptance-level claim of the project is reproducible from here:
`quatbraid suite` runs the whole battery and exits 0 only if every check
passes (exit 2 when a group enumeration hits its cap and is inconclusive).
"""

from __future__ import annotations

import inspect
import json
import math
import random
import sys
import time
from typing import NoReturn

import click

from quatbraid import algebra, braids, cover, diagrams, hecke, image_group, linktable
from quatbraid.braids import BraidWord, braided_span, markov_move_test, random_braid

REPORT_SCHEMA = "quatbraid-report-v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


def _fail(message: str) -> NoReturn:
    """Print a one-line error on stderr and exit 1."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_FAIL)


def _check_range(name: str, value: int, low: int, high: int | None = None) -> None:
    """ValueError naming the parameter unless low <= value (<= high, when given)."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def _emit(command: str, fields: dict, json_out=None) -> None:
    """Write the report for command to the open file json_out, or to stdout."""
    report = {"schema": REPORT_SCHEMA, "command": command, **fields}
    click.echo(json.dumps(report, indent=2, sort_keys=True), file=json_out)


class _Cli(click.Group):
    """The one error path: a usage error, a ValueError, an OSError or a
    RuntimeError (a failed internal guard) from any command becomes one
    `error:` line on stderr and exit code 1.  `group` and `suite` catch the
    RuntimeError EnumerationCapExceeded themselves and exit 2."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **{**kwargs, "standalone_mode": False})
        except click.ClickException as exc:
            _fail(exc.format_message())
        except click.Abort:
            _fail("aborted")
        except OSError as exc:
            _fail(f"{exc.filename}: {exc.strerror}" if exc.filename and exc.strerror else str(exc))
        except (ValueError, RuntimeError) as exc:
            _fail(str(exc))


# A --json-out file is opened while the flags are parsed, so an unwritable
# path fails before any check runs.
_OUTPUT = click.File("w", lazy=False)


@click.group(cls=_Cli, no_args_is_help=False)
def cli():
    """Exact verification tools for the quaternion-flavored braid representation."""


@cli.command()
@click.option("--n", "n_max", default=6, show_default=True, help="largest strand count")
@click.option("--json-out", type=_OUTPUT, default=None, help="write the JSON report here instead of stdout")
def verify(n_max, json_out):
    """Check braid/quadratic/idempotent relations and the conjugation table."""
    _check_range("--n", n_max, 3, braids.MAX_BRAIDED_STRANDS)
    checks = []
    for n in range(3, n_max + 1):
        checks += [dict(e, n=n) for e in hecke.verify_relations(n)]
        checks += [dict(e, n=n) for e in hecke.verify_conjugation_table(n)]
    ok = all(e["pass"] for e in checks)
    _emit("verify", {"pass": ok, "checks": checks}, json_out)
    sys.exit(EXIT_OK if ok else EXIT_FAIL)


@cli.command()
@click.option("--n", required=True, type=int)
def dim(n):
    """Subalgebra dimension by span closure vs the path-count model."""
    closure = hecke.subalgebra_dimension(n)
    paths = diagrams.hecke_dimension(3, 6, n)
    ok = closure == paths
    _emit("dim", {"n": n, "spanClosure": closure, "pathCount": paths, "pass": ok})
    sys.exit(EXIT_OK if ok else EXIT_FAIL)


@cli.command()
@click.option("--n", required=True, type=int)
def center(n):
    """Basis of the center of the word algebra."""
    _check_range("--n", n, 2, braids.MAX_STRANDS)  # algebra.center takes time about n^2
    words = algebra.center(n)
    _emit("center", {"n": n, "dimension": len(words), "basis": [str(w) for w in words]})


def _letter(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--word: {text!r} is not an integer letter") from None


@cli.command("invariant")
@click.option("--strands", required=True, type=int)
@click.option("--word", "word_str", required=True, help='letters, e.g. "1 1 1" or "1,-2,1,-2"')
def invariant_cmd(strands, word_str):
    """Closed-braid invariant of a braid word."""
    letters = tuple(_letter(x) for x in word_str.replace(",", " ").split())
    val = braids.invariant(BraidWord(strands, letters))
    _emit(
        "invariant",
        {"strands": strands, "word": list(letters), "value": val.to_json(), "normSq": str(val.norm_sq())},
    )


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--max", "max_elements", default=image_group.MAX_ELEMENTS, show_default=True,
              help="element cap for the BFS")
def group(n, max_elements):
    """Enumerate the signed-permutation image of the braid generators."""
    try:
        result = image_group.enumerate_group(n, max_elements)
    except image_group.EnumerationCapExceeded as exc:
        _emit("group", {"n": n, "conclusive": False, "cap": exc.cap, "partialElements": exc.partial})
        sys.exit(EXIT_INCONCLUSIVE)
    _emit("group", result)


# A level-n dimension is at most n!, and 1000! has 2568 digits, so every report up to
# this many levels stays below Python's 4300-digit limit for printing an int.
MAX_BRATTELI_LEVELS = 1000
# The k-1 row differences of a level's diagram sum to at most l-k, so a level holds at
# most C(l-1, k-1) diagrams.  At 1000 levels, k = 3 and l = 33 (C = 496) peaked at
# 288 MB and printed 47 MB; k = 5, l = 1000 passed 6 GB unbounded.
MAX_BRATTELI_DIAGRAMS = 500


def _check_bratteli_width(k: int, l: int) -> None:
    """ValueError when C(l-1, k-1) passes MAX_BRATTELI_DIAGRAMS (k < 1 or l <= k
    is left to `diagrams.bratteli_levels`)."""
    r = min(k - 1, l - k)
    # C(l-1, r) >= 2^r because 2r <= l-1, so a large r needs no binomial
    if r >= 0 and (r >= MAX_BRATTELI_DIAGRAMS.bit_length() or math.comb(l - 1, r) > MAX_BRATTELI_DIAGRAMS):
        raise ValueError(
            f"--k {k} --l {l} allow C(l-1, k-1) diagrams per level, more than {MAX_BRATTELI_DIAGRAMS}"
        )


@cli.command()
@click.option("--k", default=3, show_default=True)
@click.option("--l", default=6, show_default=True)
@click.option("--levels", default=7, show_default=True)
@click.option("--reduced", is_flag=True)
@click.option("--dot", "dot_out", default=None, help="write the top-cut graph as DOT")
def bratteli(k, l, levels, reduced, dot_out):
    """Level structure of the admissible-diagram Bratteli diagram."""
    _check_range("--levels", levels, 1, MAX_BRATTELI_LEVELS)
    _check_bratteli_width(k, l)
    if dot_out is not None and levels < 2:
        raise ValueError(f"--dot needs at least two levels, got --levels {levels}")
    lv = diagrams.bratteli_levels(k, l, levels, reduced=reduced)
    report = {
        "k": k,
        "l": l,
        "levels": [
            {
                "n": level.n,
                "nodes": ["".join(map(str, level.labels[d])) or "empty" for d in level.nodes],
                "pathCounts": {str(d): c for d, c in level.path_counts.items()},
                "dimension": level.dimension,
            }
            for level in lv
        ],
    }
    if dot_out is not None:
        nodes, edges = diagrams.level_cut(lv[-2], lv[-1])
        with open(dot_out, "w") as fh:
            fh.write(diagrams.to_dot(nodes, edges) + "\n")
        report["dot"] = dot_out
    _emit("bratteli", report)


@cli.command("cover-dim")
@click.option("--seifert", "seifert_path", required=True, help="JSON file with a matrix or a link table")
def cover_dim(seifert_path):
    """Mod-2 homology dimension of the 3-fold branched cover from a Seifert matrix."""
    data = linktable.read_json(seifert_path)
    if isinstance(data, dict) and "links" in data:
        report = {
            "entries": [
                {"name": e.name, "dim": cover.triple_cover_dim(e.seifert_rows)}
                for e in linktable.parse(data, seifert_path)
                if e.seifert is not None
            ]
        }
    else:
        report = {"dim": cover.triple_cover_dim(data)}
    _emit("cover-dim", report)


def run_suite(
    *,
    seed: int = 2026,
    relation_n_max: int = 6,
    dim_n_max: int = 5,
    group_n_max: int = 5,
    markov_braids: int = 500,
    max_group_elements: int = image_group.MAX_ELEMENTS,
    link_table_path: str | None = None,
) -> dict:
    """Full verification battery; returns the report dict.

    Raises ValueError before any check runs when a parameter is outside the
    range the checks support.
    """
    for name, low, high in [
        ("relation_n_max", 3, braids.MAX_BRAIDED_STRANDS),  # the relations need three strands
        ("dim_n_max", 2, hecke.MAX_DIMENSION_N),
        ("group_n_max", 2, image_group.MAX_N),
        ("markov_braids", 0, None),
        ("max_group_elements", 1, None),
    ]:
        _check_range(name, locals()[name], low, high)
    links = linktable.load_file(link_table_path) if link_table_path is not None else linktable.load_bundled()
    for index, entry in enumerate(links):
        try:
            braided_span(entry.braid)
        except ValueError as exc:
            source = "data/links.json" if link_table_path is None else link_table_path
            raise ValueError(f"{source}: link entry {index} ({entry.name!r}): {exc}") from None
    t0 = time.perf_counter()
    checks: list[dict] = []
    inconclusive = False

    def check(name, expected, actual, **extra):
        entry = {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        checks.append({**entry, **extra})

    # relations, conjugation table, cubes
    for n in range(3, relation_n_max + 1):
        rep = hecke.verify_relations(n) + hecke.verify_conjugation_table(n)
        check(f"relations[n={n}]", True, all(e["pass"] for e in rep))
    cube = next(e for e in hecke.verify_relations(2) if e["relation"] == "cube=-1")
    check("cube[n=2]", True, cube["pass"])

    # Markov trace and eta
    for n in range(3, 6):
        check(f"markov[n={n}]", True, all(e["pass"] for e in hecke.verify_markov(n)))
    check("eta(3,6)", ["1/2", "0"], diagrams.eta(3, 6).to_json())

    # dimensions, two independent routes, each built once for every n; levels
    # 1..7 serve bratteli-node-counts too
    levels = diagrams.bratteli_levels(3, 6, max(7, dim_n_max), reduced=True)
    for n, closure in enumerate(hecke.subalgebra_dimensions(dim_n_max), start=2):
        check(f"dimension[n={n}]", levels[n - 1].dimension, closure)

    # center
    for n, want in [(2, 1), (3, 4), (4, 1), (5, 1), (6, 4), (7, 1)]:
        check(f"center[n={n}]", want, len(algebra.center(n)))

    # group enumeration
    for n in range(2, group_n_max + 1):
        try:
            res = image_group.enumerate_group(n, max_group_elements)
        except image_group.EnumerationCapExceeded as exc:
            check(f"group[n={n}]", "terminating BFS", f"cap {exc.cap} exceeded", inconclusive=True)
            inconclusive = True
            continue
        check(f"group-terminates[n={n}]", True, res["conclusive"], levelSizes=res["levelSizes"])
        check(f"generator-orders[n={n}]", [3] * (n - 1), res["generatorOrders"])
        if n == 5:
            check("projective-order[n=5]", 25920, res["projectiveOrder"])

    # left-regular determinants
    for n in (2, 3):
        for i in range(1, n):
            d = image_group.left_regular_determinant(i, n)
            check(f"det-sixth-root[n={n},i={i}]", ["1", "0"], (d**6).to_json())

    # invariant vs branched-cover oracle, and vs the F4 closed form (-1)^(c-1) (-2)^nu
    for entry in links:
        beta = entry.braid
        val = braids.invariant(beta)
        if entry.seifert is not None:
            want = 2 ** cover.triple_cover_dim(entry.seifert_rows)
            check(f"invariant-magnitude[{entry.name}]", str(want), str(val.norm_sq()))
        ok = val == braids.closed_form(beta)
        # invariant(BraidWord(strands, word)) repeats a failure
        reproducer = {"link": entry.name, "strands": beta.strands, "word": list(beta.letters)}
        check(f"invariant-phase[{entry.name}]", True, ok, **({} if ok else {"reproducer": reproducer}))

    # Markov moves on random braids, and each braid's invariant vs the closed form
    rng = random.Random(seed)
    failed, mismatched = [], []
    for _ in range(markov_braids):
        beta = random_braid(rng)
        rep = markov_move_test(beta, trials=1, seed=rng.randrange(2**30))
        if not rep["pass"]:
            failed.append(rep)
        if rep["invariant"] != braids.closed_form(beta).to_json():
            mismatched.append(rep)

    def reproducer(reps):
        return {"reproducer": {key: reps[0][key] for key in ("strands", "word", "seed")}} if reps else {}

    # markov_move_test(BraidWord(strands, word), trials=1, seed=seed) repeats the first failure,
    # and braids.closed_form(BraidWord(strands, word)) the first mismatch
    check(f"markov-moves[{markov_braids} braids]", 0, len(failed), **reproducer(failed))
    check(f"closed-form[{markov_braids} braids]", 0, len(mismatched), **reproducer(mismatched))

    # Bratteli structure
    check("bratteli-node-counts", [1, 2, 3, 3, 3, 4, 3], [len(lv.nodes) for lv in levels[:7]])
    nodes, edges = diagrams.level_cut(levels[5], levels[6])
    check("principal-graph-E6(1)", True, diagrams.is_affine_e6(nodes, edges))

    ok = all(e["pass"] for e in checks)
    return {
        "schema": REPORT_SCHEMA,
        "command": "suite",
        "parameters": {
            "seed": seed,
            "relationNMax": relation_n_max,
            "dimNMax": dim_n_max,
            "groupNMax": group_n_max,
            "markovBraids": markov_braids,
            "maxGroupElements": max_group_elements,
        },
        "pass": ok,
        "inconclusive": inconclusive,
        "checks": checks,
        "wallTimeSeconds": round(time.perf_counter() - t0, 3),
    }


_SUITE_PARAMS = inspect.signature(run_suite).parameters


def _suite_option(flag: str, key: str):
    """An integer suite flag; it overrides the config only when given."""
    default = _SUITE_PARAMS[key].default
    return click.option(flag, key, type=int, default=None, help=f"overrides --config (default {default})")


def _read_config(path: str) -> dict:
    """Suite parameters from a JSON object whose keys are run_suite's parameter names."""
    config = linktable.read_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    for key, value in config.items():
        if key not in _SUITE_PARAMS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        kind = str if key == "link_table_path" else int
        if type(value) is not kind and not (value is None and _SUITE_PARAMS[key].default is None):
            raise ValueError(
                f"{path}: config key {key!r} must be {'a string' if kind is str else 'an integer'}"
            )
    return config


@cli.command()
@_suite_option("--seed", "seed")
@_suite_option("--group-n-max", "group_n_max")
@_suite_option("--dim-n-max", "dim_n_max")
@_suite_option("--markov-braids", "markov_braids")
@click.option("--max", "max_group_elements", default=None, type=int, help="group BFS element cap")
@click.option("--link-table", "link_table_path", default=None,
              help="path to a link-table JSON (default: bundled)")
@click.option("--config", "config_path", default=None, help="JSON config file; flags override")
@click.option("--json-out", type=_OUTPUT, default=None)
def suite(config_path, json_out, **flags):
    """Run the complete verification battery."""
    params = _read_config(config_path) if config_path else {}
    params.update({key: value for key, value in flags.items() if value is not None})
    report = run_suite(**params)
    for entry in report["checks"]:
        status = "PASS" if entry["pass"] else ("INCONCLUSIVE" if entry.get("inconclusive") else "FAIL")
        click.echo(f"[{status}] {entry['name']}: expected {entry['expected']}, got {entry['actual']}")
    click.echo(f"total: {len(report['checks'])} checks, pass={report['pass']}, "
               f"{report['wallTimeSeconds']}s")
    if json_out:
        _emit("suite", report, json_out)
    if report["pass"]:
        sys.exit(EXIT_OK)
    sys.exit(EXIT_INCONCLUSIVE if report["inconclusive"] else EXIT_FAIL)


def main():
    cli()


if __name__ == "__main__":
    main()
