"""Command-line entry point and machine-readable verification reports.

Every acceptance-level claim of the project is reproducible from here:
`quatbraid suite` runs the whole battery and exits 0 only if every check
passes (exit 2 when a group enumeration hits its cap and is inconclusive).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import NoReturn

import click

from quatbraid import algebra, cover, diagrams, hecke, image_group, linktable
from quatbraid.braids import BraidWord, invariant, markov_move_test, random_braid

REPORT_SCHEMA = "quatbraid-report-v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


def _max_group_elements(default: int = 2_000_000) -> int:
    raw = os.environ.get("QUATBRAID_MAX_GROUP_ELEMENTS", str(default))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"QUATBRAID_MAX_GROUP_ELEMENTS must be a positive integer, got {raw!r}")
    return cap


def _fail(message: str) -> NoReturn:
    """Print a one-line error on stderr and exit 1."""
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_FAIL)


def _emit(report: dict, json_out: str | None):
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def cli():
    """Exact verification tools for the quaternion-flavored braid representation."""


@cli.command()
@click.option("--n", "n_max", default=6, show_default=True, help="largest strand count")
@click.option("--json-out", default=None, help="write the JSON report here instead of stdout")
def verify(n_max, json_out):
    """Check braid/quadratic/idempotent relations and the conjugation table."""
    checks = []
    for n in range(3, n_max + 1):
        checks += [dict(e, n=n) for e in hecke.verify_relations(n)]
        checks += [dict(e, n=n) for e in hecke.verify_conjugation_table(n)]
    ok = all(e["pass"] for e in checks)
    _emit({"schema": REPORT_SCHEMA, "command": "verify", "pass": ok, "checks": checks}, json_out)
    sys.exit(EXIT_OK if ok else EXIT_FAIL)


@cli.command()
@click.option("--n", required=True, type=int)
def dim(n):
    """Subalgebra dimension by span closure vs the path-count model."""
    try:
        closure = hecke.subalgebra_dimension(n)
    except ValueError as exc:
        _fail(str(exc))
    paths = diagrams.hecke_dimension(3, 6, n)
    ok = closure == paths
    _emit(
        {
            "schema": REPORT_SCHEMA,
            "command": "dim",
            "n": n,
            "spanClosure": closure,
            "pathCount": paths,
            "pass": ok,
        },
        None,
    )
    sys.exit(EXIT_OK if ok else EXIT_FAIL)


@cli.command()
@click.option("--n", required=True, type=int)
def center(n):
    """Basis of the center of the word algebra."""
    try:
        words = algebra.center(n)
    except ValueError as exc:
        _fail(str(exc))
    _emit(
        {
            "schema": REPORT_SCHEMA,
            "command": "center",
            "n": n,
            "dimension": len(words),
            "basis": [str(w) for w in words],
        },
        None,
    )


@cli.command("invariant")
@click.option("--strands", required=True, type=int)
@click.option("--word", "word_str", required=True, help='letters, e.g. "1 1 1" or "1,-2,1,-2"')
def invariant_cmd(strands, word_str):
    """Closed-braid invariant of a braid word."""
    try:
        letters = tuple(int(x) for x in word_str.replace(",", " ").split())
        beta = BraidWord(strands, letters)
    except ValueError as exc:
        _fail(str(exc))
    val = invariant(beta)
    _emit(
        {
            "schema": REPORT_SCHEMA,
            "command": "invariant",
            "strands": strands,
            "word": list(letters),
            "value": val.to_json(),
            "normSq": str(val.norm_sq()),
        },
        None,
    )


@cli.command()
@click.option("--n", required=True, type=int)
@click.option("--max", "max_elements", default=None, type=int, help="element cap for the BFS")
def group(n, max_elements):
    """Enumerate the signed-permutation image of the braid generators."""
    try:
        cap = max_elements if max_elements is not None else _max_group_elements()
        result = image_group.enumerate_group(n, cap)
    except ValueError as exc:
        _fail(str(exc))
    except image_group.EnumerationCapExceeded as exc:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": "group",
                "n": n,
                "conclusive": False,
                "cap": exc.cap,
                "partialElements": exc.partial,
            },
            None,
        )
        sys.exit(EXIT_INCONCLUSIVE)
    _emit({"schema": REPORT_SCHEMA, "command": "group", **result}, None)


@cli.command()
@click.option("--k", default=3, show_default=True)
@click.option("--l", default=6, show_default=True)
@click.option("--levels", default=7, show_default=True)
@click.option("--reduced", is_flag=True)
@click.option("--dot", "dot_out", default=None, help="write the top-cut graph as DOT")
def bratteli(k, l, levels, reduced, dot_out):
    """Level structure of the admissible-diagram Bratteli diagram."""
    lv = diagrams.bratteli_levels(k, l, levels, reduced=reduced)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "bratteli",
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
    if dot_out and levels >= 2:
        nodes, edges = diagrams.principal_graph_cut(k, l, (levels - 1, levels), reduced=reduced)
        with open(dot_out, "w") as fh:
            fh.write(diagrams.to_dot(nodes, edges) + "\n")
        report["dot"] = dot_out
    _emit(report, None)


@cli.command("cover-dim")
@click.option("--seifert", "seifert_path", required=True, help="JSON file with a matrix or a link table")
def cover_dim(seifert_path):
    """Mod-2 homology dimension of the 3-fold branched cover from a Seifert matrix."""
    if not os.path.exists(seifert_path):
        _fail(f"no such file: {seifert_path}")
    data = json.loads(open(seifert_path).read())
    if isinstance(data, dict) and "links" in data:
        entries = linktable.load_file(seifert_path)
        out = [
            {"name": e.name, "dim": cover.triple_cover_dim(e.seifert_rows)}
            for e in entries
            if e.seifert is not None
        ]
        _emit({"schema": REPORT_SCHEMA, "command": "cover-dim", "entries": out}, None)
    else:
        _emit(
            {
                "schema": REPORT_SCHEMA,
                "command": "cover-dim",
                "dim": cover.triple_cover_dim(data),
            },
            None,
        )


def run_suite(
    *,
    seed: int = 2026,
    relation_n_max: int = 6,
    dim_n_max: int = 5,
    group_n_max: int = 5,
    markov_braids: int = 500,
    max_group_elements: int | None = None,
    link_table_path: str | None = None,
) -> dict:
    """Full verification battery; returns the report dict."""
    cap = max_group_elements if max_group_elements is not None else _max_group_elements()
    links = linktable.load_file(link_table_path) if link_table_path else linktable.load_bundled()
    t0 = time.time()
    checks: list[dict] = []
    inconclusive = False

    def check(name, expected, actual):
        checks.append(
            {"name": name, "expected": expected, "actual": actual, "pass": expected == actual}
        )

    # relations, conjugation table, cubes
    for n in range(3, relation_n_max + 1):
        rep = hecke.verify_relations(n) + hecke.verify_conjugation_table(n)
        check(f"relations[n={n}]", True, all(e["pass"] for e in rep))
    s = hecke.braid_generator(2, 1)
    check("cube[n=2]", True, s * s * s == -algebra.AlgebraElement.one(2))

    # Markov trace and eta
    for n in range(3, 6):
        check(f"markov[n={n}]", True, all(e["pass"] for e in hecke.verify_markov(n)))
    check("eta(3,6)", ["1/2", "0"], diagrams.eta(3, 6).to_json())

    # dimensions, two independent routes
    for n in range(2, dim_n_max + 1):
        check(
            f"dimension[n={n}]",
            diagrams.hecke_dimension(3, 6, n),
            hecke.subalgebra_dimension(n),
        )

    # center
    for n, want in [(2, 1), (3, 4), (4, 1), (5, 1), (6, 4), (7, 1)]:
        check(f"center[n={n}]", want, len(algebra.center(n)))

    # group enumeration
    for n in range(2, group_n_max + 1):
        try:
            res = image_group.enumerate_group(n, cap)
        except image_group.EnumerationCapExceeded as exc:
            checks.append(
                {
                    "name": f"group[n={n}]",
                    "expected": "terminating BFS",
                    "actual": f"cap {exc.cap} exceeded",
                    "pass": False,
                    "inconclusive": True,
                }
            )
            inconclusive = True
            continue
        check(f"group-terminates[n={n}]", True, res["conclusive"])
        check(f"generator-orders[n={n}]", [3] * (n - 1), res["generatorOrders"])
        if n == 5:
            check("projective-order[n=5]", 25920, res["projectiveOrder"])

    # left-regular determinants
    for n in (2, 3):
        for i in range(1, n):
            d = image_group.left_regular_determinant(i, n)
            check(f"det-sixth-root[n={n},i={i}]", ["1", "0"], (d**6).to_json())

    # invariant vs branched-cover oracle
    for entry in links:
        val = invariant(entry.braid)
        if entry.seifert is not None:
            want = Fraction(2 ** cover.triple_cover_dim(entry.seifert_rows))
            check(f"invariant-magnitude[{entry.name}]", str(want), str(val.norm_sq()))
        sq = val * val
        phase_ok = sq.is_rational() and (
            sq.a == val.norm_sq() or sq.a == -val.norm_sq()
        )
        check(f"invariant-phase[{entry.name}]", True, phase_ok)

    # Markov moves on random braids
    rng = random.Random(seed)
    failures = 0
    for _ in range(markov_braids):
        beta = random_braid(rng)
        rep = markov_move_test(beta, trials=1, seed=rng.randrange(2**30))
        if not rep["pass"]:
            failures += 1
    check(f"markov-moves[{markov_braids} braids]", 0, failures)

    # Bratteli structure
    levels = diagrams.bratteli_levels(3, 6, 7, reduced=True)
    check("bratteli-node-counts", [1, 2, 3, 3, 3, 4, 3], [len(lv.nodes) for lv in levels])
    nodes, edges = diagrams.principal_graph_cut(3, 6, (6, 7))
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
            "maxGroupElements": cap,
        },
        "pass": ok,
        "inconclusive": inconclusive,
        "checks": checks,
        "wallTimeSeconds": round(time.time() - t0, 3),
    }


@cli.command()
@click.option("--seed", default=2026, show_default=True)
@click.option("--group-n-max", default=5, show_default=True)
@click.option("--dim-n-max", default=5, show_default=True)
@click.option("--markov-braids", default=500, show_default=True)
@click.option("--max", "max_elements", default=None, type=int, help="group BFS element cap")
@click.option("--link-table", default=None, help="path to a link-table JSON (default: bundled)")
@click.option("--config", "config_path", default=None, help="JSON config file; flags override")
@click.option("--json-out", default=None)
def suite(seed, group_n_max, dim_n_max, markov_braids, max_elements, link_table, config_path, json_out):
    """Run the complete verification battery."""
    params = {}
    if config_path:
        if not os.path.exists(config_path):
            _fail(f"no such config: {config_path}")
        params.update(json.loads(open(config_path).read()))
    params.setdefault("seed", seed)
    params.setdefault("group_n_max", group_n_max)
    params.setdefault("dim_n_max", dim_n_max)
    params.setdefault("markov_braids", markov_braids)
    if max_elements is not None:
        params["max_group_elements"] = max_elements
    if params.get("max_group_elements") is None:
        try:
            params["max_group_elements"] = _max_group_elements()
        except ValueError as exc:
            _fail(str(exc))
    if link_table is not None:
        params["link_table_path"] = link_table
    if "link_table_path" in params and not os.path.exists(params["link_table_path"]):
        _fail(f"link table not found: {params['link_table_path']}")
    try:
        report = run_suite(**params)
    except TypeError as exc:
        _fail(f"bad config: {exc}")
    for entry in report["checks"]:
        status = "PASS" if entry["pass"] else ("INCONCLUSIVE" if entry.get("inconclusive") else "FAIL")
        click.echo(f"[{status}] {entry['name']}: expected {entry['expected']}, got {entry['actual']}")
    click.echo(f"total: {len(report['checks'])} checks, pass={report['pass']}, "
               f"{report['wallTimeSeconds']}s")
    if json_out:
        _emit(report, json_out)
    if report["pass"]:
        sys.exit(EXIT_OK)
    sys.exit(EXIT_INCONCLUSIVE if report["inconclusive"] else EXIT_FAIL)


def main():
    cli()


if __name__ == "__main__":
    main()
