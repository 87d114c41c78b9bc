"""The benchmark's workloads: seeded inputs and one verified pass each.

A pass returns one (start, end, error) item per verified result, timed on the
clock it is given; error is None when the result matched.  Every call into
quatbraid goes through a module attribute (``braids.invariant``, not a
from-import) so the tracer can wrap it.
"""

from __future__ import annotations

import random

from quatbraid import braids, cli, cover, diagrams, hecke, image_group, linktable

# Workloads whose latency samples are single items; the others have one
# sample per pass (a whole closure, group or suite verdict).
PER_ITEM_LATENCY = ("invariants",)

# invariants: 50 braids on each of 2..5 strands with 0..24 letters, each length
# twice, so a seed changes which letters appear but hardly how much work the
# pass does.  Conjugators have 1..6 letters, cycled the same way.  With the
# 7 link-table entries a pass has 207 latency samples, 10 of them beyond p95.
STRANDS = (2, 3, 4, 5)
BRAIDS_PER_STRANDS = 50
MAX_LETTERS = 24
MAX_CONJUGATOR = 6

# closure and group: n = 2..5 with the answers the paper states.
LEVELS = (2, 3, 4, 5)
CLOSURE_DIMENSIONS = {2: 2, 3: 6, 4: 22, 5: 86}
N5_IMAGE_ORDER = 77760
N5_PROJECTIVE_ORDER = 25920
MAX_GROUP_ELEMENTS = 2_000_000

# suite: reduced battery.  Its Markov braids come from the program's own
# random_braid, whose cost swings by a third between seeds, so the suite seed
# is fixed and the seeded braid work lives in `invariants`.
SUITE_CONFIG = {
    "seed": 2026,
    "relation_n_max": 6,
    "dim_n_max": 4,
    "group_n_max": 4,
    "markov_braids": 36,
    "max_group_elements": MAX_GROUP_ELEMENTS,
}


def _letters(rng: random.Random, strands: int, count: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) * rng.randint(1, strands - 1) for _ in range(count))


def make_inputs(name: str, seed: int):
    """The workload's inputs; the same seed always gives the same inputs."""
    if name == "invariants":
        rng = random.Random(seed)
        pairs = []
        for n in STRANDS:
            for k in range(BRAIDS_PER_STRANDS):
                beta = braids.BraidWord(n, _letters(rng, n, k % (MAX_LETTERS + 1)))
                gamma = braids.BraidWord(n, _letters(rng, n, 1 + k % MAX_CONJUGATOR))
                pairs.append((beta, gamma))
        rng.shuffle(pairs)
        return pairs
    if name in ("closure", "group"):
        return LEVELS
    if name == "suite":
        return dict(SUITE_CONFIG)
    raise ValueError(f"unknown workload {name!r}")


def load_links():
    return linktable.load_bundled()


def markov_moves(beta, gamma) -> list:
    """Invariants of one conjugate and of both stabilizations of beta."""
    return [
        braids.invariant(beta.conjugate_by(gamma)),
        braids.invariant(beta.stabilize(1)),
        braids.invariant(beta.stabilize(-1)),
    ]


def _is_power_of_two(q) -> bool:
    return q.denominator == 1 and q.numerator > 0 and q.numerator & (q.numerator - 1) == 0


def _check_braid(beta, gamma) -> str | None:
    value = braids.invariant(beta)
    if markov_moves(beta, gamma) != [value] * 3:
        return f"Markov move changed the invariant: strands={beta.strands} word={list(beta.letters)} conjugator={list(gamma.letters)}"
    if not _is_power_of_two(value.norm_sq()):
        return f"normSq {value.norm_sq()} is not a power of 2: strands={beta.strands} word={list(beta.letters)}"
    return None


def _check_link(entry) -> str | None:
    value = braids.invariant(entry.braid)
    want = 2 ** cover.triple_cover_dim(entry.seifert_rows)
    if value.norm_sq() != want:
        return f"link {entry.name}: normSq {value.norm_sq()} != 2^triple_cover_dim = {want}"
    return None


def _check_closure(n: int) -> str | None:
    dim = hecke.subalgebra_dimension(n)
    paths = diagrams.hecke_dimension(3, 6, n)
    if not dim == paths == CLOSURE_DIMENSIONS[n]:
        return f"n={n}: span closure {dim}, path count {paths}, expected {CLOSURE_DIMENSIONS[n]}"
    return None


def _check_group(n: int) -> str | None:
    res = image_group.enumerate_group(n, MAX_GROUP_ELEMENTS)
    problems = []
    if res["generatorOrders"] != [3] * (n - 1):
        problems.append(f"generator orders {res['generatorOrders']}")
    if res["imageOrder"] != res["projectiveOrder"] * res["centerOrder"]:
        problems.append("image order != projective order * center order")
    if n == 5 and (res["imageOrder"], res["projectiveOrder"]) != (N5_IMAGE_ORDER, N5_PROJECTIVE_ORDER):
        problems.append(f"orders {res['imageOrder']}/{res['projectiveOrder']}")
    return f"n={n}: " + "; ".join(problems) if problems else None


def _check_suite(config: dict) -> str | None:
    report = cli.run_suite(**config)
    if report["pass"] and not report["inconclusive"]:
        return None
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    return f"suite report failed (seed={config['seed']}): {failed}"


def run_pass(name: str, inputs, links, clock) -> list[tuple[float, float, str | None]]:
    """One pass to the workload's verified verdict, one item per checked result."""

    def timed(check, *args):
        start = clock()
        err = check(*args)
        return start, clock(), err

    if name == "invariants":
        items = [timed(_check_braid, beta, gamma) for beta, gamma in inputs]
        return items + [timed(_check_link, e) for e in links if e.seifert is not None]
    if name == "closure":
        return [timed(_check_closure, n) for n in inputs]
    if name == "group":
        return [timed(_check_group, n) for n in inputs]
    return [timed(_check_suite, inputs)]
