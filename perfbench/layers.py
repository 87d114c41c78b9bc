"""Which quatbraid functions the traced run wraps, and the per-layer metrics.

Each metric is for one pass.  Counts come from the first traced pass (they
repeat exactly for a seed); times are medians over the traced passes.
"""

from __future__ import annotations

from quatbraid import algebra, braids, cli, cover, diagrams, gf2, hecke, image_group, linktable
from quatbraid.algebra import AlgebraElement
from quatbraid.image_group import SignedPermutation
from quatbraid.scalar import Scalar

DIAGRAM_ENTRY_POINTS = (
    "admissible_diagrams", "path_counts", "hecke_dimension", "eta", "bratteli_levels",
    "principal_graph_cut", "tree_canonical_arms", "is_affine_e6", "to_dot",
)
COVER_ENTRY_POINTS = (
    "triple_cover_presentation", "triple_cover_dim", "double_cover_determinant", "symplectic_check",
)

COUNT_METRICS = (
    "scalar.mul_calls", "scalar.inverse_calls", "algebra.mul_calls", "algebra.term_pairs",
    "hecke.generator_builds", "hecke.closure_products", "braids.letters",
    "image_group.compose_calls", "gf2.calls",
)


def instrument(tracer, bench) -> None:
    """Wrap quatbraid's public functions, plus the benchmark's own Markov-move helper."""
    t = tracer
    counts = t.counts

    def count(key):
        def bump(args):
            counts[key] += 1
        return bump

    def add_result(key, get=lambda r: r):
        def add(result):
            counts[key] += get(result)
        return add

    t.patch_method(Scalar, "__mul__", lambda f: t.counted("scalar.mul_calls", f))
    t.patch_method(Scalar, "inverse", lambda f: t.counted("scalar.inverse_calls", f))

    def before_mul(args):
        counts["algebra.mul_calls"] += 1
        if t.active("hecke.closure"):
            counts["hecke.closure_products"] += 1

    t.patch_method(AlgebraElement, "__mul__", lambda f: t.spanned("algebra.mul", f, before=before_mul))
    t.patch_function(algebra, "mul_words", lambda f: t.counted("algebra.term_pairs", f))
    t.patch_function(algebra, "center", lambda f: t.spanned("algebra.center", f))

    for fn in ("braid_generator", "braid_generator_inverse"):
        t.patch_function(hecke, fn, lambda f: t.counted("hecke.generator_builds", f))
    t.patch_function(hecke, "subalgebra_dimension", lambda f: t.spanned(
        "hecke.closure", f, after=add_result("hecke.closure_dimension")))
    for fn in ("verify_relations", "verify_conjugation_table", "verify_markov"):
        t.patch_function(hecke, fn, lambda f: t.spanned("hecke.verify", f))

    def add_letters(args):
        counts["braids.letters"] += len(args[0].letters)

    t.patch_function(braids, "evaluate", lambda f: t.spanned("braids.evaluate", f, before=add_letters))
    t.patch_function(braids, "markov_move_test", lambda f: t.spanned("braids.markov", f))
    t.patch_function(bench, "markov_moves", lambda f: t.spanned("braids.markov", f))

    t.patch_function(image_group, "conjugation_action", lambda f: t.spanned("image_group.conjugation_action", f))
    t.patch_function(image_group, "enumerate_group", lambda f: t.spanned(
        "image_group.enumerate", f, after=add_result("image_group.order", lambda r: r["imageOrder"])))
    t.patch_method(SignedPermutation, "compose", lambda f: t.counted("image_group.compose_calls", f))
    for fn in ("left_regular_determinant", "left_regular_matrix", "exact_determinant"):
        t.patch_function(image_group, fn, lambda f: t.spanned("image_group.det", f))

    for fn in DIAGRAM_ENTRY_POINTS:
        t.patch_function(diagrams, fn, lambda f: t.spanned("diagrams", f))
    for fn in COVER_ENTRY_POINTS:
        t.patch_function(cover, fn, lambda f: t.spanned("cover", f))
    for fn in ("rank", "nullity", "nullspace"):
        t.patch_function(gf2, fn, lambda f: t.spanned("gf2", f, before=count("gf2.calls")))

    t.patch_function(cli, "run_suite", lambda f: t.spanned("cli.run_suite", f))
    for fn in ("load_bundled", "load_file"):
        t.patch_function(linktable, fn, lambda f: t.spanned("linktable.load", f))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer) -> tuple[dict[str, float], dict[str, float]]:
    """(counts and ratios, times) of the pass recorded since the tracer's last reset."""
    c, inc, own = tracer.counts, tracer.inclusive, tracer.self_time
    counts = {key: c[key] for key in COUNT_METRICS}
    counts["hecke.closure_useful_ratio"] = _ratio(c["hecke.closure_dimension"], c["hecke.closure_products"])
    counts["image_group.bfs_useful_ratio"] = _ratio(c["image_group.order"], c["image_group.compose_calls"])
    times = {
        "algebra.mul_s": inc["algebra.mul"],
        "algebra.center_s": inc["algebra.center"],
        "hecke.closure_s": inc["hecke.closure"],
        "hecke.verify_s": inc["hecke.verify"],
        "braids.evaluate_s": inc["braids.evaluate"],
        "braids.markov_s": inc["braids.markov"],
        "image_group.conjugation_action_s": inc["image_group.conjugation_action"],
        "image_group.enumerate_self_s": own["image_group.enumerate"],
        "image_group.det_s": inc["image_group.det"],
        "diagrams.s": inc["diagrams"],
        "cover.s": inc["cover"],
        "cli.run_suite_self_s": own["cli.run_suite"],
    }
    return counts, times
