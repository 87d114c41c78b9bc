"""Run one workload in this fresh process and print its raw result as one JSON line.

run.py starts this script; it is not meant to be called by hand.  With
--setup-only it stops after set-up and reports only the set-up time.

Untraced runs report times in seconds at reference speed (see speed.py).
Traced runs report the per-layer metrics in plain seconds and counts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def load_program():
    """Import quatbraid from the checkout's src/ (and the workloads that drive it)."""
    sys.path.insert(0, str(ROOT / "src"))
    import quatbraid
    import workloads

    if Path(quatbraid.__file__).resolve().parent != (ROOT / "src" / "quatbraid").resolve():
        sys.exit(f"error: imported quatbraid from {quatbraid.__file__}, not from {ROOT / 'src'}")
    return workloads


def run_passes(run_pass, clock, seconds: float) -> list[tuple[float, float, list]]:
    """Closed loop of whole passes: at least one, more while the next one fits."""
    passes = []
    start = clock()
    while True:
        t0 = clock()
        items = run_pass()
        t1 = clock()
        passes.append((t0, t1, items))
        if t1 - start + (t1 - t0) > seconds:
            return passes


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, sampler: SpeedSampler, per_item: bool) -> dict:
    pass_s = [sampler.scaled(t0, t1) for t0, t1, _ in passes]
    if per_item:
        latencies = sorted(sampler.scaled(s, e) for _, _, items in passes for s, e, _ in items)
    else:
        latencies = sorted(pass_s)
    return {
        "wall_s": median(pass_s),
        "invariants_per_s": len(latencies) / sum(pass_s),
        "invariant_ms_p50": 1000 * median(latencies),
        "invariant_ms_p95": 1000 * percentile(latencies, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def untraced(args) -> dict:
    with SpeedSampler() as sampler:
        t0 = sampler.clock()
        workloads = load_program()
        inputs = workloads.make_inputs(args.workload, args.seed)
        links = workloads.load_links()
        t1 = sampler.clock()
        if not args.setup_only:
            passes = run_passes(
                lambda: workloads.run_pass(args.workload, inputs, links, sampler.clock),
                sampler.clock, args.seconds,
            )
    result = {
        "setup_s": sampler.scaled(t0, t1),
        "raw_setup_s": t1 - t0,
        "kernel_s": median(took for _, took in sampler.samples),
    }
    if not args.setup_only:
        per_item = args.workload in workloads.PER_ITEM_LATENCY
        result.update(
            metrics=end_to_end(passes, sampler, per_item),
            raw_wall_s=median(t1 - t0 for t0, t1, _ in passes),
            passes=passes,
        )
    return result


def traced(args) -> dict:
    """One untraced reference pass, then traced passes; counts from the first traced one."""
    workloads = load_program()
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.instrument(tracer, workloads)
    inputs = workloads.make_inputs(args.workload, args.seed)
    links = workloads.load_links()
    load_s = tracer.inclusive["linktable.load"]
    setup_spans = tracer.spans
    tracer.uninstall()

    def run_pass():
        return workloads.run_pass(args.workload, inputs, links, perf_counter)

    reference = run_passes(run_pass, perf_counter, 0)
    layers.instrument(tracer, workloads)
    snapshots = []
    first_spans = []

    def traced_pass():
        tracer.reset()
        items = run_pass()
        snapshots.append(layers.pass_metrics(tracer))
        if tracer.keep_spans:
            first_spans.extend(tracer.spans)
            tracer.keep_spans = False
        return items

    passes = run_passes(traced_pass, perf_counter, args.seconds)
    tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "columns": ["name", "start_s", "end_s", "parent"],
                   "setup": setup_spans, "pass1": first_spans}, fh)

    counts, _ = snapshots[0]
    metrics = dict(counts)
    for key in snapshots[0][1]:
        metrics[key] = median(times[key] for _, times in snapshots)
    traced_wall = median(t1 - t0 for t0, t1, _ in passes)
    metrics["linktable.load_s"] = load_s
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - (reference[0][1] - reference[0][0])
    return {"metrics": metrics, "passes": reference + passes}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    result = traced(args) if args.trace else untraced(args)
    if "passes" in result:
        passes = result.pop("passes")
        errors = [err for _, _, items in passes for _, _, err in items if err is not None]
        result.update(
            attempted=sum(len(items) for _, _, items in passes),
            failed=len(errors),
            errors=errors[:5],
            passes=len(passes),
            numpy=sys.modules["numpy"].__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
