"""quatbraid benchmark: run a workload and print its metrics.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root; quatbraid is imported from ./src.  Each
workload runs single-threaded in a fresh worker process (worker.py), one
operation at a time.  --trace 0 reports the end-to-end metrics, with times in
seconds at reference speed (speed.py); --trace 1 wraps quatbraid's public
functions and reports the per-layer metrics instead.  Set-up time is the
median over several fresh processes.  The metrics are printed by name with
their units, then a provenance line, then one JSON object as the last line.
The exit code is 1 when any verification failed and 2 when the program cannot
be found.  Results and traced spans are also written under perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("invariants", "closure", "group", "suite")
SETUP_PROBES = 4
RUN_LIMIT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the BENCHMARK.json metrics in section ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, without running git (which searches parents)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(numpy_version: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "env": {var: os.environ[var] for var in THREAD_VARS + ("PYTHONHASHSEED",)},
        "src_lines": src_lines,
    }


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [_worker(common + ["--setup-only"], deadline - time.monotonic()) for _ in range(SETUP_PROBES)]
    raw = _worker(common + ["--trace", str(trace)], deadline - time.monotonic())
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "passes": raw["passes"]}
    if trace:
        units = metric_units("per_layer")
        measured = raw["metrics"]
    else:
        units = metric_units("end_to_end")
        setups = probes + [raw]
        measured = dict(raw["metrics"], setup_s=median(p["setup_s"] for p in setups))
        detail.update(
            raw_wall_s=raw["raw_wall_s"],
            raw_setup_s=median(p["raw_setup_s"] for p in setups),
            kernel_s=raw["kernel_s"],
        )
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {key: {"value": measured[key], "unit": unit} for key, unit in units.items()},
    }
    detail.update(
        errors=raw["errors"],
        failed_frac=raw["failed"] / raw["attempted"],
        provenance=provenance(raw["numpy"]),
    )
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(dict(detail, result=result), indent=2) + "\n"
    )
    _print_table(result, detail)
    return result


def _print_table(result: dict, detail: dict):
    print(f"{detail['workload']} (seed {detail['seed']}, trace {detail['trace']}): "
          f"{detail['passes']} passes, {result['attempted']} verified results")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {detail['failed_frac']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    if not detail["trace"]:
        print(f"  times are at reference speed; unscaled: wall_s {detail['raw_wall_s']:.6g} s, "
              f"setup_s {detail['raw_setup_s']:.6g} s; reference kernel {detail['kernel_s']:.6g} s")
    for err in detail["errors"]:
        print(f"  FAILED: {err}")
    print(f"  provenance: {json.dumps(detail['provenance'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "quatbraid" / "__init__.py").is_file():
        print(f"error: no quatbraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
