"""tnnflag benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload classify-n5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``src/tnnflag`` is imported from
there.  The work runs in fresh worker processes (``worker.py``), so caches
and heap never carry over between runs, and each worker's set-up is timed.
Human-readable lines come first; the last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics when ``--trace 0`` and the per-layer metrics when ``--trace 1``.

Workloads (single process, one caller, closed loop):

- ``classify-n5``: ``classify(borel_from(g))`` on 120 seeded SL_5 flags,
  after warming the chart caches on a disjoint stream.  One worker runs
  passes over all 120 flags while the next pass fits in ``--seconds``.
- ``audit-n4``: ``tnnflag audit --n 4 --samples 1 --seed <seed>``, one pass
  per worker, cold caches, as many workers as fit in ``--seconds``.
- ``census-n6``: ``tnnflag cells --n 6``, likewise.

Times are at reference speed (``speed.py``): a sampler in each worker
measures the shared host's speed while the program runs, and each time is
scaled by it.  Every operation (one flag's classify call, or one CLI
invocation) is timed at its median over its repeats in the run; ``wall_s``
is the sum of those medians, one pass, and the latencies are percentiles
over them.  Set-up-only workers make ``setup_s`` a median of several
set-ups.  The elapsed (unscaled) figures are printed next to them.

``--trace 1`` runs one pass twice, in two workers: untraced, then traced.
The two outputs must be identical; the traced run's per-layer metrics come
with ``trace.overhead``, traced wall time over untraced wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("classify-n5", "audit-n4", "census-n6")
# set-up-only workers per run, so that set-up time is a median of several
SETUP_PROBES = {"classify-n5": 2, "audit-n4": 6, "census-n6": 6}
TRACE_PASSES = {"classify-n5": 1, "audit-n4": 1, "census-n6": 1}


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, *, budget=0.0, passes=0, trace=0) -> dict:
    """Run one worker; return its result with ``setup_s`` (spawn to ready,
    at reference speed) and ``setup_elapsed_s``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", str(budget),
           "--passes", str(passes), "--trace", str(trace)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    word, _, info = ready.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise BenchError(f"worker for {workload} failed with exit code {proc.returncode}")
    info = json.loads(info)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_elapsed_s"] = setup
    result["setup_s"] = (setup - info["sampler_s"]) * info["speed"]
    return result


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def provenance(backend: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tnnflag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def op_medians(results: list[dict], key: str) -> list[float]:
    """Each operation's median time over its repeats, in all the workers."""
    samples: dict[int, list[float]] = {}
    for r in results:
        for op, times in enumerate(r[key]):
            samples.setdefault(op, []).extend(times)
    return [statistics.median(times) for times in samples.values() if times]


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    results = [spawn(workload, seed) for _ in range(SETUP_PROBES[workload])]
    if workload == "classify-n5":
        results.append(spawn(workload, seed, budget=seconds))
    else:
        walls: list[float] = []
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            results.append(spawn(workload, seed, passes=1))
            walls += results[-1]["walls"]
    ops = op_medians(results, "ref_latencies")
    lat_ms = [x * 1000 for x in ops]
    elapsed = op_medians(results, "latencies")
    values = {
        "wall_s": sum(ops),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results if r["walls"]),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": p90(lat_ms),
    }
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in BENCHMARK["end_to_end"]}
    info = {"passes": sum(len(r["walls"]) for r in results), "operations": len(ops),
            "setups": len(results), "elapsed_wall_s": sum(elapsed),
            "elapsed_setup_s": statistics.median(r["setup_elapsed_s"] for r in results)}
    return results, {"metrics": metrics, "info": info,
                     "attempted": sum(r["attempted"] for r in results),
                     "failed": sum(len(r["failures"]) for r in results)}


def run_traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    passes = TRACE_PASSES[workload]
    plain = spawn(workload, seed, passes=passes)
    traced = spawn(workload, seed, passes=passes, trace=1)
    layer = dict(traced["trace"])
    layer["trace.overhead"] = sum(traced["walls"]) / sum(plain["walls"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    if set(layer) != set(units):
        raise BenchError(f"traced metrics differ from BENCHMARK.json: "
                         f"{sorted(set(layer) ^ set(units))}")
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    for op, (a, b) in enumerate(zip(plain["digests"], traced["digests"])):
        if a != b:
            traced["failures"].append(
                {"op": op, "problems": ["traced output differs from untraced output"]})
    # the same operations ran twice: count each failing one once
    failed_ops = {f["op"] for r in (plain, traced) for f in r["failures"]}
    info = {"untraced_wall_s": sum(plain["walls"]), "traced_wall_s": sum(traced["walls"]),
            "outputs_identical": plain["digests"] == traced["digests"]}
    return [plain, traced], {"metrics": metrics, "info": info,
                             "attempted": traced["attempted"], "failed": len(failed_ops)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record (JSON) to this file")
    args = p.parse_args()

    if not (ROOT / "src" / "tnnflag" / "__init__.py").is_file():
        print(f"error: no tnnflag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            results, summary = run_traced(args.workload, args.seed)
        else:
            results, summary = run_untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    backends = {r["backend"] for r in results}
    if len(backends) != 1:
        print(f"error: workers ran different backends {sorted(backends)}", file=sys.stderr)
        return 2
    prov = provenance(backends.pop())
    attempted, failed = summary["attempted"], summary["failed"]

    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k} {v}" for k, v in summary["info"].items()))
    for name, (value, unit) in summary["metrics"].items():
        print(f"  {name:44s} {value:.6g} {unit}")
    if args.workload == "classify-n5" and not args.trace:
        n_lat = summary["info"]["operations"]
        for q in ("p50", "p90"):
            value = summary["metrics"][f"latency_ms_{q}"][0]
            print(f"  classify_ms_{q:40s} {value:.6g} ms (n={n_lat})")
    if args.workload == "classify-n5":
        print("  inputs " + json.dumps(results[-1]["inputs"]))
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for f in [f for r in results for f in r["failures"]][:10]:
        print("  FAILED " + json.dumps(f), file=sys.stderr)

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "provenance": prov, "info": summary["info"],
                  "result": line, "workers": [
                      {k: v for k, v in r.items() if k not in ("trace", "digests")}
                      for r in results]}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
