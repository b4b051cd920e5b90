"""Run the benchmark over workloads and seeds, and summarise the spread.

    python3 bench/suite.py --seeds 1-10 --out .bench_out/suite.json
    python3 bench/suite.py --load .bench_out/suite.json --against bench/baselines/seed-untraced.json

Each (workload, seed) is one ``run.py`` run in its own process.  For every
end-to-end metric the summary gives the median over seeds, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  ``--against`` compares
medians with a saved set of runs and refuses when the two were measured on
different arithmetic backends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workloads, seeds, seconds, trace) -> list[dict]:
    records = []
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            path = out_dir / f"record-{workload}-{seed}-{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", str(path)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
            record = json.loads(path.read_text())
            path.unlink()
            records.append(record)
            res = record["result"]
            print(f"{workload} seed {seed} ({elapsed:.0f} s): "
                  f"failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if not trace), flush=True)
    return records


def values(records, workload, metric) -> list[float]:
    return [r["result"]["metrics"][metric]["value"]
            for r in records if r["workload"] == workload]


def spread(vals: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def backend_of(records) -> str:
    backends = {r["provenance"]["backend"] for r in records}
    if len(backends) != 1:
        sys.exit(f"refusing: records mix backends {sorted(backends)}")
    return backends.pop()


def summarise(records, against=None) -> None:
    backend = backend_of(records)
    if against is not None and backend_of(against) != backend:
        sys.exit(f"refusing to compare backend {backend} with {backend_of(against)}")
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed_frac {failed / attempted:.6g} "
              f"({failed}/{attempted})")
        for m in BENCHMARK["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = values(records, workload, name)
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            verdict = "ok" if sp < bound / 3 else "wide" if sp <= bound else "TOO WIDE"
            if name != "setup_s" and sp >= bound / 3:
                steady = False
            line = (f"  {name:16s} median {med:12.6g} {m['unit']:3s} "
                    f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {sp:6.3f} "
                    f"bound {bound:.2f} {verdict}")
            if against is not None:
                base = values(against, workload, name)
                if base:
                    change = med / statistics.median(base) - 1
                    if m["better"] == "higher":
                        change = -change
                    line += f" | vs base {change:+.3f} {'WORSE' if change > bound else ''}"
            print(line)
    print("\nsteady: every spread but setup_s's is below a third of its bound"
          if steady else "\nNOT steady: some spread is a third of its bound or more")


def main() -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the records (JSON) here")
    p.add_argument("--load", help="summarise saved records instead of running")
    p.add_argument("--against", help="saved records to compare medians with")
    args = p.parse_args()

    if args.load:
        records = json.loads(Path(args.load).read_text())["runs"]
    else:
        records = run(args.workloads.split(","), parse_seeds(args.seeds),
                      args.seconds, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n")
    if args.trace:
        return 0
    against = json.loads(Path(args.against).read_text())["runs"] if args.against else None
    summarise(records, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
