"""One fresh benchmark process: set up, signal readiness, run timed passes.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
the line ``ready {"speed", "sampler_s"}`` once set-up is done (the parent
times set-up up to it), then one JSON line with the timings of every
operation, elapsed and at reference speed (``speed.py``), the outputs'
checks, the peak RSS and, when traced, the per-layer summary.  The
program's own output goes to files under ``.bench_out/``, never to this
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen
import oracle
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

CLASSIFY_N = 5
# 120 distinct flags per run, one of each shape per batch of gen.SHAPES: a p90
# over them has 12 flags beyond it
CLASSIFY_FLAGS = 5 * gen.SHAPES
WARM_FLAGS = gen.SHAPES       # one of each shape, on a disjoint stream
AUDIT_N, AUDIT_SAMPLES = 4, 1
CENSUS_N = 6
# sha256 of `tnnflag cells --n 6` output; the CLI keeps it byte-identical
CENSUS_N6_SHA256 = "341b038e78a672d4874d5f10d5683f0b397b1dc7ec928211661609244ca4c7c9"


def import_tnnflag():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tnnflag
    import tnnflag.cli  # noqa: F401  (the package does not import its CLI)
    if Path(tnnflag.__file__).resolve().parent != src / "tnnflag":
        raise SystemExit(f"tnnflag imported from {tnnflag.__file__}, not {src}")
    return tnnflag


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Classify:
    """classify-n5: classify(borel_from(g)) over seeded SL_5 matrices.

    A pass classifies every one of the run's CLASSIFY_FLAGS flags once, so
    after several passes each flag has several latency samples.
    """

    def __init__(self, tnnflag, seed: int):
        self.t = tnnflag
        for _cls, g in gen.make_inputs(CLASSIFY_N, seed, "warm", WARM_FLAGS):
            self._classify(tnnflag.linalg.mat(g))
        self.inputs = gen.make_inputs(CLASSIFY_N, seed, "timed", CLASSIFY_FLAGS)
        self.mats = [tnnflag.linalg.mat(g) for _cls, g in self.inputs]
        # per flag: elapsed and reference-speed seconds of each call
        self.latencies: list[list[float]] = [[] for _ in self.inputs]
        self.ref_latencies: list[list[float]] = [[] for _ in self.inputs]
        self.results: list[list] = [[] for _ in self.inputs]

    def _classify(self, m):
        return self.t.richardson.classify(self.t.flag.borel_from(m))

    def run_pass(self, clock) -> float:
        start = perf_counter()
        for k, m in enumerate(self.mats):
            mark = clock.mark()
            result = self._classify(m)
            elapsed, ref = clock.since(mark)
            self.latencies[k].append(elapsed)
            self.ref_latencies[k].append(ref)
            self.results[k].append(result)
        return perf_counter() - start

    def check(self) -> dict:
        """Check every call: the first of each flag against the oracle, the
        repeats against the first."""
        failures, cells, classes, open_cell = [], set(), {}, 0
        n = CLASSIFY_N
        w0 = tuple(range(n, 0, -1))
        flags = [k for k, results in enumerate(self.results) if results]
        digests = {k: [_sha256(json.dumps(r.to_json(), sort_keys=True).encode())
                       for r in self.results[k]] for k in flags}
        for k in flags:
            (cls, g), r = self.inputs[k], self.results[k][0]
            index = (r.index.w, r.index.wp)
            expected = oracle.cell_of(g)
            nonneg = oracle.plucker_nonneg(g)
            problems = []
            if index != expected:
                problems.append(f"cell {index} != {expected}")
            if r.nonneg != nonneg:
                problems.append(f"nonneg {r.nonneg} != flag-minor test {nonneg}")
            if cls == "positive" and not r.nonneg:
                problems.append("positive product classified as not TNN")
            if r.nonneg and not all(c > 0 for c in r.coords):
                problems.append("nonneg verdict with a nonpositive coordinate")
            for rep, digest in enumerate(digests[k]):
                wrong = problems if digest == digests[k][0] else problems + [
                    f"repeat {rep} differs from the first call on the same flag"]
                if wrong:
                    failures.append({"op": rep * len(self.inputs) + k, "class": cls,
                                     "problems": wrong})
            cells.add(index)
            classes[cls] = classes.get(cls, 0) + 1
            open_cell += index == (tuple(range(1, n + 1)), w0)
        passes = max((len(d) for d in digests.values()), default=0)
        return {
            "attempted": sum(len(d) for d in digests.values()),
            "failures": failures,
            "digests": [digests[k][rep] for rep in range(passes) for k in flags
                        if rep < len(digests[k])],
            "inputs": {
                "class_share": {c: classes.get(c, 0) / len(flags) for c in gen.CLASSES},
                "open_cell_share": open_cell / len(flags),
                "distinct_cells": len(cells),
            },
        }


class Cli:
    """One `tnnflag` invocation per process, with cold caches."""

    def __init__(self, tnnflag, workload: str, seed: int):
        self.t = tnnflag
        self.workload = workload
        self.path = OUT_DIR / f"{workload}.json"
        if workload == "audit-n4":
            args = ["audit", "--n", str(AUDIT_N), "--samples", str(AUDIT_SAMPLES),
                    "--seed", str(seed)]
        else:
            args = ["cells", "--n", str(CENSUS_N)]
        self.argv = args + ["--output", str(self.path)]
        self.rc = None
        # one operation, the invocation: elapsed and reference-speed seconds
        self.latencies: list[list[float]] = [[]]
        self.ref_latencies: list[list[float]] = [[]]

    def run_pass(self, clock) -> float:
        mark = clock.mark()
        self.rc = self.t.cli.main(self.argv)
        elapsed, ref = clock.since(mark)
        self.latencies[0].append(elapsed)
        self.ref_latencies[0].append(ref)
        return elapsed

    def check(self) -> dict:
        # drop the unbounded chart caches before loading the output
        self.t.richardson.build_chart.cache_clear()
        self.t.weyl.bruhat_pairs.cache_clear()
        raw = self.path.read_bytes() if self.path.exists() else b""
        self.path.unlink(missing_ok=True)
        problems = [] if self.rc == 0 else [f"exit code {self.rc}"]
        if not problems:
            data = json.loads(raw)
            problems = (_check_audit(data) if self.workload == "audit-n4"
                        else _check_census(data, raw))
        failures = [{"op": 0, "problems": problems}] if problems else []
        return {"attempted": 1, "failures": failures, "digests": [_sha256(raw)]}


def _check_audit(data: dict) -> list[str]:
    problems = []
    expected = oracle.audit_samples_total(AUDIT_N, AUDIT_SAMPLES)
    for part, total in zip(("decomposition", "semigroup"), expected):
        report = data[part]
        if report["failures"]:
            problems.append(f"{part}: {len(report['failures'])} failures")
        if report["samples_total"] != total or report["samples_passed"] != total:
            problems.append(
                f"{part}: {report['samples_passed']}/{report['samples_total']} "
                f"samples passed, expected {total}")
    census = data["decomposition"]["cell_census"]
    problems += _check_cells(AUDIT_N, census)
    return problems


def _check_census(data: dict, raw: bytes) -> list[str]:
    cells = data["cells"]
    problems = _check_cells(CENSUS_N, [(c["w"], c["wp"], c["dim"]) for c in cells])
    if data["count"] != len(cells):
        problems.append(f"count {data['count']} != {len(cells)} cells")
    top = max(c["dim"] for c in cells)
    if data["top_dimensional_cells"] != sum(c["dim"] == top for c in cells):
        problems.append("top_dimensional_cells disagrees with the cell list")
    if _sha256(raw) != CENSUS_N6_SHA256:
        problems.append("output differs from the pinned cells --n 6 output")
    return problems


def _check_cells(n: int, cells) -> list[str]:
    """Every Bruhat pair exactly once, each with dim l(w') - l(w)."""
    problems = []
    seen = set()
    for w_str, wp_str, dim in cells:
        w = tuple(int(x) for x in w_str.split(","))
        wp = tuple(int(x) for x in wp_str.split(","))
        if (w, wp) in seen or not oracle.bruhat_leq(w, wp):
            problems.append(f"({w_str}; {wp_str}) repeated or not comparable")
        seen.add((w, wp))
        if dim != oracle.length(wp) - oracle.length(w):
            problems.append(f"({w_str}; {wp_str}) has dim {dim}")
    if len(seen) != oracle.BRUHAT_PAIRS[n]:
        problems.append(f"{len(seen)} cells, expected {oracle.BRUHAT_PAIRS[n]}")
    return problems[:20]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=0,
                   help="passes to run; with neither this nor --budget, only set up")
    p.add_argument("--budget", type=float, default=0.0,
                   help="then keep running passes while the next one fits in this many seconds")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()

    if args.trace:
        clock = speed.Clock()
    else:
        clock = speed.Sampler()
        clock.start()
    setup = clock.mark()
    tnnflag = import_tnnflag()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "classify-n5":
        work = Classify(tnnflag, args.seed)
    else:
        work = Cli(tnnflag, args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(tnnflag)
        tracer.install()
    elapsed, ref = clock.since(setup)
    # the parent times set-up up to this line; it scales that time by the
    # speed seen here, after taking out the sampler's own time
    print("ready " + json.dumps({"speed": ref / elapsed,
                                 "sampler_s": getattr(clock, "spent", 0.0)}), flush=True)

    walls: list[float] = []
    while len(walls) < args.passes or (args.budget and (
            not walls or sum(walls) + statistics.median(walls) <= args.budget)):
        walls.append(work.run_pass(clock))
    if not args.trace:
        clock.stop()
    rss = peak_rss_mb()

    result = {"walls": walls, "latencies": work.latencies,
              "ref_latencies": work.ref_latencies, "peak_rss_mb": rss,
              "backend": tnnflag.linalg.Rat.__module__,
              "attempted": 0, "failures": [], "digests": []}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    if walls:
        result.update(work.check())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
