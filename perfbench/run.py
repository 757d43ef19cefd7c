"""pqgen benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload {train,generate,evaluate} \\
        --seed N --seconds S --trace {0,1}

Runs in this interpreter, single-threaded (BLAS pinned to one thread by
`benchenv`), closed loop: one call at a time, the next only after the last
returned. It sets the workload up SETUPS times, runs whole rounds until the
next one would end after `--seconds`, then checks the first round's outputs;
later rounds must reproduce them exactly. Every time reported is scaled work
time (see `pace`).

With `--trace 0` the last line of stdout holds the end-to-end metrics. With
`--trace 1` the rounds run untraced for half the time, then one set-up and
one round run traced; the last line holds the per-layer metrics of the traced
part, with `trace.overhead_pct`, how much longer that set-up and round took.
The line before the last holds the run's details; both go to
`perfbench/out/`, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import benchenv  # noqa: F401  (must come before numpy)

import numpy as np


import layers
import pace
import spans
import workloads

SETUPS = 7
TAIL_QUANTILES = (99.9, 99.0, 90.0)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest of TAIL_QUANTILES with at least ten samples above it, as
    (quantile, value); None when even the 90th has fewer than ten. The value
    is the sample at the quantile's rank, so exactly the samples after it in
    sorted order lie beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for q in TAIL_QUANTILES:
        rank = int(n * q / 100.0 + 0.5)        # samples at or below the quantile
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = spans.Tracer()
    wl = workloads.WORKLOADS[workload](seed, tracer)
    clock = pace.Clock()
    setups: list[tuple[float, float]] = []
    rounds: list[tuple[float, float]] = []
    ops: list[tuple[float, float]] = []
    errors: list[str] = []
    first = None
    with clock.running():
        for _ in range(1 if trace else SETUPS):
            t0 = perf_counter()
            wl.setup()
            setups.append((t0, perf_counter()))
        budget = seconds / 2 if trace else seconds
        start = perf_counter()
        while not rounds or (perf_counter() - start
                             + statistics.median(b - a for a, b in rounds) <= budget):
            t0 = perf_counter()
            out = wl.round(ops)
            rounds.append((t0, perf_counter()))
            if first is None:
                first = out
            elif out != first:
                errors.append(f"round {len(rounds)} differs from round 1")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors.extend(wl.check(first))
        regimes = list(wl.clock.regimes) if workload == "train" else []
        attempted = len(ops)
        if trace:
            # Wrappers go in only now, so the untraced rounds pay nothing for them.
            layers.install(tracer)
            tracer.counts.clear()
            t0 = perf_counter()
            wl.setup()
            out = wl.round([])
            traced = (t0, perf_counter())
            tracer.restore()
            attempted += len(ops) // len(rounds)
            if out != first:
                errors.append("the traced round differs from round 1")

    setup_s, round_s, op_s = (clock.durations(x) for x in (setups, rounds, ops))
    step_ms = {r: [1000.0 * x for x, g in zip(op_s, regimes) if g == r]
               for r in dict.fromkeys(regimes)}
    info = {"workload": workload, "seed": seed, "rounds": len(rounds), "ops": len(ops),
            "round_s": round_s.tolist(), "round_raw_s": clock.durations(rounds, False).tolist(),
            "setup_s": setup_s.tolist(),
            "op_raw_ms_median": 1000.0 * float(np.median(clock.durations(ops, False))),
            "op_ms_tail": tail((1000.0 * op_s).tolist()),
            "ref_samples": len(clock.starts), "errors": errors[:20],
            "reference": wl.reference(first)}
    if step_ms:
        info["step_ms_median"] = {r: statistics.median(v) for r, v in step_ms.items()}
    if trace:
        overhead = 100.0 * (clock.durations([traced])[0]
                            / (np.median(setup_s) + np.median(round_s)) - 1.0)
        metrics = layers.per_layer(tracer, clock.scaled, step_ms, overhead)
    else:
        metrics = {"setup_s": (float(np.median(setup_s)), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "op_ms": (sum(map(statistics.median, step_ms.values())) if step_ms
                             else 1000.0 * float(np.median(op_s)), "ms"),
                   "round_s": (float(np.median(round_s)), "s")}

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    if trace:
        tracer.dump(stem + "-spans.npz")
    result = {"correct": not errors, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pqgen benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0 or ns.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
