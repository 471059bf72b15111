#!/usr/bin/env python3
"""Run one workload of the SPAL simulator benchmark and print its metrics.

    python3 spalbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured untraced: set-up and
run are repeated (at least the workload's ``reps`` times, and until
``--seconds`` of repetitions have been measured) and host times are
medians.  ``--trace 1`` runs the workload once untraced and once traced,
prints the per-layer metrics and writes the spans to
``.spalbench_out/spans-<workload>-seed<seed>.jsonl``.

Every run checks, outside the timed region, that the engine's
conservation audit holds, that a ``verify=True`` replay of a slice of the
workload matches the whole-table oracle, and that repeated (and, with
``--trace 1``, traced) runs of the seed report identical simulated
statistics.  A failed check exits with code 1 and a named error, without
printing a result.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".spalbench_out"

#: Simulated statistics among the end-to-end metrics: they repeat bit for
#: bit for a given seed.  The others are host measurements.
EXACT = {"lookup_cycles_mean", "lookup_cycles_p50", "lookup_cycles_p9999",
         "delivered_share"}


def units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure_untraced(w, seed: int, seconds: float):
    """Repetitions with tracing off; returns (metrics, attempted)."""
    import workloads as wl
    from spans import NullRecorder

    seeds = wl.Seeds.derive(seed, w.name)
    setups, rates, first_stats = [], [], None
    measured = 0.0
    rep = peak_rss_mib = None
    while len(setups) < w.reps or measured < seconds:
        rep = None  # free the previous repetition before timing the next
        gc.collect()
        rep = wl.run_repetition(w, seeds, NullRecorder())
        setups.append(rep.setup_s)
        measured += rep.wall_s
        if peak_rss_mib is None:
            # The first set-up and run; later ones reuse freed memory.
            peak_rss_mib = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        for i in range(w.runs_per_setup):
            run = wl.rerun(w, rep) if i else rep
            if i:
                measured += run.run_s
            rates.append(w.offered / run.run_s)
            stats = wl.simulated_stats(run)
            if first_stats is None:
                wl.check_conservation(w, run)
                first_stats = stats
            else:
                wl.check_identical("repeated run", first_stats, stats)
            del run
    wl.check_verified_slice(w, rep)
    sim = wl.end_to_end_simulated(w, rep)
    values = {
        "setup_s": wl.median(setups),
        "packets_per_s": wl.median(rates),
        "peak_rss_mib": peak_rss_mib,
        **sim,
    }
    print(f"{w.name}: seed {seed}, {len(setups)} set-ups, {len(rates)} runs "
          f"of {w.offered} packets, {sim['latency_samples']} measured "
          f"latency samples")
    print(f"  setup_s per set-up: {[round(s, 4) for s in setups]}")
    print(f"  packets_per_s per run: {[round(r) for r in rates]}")
    metrics = {}
    for name, unit in units("end_to_end").items():
        kind = "exact" if name in EXACT else "host"
        print(f"  {name:22s} {values[name]:>16.6f} {unit:10s} ({kind})")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, w.offered * len(rates)


def measure_traced(w, seed: int):
    """One untraced and one traced repetition; returns (metrics, attempted)."""
    import workloads as wl
    from spans import NullRecorder, SpanRecorder

    seeds = wl.Seeds.derive(seed, w.name)
    untraced = wl.run_repetition(w, seeds, NullRecorder())
    wl.check_conservation(w, untraced)
    wl.check_verified_slice(w, untraced)
    untraced_stats = wl.simulated_stats(untraced)
    untraced.sim = untraced.prepared = untraced.result = None
    gc.collect()
    rec = SpanRecorder(run_id=f"{w.name}-seed{seed}-{os.getpid()}")
    traced = wl.run_repetition(w, seeds, rec)
    wl.check_identical("traced vs untraced", untraced_stats,
                       wl.simulated_stats(traced))
    values = wl.layer_metrics(w, traced, untraced)
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{w.name}-seed{seed}.jsonl")
    print(f"{w.name}: seed {seed}, traced run (self time per span):")
    for name, s in sorted(rec.self_seconds().items(), key=lambda kv: -kv[1]):
        print(f"  {name:22s} {s:10.4f} s")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units("per_layer").items()}
    return metrics, 2 * w.offered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, one thread, the default engine.
    for var in ("REPRO_WORKERS", "REPRO_BATCH"):
        os.environ.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"spalbench: MissingProgramError: no simulator sources at "
              f"{SRC.relative_to(ROOT)}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl
    from repro.errors import SimulationError

    if args.workload not in wl.WORKLOADS:
        print(f"spalbench: UnknownWorkloadError: {args.workload!r} "
              f"(choose from {sorted(wl.WORKLOADS)})", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    start = time.perf_counter()
    try:
        if args.trace:
            metrics, attempted = measure_traced(w, args.seed)
        else:
            metrics, attempted = measure_untraced(w, args.seed, args.seconds)
    except (wl.BenchmarkError, SimulationError) as exc:
        print(f"spalbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"  (total {time.perf_counter() - start:.1f} s)")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
