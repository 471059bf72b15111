"""The benchmark's three workloads, timed from outside the simulator.

Every call into a layer goes through this module: the routing-table
generators (``repro.routing``), FIB minimisation
(``repro.routing.minimize``), the partitioner (``repro.core.partition``),
the reference matchers (``repro.tries``), the traffic generators
(``repro.traffic``), churn generation (``repro.routing.churn``), and
``SpalSimulator`` construction and ``run``.  Inside ``run`` only the
public ``phase_seconds``, ``SimulationResult`` and ``metrics_snapshot``
are read.

One workload run is a *repetition*: set up from scratch, then run.  The
untraced repetition takes the program path (``SpalSimulator`` builds its
own plan and matchers, and minimises when ``config.minimize`` is set).
The traced repetition calls minimisation, the partitioner and the
matchers one by one inside spans and injects the results (``plan=``,
``matchers=``, ``config.minimize=None``) — the same steps the program
path takes — so both report identical simulated statistics.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core import CacheConfig, FaultSchedule, SpalConfig, partition_table
from repro.routing import generate_churn, make_full_v4, make_rt2, minimize_table
from repro.sim import PacketStream, SpalSimulator
from repro.traffic import (
    FlowPopulation,
    arrival_times,
    generate_router_streams,
    trace_spec,
)
from repro.tries import HashReferenceMatcher

from spans import SpanRecorder

#: Offered load per line card (Gbps); arrivals are open-loop in
#: simulated time at this rate whatever the host speed.
SPEED_GBPS = 40

DROP_REASONS = ("ingress", "crash", "unreachable", "queue_full", "shed")

TABLES = {"rt2": make_rt2, "full_v4": make_full_v4}


class BenchmarkError(RuntimeError):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it was chosen."""

    name: str
    table: str
    table_size: int
    n_lcs: int
    cache_blocks: int
    trace: str
    packets_per_lc: int
    #: Packets per LC replayed with ``verify=True`` (correctness check 2).
    verify_packets_per_lc: int
    #: Fewest untraced set-ups per run; end-to-end host times are medians.
    reps: int
    #: Timed ``run`` calls per set-up.  Runs after the first reuse the
    #: set-up's plan on a fresh simulator, so this suits only workloads
    #: without faults or churn, whose runs leave the plan untouched.
    runs_per_setup: int = 1
    replicas: int = 1
    minimize: Optional[str] = None
    #: Chunk size of the ``PacketStream`` inputs; ``None`` = materialised
    #: arrays through ``run``'s array path.
    chunk: Optional[int] = None
    churn_rate_per_s: float = 0.0
    faults: bool = False
    fe_queue_capacity: Optional[int] = None
    fabric_queue_capacity: Optional[int] = None
    sample_interval_cycles: Optional[int] = None

    def config(self) -> SpalConfig:
        return SpalConfig(
            n_lcs=self.n_lcs,
            cache=CacheConfig(n_blocks=self.cache_blocks),
            replicas=self.replicas,
            fe_queue_capacity=self.fe_queue_capacity,
            fabric_queue_capacity=self.fabric_queue_capacity,
            sample_interval_cycles=self.sample_interval_cycles,
            minimize=self.minimize,
        )

    @property
    def warmup_packets(self) -> int:
        return self.packets_per_lc // 10

    @property
    def offered(self) -> int:
        return self.n_lcs * self.packets_per_lc


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="headline",
            table="rt2", table_size=20_000, n_lcs=8, cache_blocks=4096,
            trace="D_75", packets_per_lc=50_000,
            verify_packets_per_lc=5_000, reps=3,
        ),
        Workload(
            name="churn_faults",
            table="rt2", table_size=50_000, n_lcs=8, cache_blocks=1024,
            trace="L_92-0", packets_per_lc=20_000,
            verify_packets_per_lc=5_000, reps=2, replicas=2,
            chunk=8192, churn_rate_per_s=100_000.0, faults=True,
            fe_queue_capacity=64, fabric_queue_capacity=64,
            sample_interval_cycles=10_000,
        ),
        Workload(
            name="build_1m",
            table="full_v4", table_size=1_000_000, n_lcs=16,
            cache_blocks=4096, trace="L_92-0", packets_per_lc=20_000,
            verify_packets_per_lc=2_000, reps=1, runs_per_setup=5,
            minimize="full",
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    """Independent seeds for every RNG the benchmark feeds the program."""

    traffic: int
    churn: int
    faults: int

    @classmethod
    def derive(cls, seed: int, workload: str) -> "Seeds":
        state = np.random.SeedSequence(
            [seed, zlib.crc32(workload.encode())]
        ).generate_state(3)
        return cls(*(int(s) for s in state))


def horizon_estimate(packets_per_lc: int) -> int:
    """Last arrival cycle of a ``packets_per_lc`` stream at SPEED_GBPS:
    anchors the churn and fault schedules inside the run."""
    return int(arrival_times(packets_per_lc, speed_gbps=SPEED_GBPS, seed=0)[-1])


#: Fault roles (failed, slow, flap source, flap destination).  Fixed so
#: every seed sees the same fault topology: with the LCs drawn at random,
#: seeds that put the slow LC next to the failed one on the replica ring
#: saturate it and swing the mean lookup time by up to 75 %.
FAULT_LCS = (2, 5, 0, 6)


def fault_schedule(horizon: int, seed: int) -> FaultSchedule:
    """One LC failed and recovered, one slow LC and one flapping link;
    where each window starts is drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    failed, slow, src, dst = FAULT_LCS
    fail_at = int(rng.uniform(0.30, 0.40) * horizon)
    slow_at = int(rng.uniform(0.15, 0.25) * horizon)
    flap_at = int(rng.uniform(0.35, 0.45) * horizon)
    return (
        FaultSchedule(seed=seed)
        .fail_lc(fail_at, failed)
        .recover_lc(fail_at + horizon // 5, failed)
        .slow_lc(slow_at, slow_at + 2 * horizon // 5, slow, multiplier=3.0)
        .flap_link(flap_at, flap_at + horizon // 4, period=2048,
                   down_cycles=256, src=src, dst=dst)
    )


@dataclass
class Prepared:
    """Everything a repetition hands to ``SpalSimulator.run``."""

    table: object
    sim: SpalSimulator
    streams: List[np.ndarray]
    run_kwargs: dict
    #: The traced run's ``MinimizeState``, held for the repetition's life
    #: as the simulator holds its own on the program path: the memory it
    #: keeps alive slows later steps (the garbage collector walks it).
    minimize_state: object = None


def set_up(w: Workload, seeds: Seeds, rec) -> Prepared:
    """Generate inputs and construct the simulator; every layer call sits
    in its own span when ``rec`` records."""
    ppl = w.packets_per_lc
    with rec.span("routing.table"):
        table = TABLES[w.table](size=w.table_size)
    config = w.config()
    sim_table = table
    state = None
    inject = {}
    if rec.enabled:
        if w.minimize is not None:
            with rec.span("minimize"):
                state = minimize_table(table, w.minimize)
            sim_table = state.table
        with rec.span("partition"):
            plan = partition_table(
                sim_table,
                config.n_lcs,
                bits=config.partition_bits,
                pattern_oversubscription=config.pattern_oversubscription,
                replicas=config.replicas,
            )
        with rec.span("tries.build"):
            matchers = [HashReferenceMatcher(t) for t in plan.tables]
        config = replace(config, minimize=None)
        inject = {"plan": plan, "matchers": matchers}
    spec = replace(
        trace_spec(w.trace).scaled(w.n_lcs * ppl), seed=seeds.traffic
    )
    with rec.span("traffic.population"):
        population = FlowPopulation(spec, table)
    with rec.span("traffic.streams"):
        streams = generate_router_streams(population, w.n_lcs, ppl)
    horizon = horizon_estimate(ppl)
    run_kwargs = {"speed_gbps": SPEED_GBPS, "warmup_packets": w.warmup_packets}
    if w.churn_rate_per_s:
        with rec.span("churn.gen"):
            run_kwargs["updates"] = generate_churn(
                table, w.churn_rate_per_s, horizon, seed=seeds.churn
            )
        run_kwargs["update_policy"] = "selective"
    if w.faults:
        with rec.span("faults.schedule"):
            run_kwargs["faults"] = fault_schedule(horizon, seeds.faults)
    with rec.span("sim.init"):
        sim = SpalSimulator(sim_table, config, **inject)
    return Prepared(table, sim, streams, run_kwargs, state)


def as_inputs(w: Workload, streams: List[np.ndarray]) -> list:
    if w.chunk is None:
        return streams
    return [PacketStream.from_array(s, chunk_size=w.chunk) for s in streams]


@dataclass
class Repetition:
    setup_s: float
    run_s: float
    wall_s: float
    result: object
    sim: SpalSimulator
    prepared: Prepared
    recorder: object


def run_repetition(w: Workload, seeds: Seeds, rec) -> Repetition:
    """Set up and run once; ``rec`` is a SpanRecorder or NullRecorder."""
    start = time.perf_counter()
    with rec.span("workload"):
        with rec.span("setup"):
            prepared = set_up(w, seeds, rec)
        setup_s = time.perf_counter() - start
        inputs = as_inputs(w, prepared.streams)
        with rec.span("sim.run") as run_span:
            t0 = time.perf_counter()
            result = prepared.sim.run(inputs, **prepared.run_kwargs)
            run_s = time.perf_counter() - t0
        phases = prepared.sim.phase_seconds
        rec.add_children(run_span, {
            "sim.precompute": phases.get("precompute", 0.0),
            "sim.schedule": phases.get("schedule", 0.0),
            "sim.loop": phases.get("run", 0.0),
            "sim.collect": phases.get("collect", 0.0),
        })
    wall_s = time.perf_counter() - start
    return Repetition(setup_s, run_s, wall_s, result, prepared.sim,
                      prepared, rec)


def rerun(w: Workload, rep: Repetition) -> Repetition:
    """Run the repetition's inputs again on a fresh simulator that reuses
    its (minimised) table and plan; only ``run`` is timed.  The matchers
    are built afresh because they cache their batch-lookup structure on
    first use, which every run pays for."""
    matchers = [HashReferenceMatcher(t) for t in rep.sim.plan.tables]
    sim = SpalSimulator(rep.sim.table, replace(w.config(), minimize=None),
                        plan=rep.sim.plan, matchers=matchers)
    t0 = time.perf_counter()
    result = sim.run(as_inputs(w, rep.prepared.streams),
                     **rep.prepared.run_kwargs)
    run_s = time.perf_counter() - t0
    return replace(rep, run_s=run_s, result=result, sim=sim)


# -- simulated statistics ----------------------------------------------------


def completed_dropped(result) -> tuple:
    snap = result.metrics_snapshot
    return (int(snap["sim.packets{outcome=completed}"]),
            int(snap["sim.packets{outcome=dropped}"]))


def simulated_stats(rep: Repetition) -> dict:
    """Every simulated statistic and count of a repetition.

    Exact for a given seed: two runs of one seed must agree on all of it.
    The ``sim.minimize.*`` gauges are left out because only the program
    path (minimisation inside the simulator) publishes them.
    """
    r = rep.result
    snap = {k: v for k, v in r.metrics_snapshot.items()
            if not k.startswith("sim.minimize.")}
    return {
        "latencies": hashlib.sha256(r.latencies.tobytes()).hexdigest(),
        "horizon": r.horizon_cycles,
        "events": rep.sim.queue.processed,
        "cache_stats": r.cache_stats,
        "fe_lookups": r.fe_lookups,
        "fe_utilization": r.fe_utilization,
        "drops": r.drops,
        "retries": r.retries,
        "failover_packets": r.failover_packets,
        "timeseries": None if r.timeseries is None else r.timeseries.digest(),
        "snapshot": snap,
    }


def end_to_end_simulated(w: Workload, rep: Repetition) -> Dict[str, float]:
    lat = rep.result.latencies
    completed, _ = completed_dropped(rep.result)
    return {
        "lookup_cycles_mean": float(lat.mean()),
        "lookup_cycles_p50": float(np.percentile(lat, 50)),
        "lookup_cycles_p9999": float(np.percentile(lat, 99.99)),
        "delivered_share": completed / w.offered,
        "latency_samples": int(len(lat)),
    }


# -- correctness checks ------------------------------------------------------


def check_conservation(w: Workload, rep: Repetition) -> None:
    """Check 1: the engine's run-end audit passed (``run`` raises when it
    does not) and, seen from outside, every offered packet completed or
    was dropped for a counted reason."""
    completed, dropped = completed_dropped(rep.result)
    if completed + dropped != w.offered:
        raise BenchmarkError(
            f"conservation: {completed} completed + {dropped} dropped "
            f"!= {w.offered} offered"
        )
    counted = sum(rep.result.drops.values()) if rep.result.drops else 0
    if counted != dropped:
        raise BenchmarkError(
            f"conservation: drop taxonomy counts {counted}, "
            f"{dropped} packets dropped"
        )


def check_verified_slice(w: Workload, rep: Repetition) -> None:
    """Check 2: replay the first ``verify_packets_per_lc`` packets of each
    LC with ``verify=True``; the simulator raises on any next hop that
    differs from its whole-table oracle.

    When the workload minimises, the oracle is the minimised table, so
    the slice's destinations are also looked up in the original table
    and must get the same next hops.
    """
    n = w.verify_packets_per_lc
    streams = [s[:n] for s in rep.prepared.streams]
    kwargs = dict(rep.prepared.run_kwargs, warmup_packets=n // 10)
    config = w.config()
    if w.minimize is not None:
        sim_table = rep.sim.table
        plan = rep.sim.plan
        sim = SpalSimulator(
            sim_table, replace(config, minimize=None), verify=True,
            plan=plan,
            matchers=[HashReferenceMatcher(t) for t in plan.tables],
        )
        original = HashReferenceMatcher(rep.prepared.table).lookup
        minimised = HashReferenceMatcher(sim_table).lookup
        dests = [int(d) for d in np.concatenate(streams)]
        if [original(d) for d in dests] != [minimised(d) for d in dests]:
            raise BenchmarkError(
                "verify: the minimised table answers a slice destination "
                "differently from the original table"
            )
    else:
        sim = SpalSimulator(rep.prepared.table, config, verify=True)
    result = sim.run(as_inputs(w, streams), **kwargs)
    completed, dropped = completed_dropped(result)
    if completed + dropped != w.n_lcs * n:
        raise BenchmarkError("verify: slice packets unaccounted for")


def check_identical(label: str, a: dict, b: dict) -> None:
    """Check 3 (and repetition determinism): identical simulated stats."""
    if a != b:
        keys = sorted(k for k in a if a.get(k) != b.get(k))
        raise BenchmarkError(f"{label}: simulated statistics differ in {keys}")


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(w: Workload, traced: Repetition, untraced: Repetition
                  ) -> Dict[str, float]:
    rec: SpanRecorder = traced.recorder
    r = traced.result
    sim = traced.sim

    def seconds(name: str) -> float:
        return sum(s.duration for s in rec.by_name(name))

    events = sim.queue.processed
    loop_s = seconds("sim.loop")
    caches = [c for c in r.cache_stats if c]
    lookups = sum(c["lookups"] for c in caches)
    snap = r.metrics_snapshot
    rem_rt = snap.get("sim.rem.round_trip_cycles", {})
    plan = traced.prepared.sim.plan
    root = rec.by_name("workload")[0]
    structural = rec.self_time(root) + sum(
        rec.self_time(s) for s in rec.by_name("setup")
    )
    out = {
        "routing.table_s": seconds("routing.table"),
        "routing.prefixes": len(traced.prepared.table),
        "minimize.s": seconds("minimize"),
        "minimize.routes": len(sim.table) if w.minimize else 0,
        "partition.s": seconds("partition"),
        "partition.max_lc_routes": max(len(t) for t in plan.tables),
        "tries.build_s": seconds("tries.build"),
        "traffic.population_s": seconds("traffic.population"),
        "traffic.streams_s": seconds("traffic.streams"),
        "churn.gen_s": seconds("churn.gen"),
        "churn.updates_applied": r.update_events_applied,
        "churn.service_cycles": r.update_service_cycles,
        "churn.patches": r.update_patches,
        "churn.rebuilds": r.update_rebuilds,
        "churn.invalidation_msgs": r.invalidation_messages,
        "churn.entries_dropped": r.invalidation_entries_dropped,
        "churn.churn_misses": r.churn_misses,
        "sim.init_s": seconds("sim.init"),
        "sim.precompute_s": seconds("sim.precompute"),
        "sim.schedule_s": seconds("sim.schedule"),
        "sim.loop_s": loop_s,
        "sim.collect_s": seconds("sim.collect"),
        "sim.run_self_s": sum(rec.self_time(s) for s in rec.by_name("sim.run")),
        "sim.events": events,
        "sim.host_ns_per_event": loop_s / events * 1e9 if events else 0.0,
        "cache.lookups": lookups,
        "cache.hit_rate": r.overall_hit_rate,
        "cache.misses": sum(c["misses"] for c in caches),
        "cache.waiting_hits": sum(c["waiting_hits"] for c in caches),
        "cache.evictions": sum(c["evictions"] for c in caches),
        "fe.lookups": sum(r.fe_lookups),
        "fe.utilization_max": max(r.fe_utilization),
        "fe.backlog_max": max(r.extra["max_fe_backlog"]),
        "fabric.messages": r.fabric_messages,
        "fabric.dropped_messages": r.fabric_dropped_messages,
        "fabric.rem_rt_mean_cycles": float(rem_rt.get("mean", 0.0)),
        "faults.retries": r.retries,
        "faults.failover_packets": r.failover_packets,
        "obs.windows": 0 if r.timeseries is None else len(r.timeseries),
        "bench.trace_overhead_s": traced.wall_s - untraced.wall_s,
        "bench.span_coverage": 1.0 - structural / root.duration,
    }
    for reason in DROP_REASONS:
        out[f"faults.drops.{reason}"] = r.drops.get(reason, 0) if r.drops else 0
    return out


def median(values: List[float]) -> float:
    return float(statistics.median(values))
