"""Tests for the discrete-event engine and the SPAL cycle simulator."""

import gc

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.core import CacheConfig, SpalConfig
from repro.routing import random_small_table
from repro.sim import (
    ConventionalSimulator,
    EventQueue,
    Resource,
    SpalSimulator,
    cache_only_simulator,
    conventional_mean_cycles,
    conventional_mpps,
)
from repro.traffic import FlowPopulation, TraceSpec, generate_router_streams


@pytest.fixture(scope="module")
def table():
    return random_small_table(300, seed=60)


def streams_for(table, n_lcs, n_packets, seed=1, **spec_kw):
    spec = TraceSpec("test", n_flows=400, seed=seed, **spec_kw)
    pop = FlowPopulation(spec, table)
    return generate_router_streams(pop, n_lcs, n_packets)


class TestEventQueue:
    def test_ordering_and_stability(self):
        q = EventQueue()
        out = []
        q.schedule(5, out.append, "b")
        q.schedule(3, out.append, "a")
        q.schedule(5, out.append, "c")
        q.run()
        assert out == ["a", "b", "c"]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(2, lambda: q.schedule(1, lambda: None))
        with pytest.raises(SimulationError):
            q.run()

    def test_run_until(self):
        q = EventQueue()
        out = []
        for t in (1, 5, 9):
            q.schedule(t, out.append, t)
        q.run(until=5)
        assert out == [1, 5]
        q.run()
        assert out == [1, 5, 9]

    def test_handler_scheduling_more_events(self):
        q = EventQueue()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                q.schedule(q.now + 1, chain, n + 1)

        q.schedule(0, chain, 0)
        q.run()
        assert out == [0, 1, 2, 3]


class TestResource:
    def test_serialization(self):
        r = Resource()
        assert r.acquire(0, 10) == (0, 10)
        assert r.acquire(5, 10) == (10, 20)  # queued behind the first
        assert r.acquire(50, 10) == (50, 60)  # idle gap

    def test_utilization(self):
        r = Resource()
        r.acquire(0, 30)
        assert r.utilization(60) == pytest.approx(0.5)
        assert r.utilization(0) == 0.0


class TestSpalSimulator:
    def test_all_packets_complete(self, table):
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256, victim_blocks=4)),
        )
        result = sim.run(streams_for(table, 4, 500), name="t")
        assert result.packets == 2000
        assert (result.latencies >= 1).all()

    def test_latency_bounds(self, table):
        """A cache hit costs ≥1 cycle; a worst-case miss is bounded by FE
        time plus queueing plus two fabric transits."""
        sim = SpalSimulator(
            table,
            SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=1024)),
        )
        result = sim.run(streams_for(table, 2, 800))
        assert result.mean_lookup_cycles >= 1.0
        assert result.max_lookup_cycles >= 40

    def test_cache_lowers_mean_latency(self, table):
        cached = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=1024))
        ).run(streams_for(table, 4, 1000))
        uncached = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=None)
        ).run(streams_for(table, 4, 1000))
        assert cached.mean_lookup_cycles < uncached.mean_lookup_cycles

    def test_hit_rate_reported(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=2048))
        )
        result = sim.run(streams_for(table, 2, 2000, recency=0.3))
        assert 0.3 < result.overall_hit_rate <= 1.0

    def test_wrong_stream_count(self, table):
        sim = SpalSimulator(table, SpalConfig(n_lcs=4))
        with pytest.raises(SimulationError):
            sim.run(streams_for(table, 2, 10))

    def test_flush_mid_run(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=512))
        )
        result = sim.run(
            streams_for(table, 2, 1000), flush_cycles=[2000, 4000]
        )
        assert result.flushes == 2
        assert result.packets == 2000  # flushes lose no packets

    def test_flush_hurts_latency(self, table):
        streams = streams_for(table, 2, 1500, seed=9)
        quiet = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=1024))
        ).run([s.copy() for s in streams])
        noisy = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=1024))
        ).run(
            [s.copy() for s in streams],
            flush_cycles=list(range(500, 8000, 500)),
        )
        assert noisy.mean_lookup_cycles > quiet.mean_lookup_cycles

    def test_10gbps_slower_arrivals(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=512))
        )
        result = sim.run(streams_for(table, 2, 500), speed_gbps=10)
        # Mean interarrival 40 cycles -> horizon near 40*500.
        assert result.horizon_cycles >= 35 * 500

    def test_remote_sharing_cuts_fe_load(self, table):
        """The same popular destinations hit at all LCs; with sharing, each
        home LC computes a result once and the caches serve the rest."""
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=2048))
        )
        result = sim.run(streams_for(table, 4, 2000, recency=0.2))
        assert sum(result.fe_lookups) < result.packets * 0.7

    def test_fabric_traffic_counted(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=256))
        )
        result = sim.run(streams_for(table, 4, 500))
        assert result.fabric_messages > 0

    def test_early_recording_reduces_fabric_traffic(self, table):
        streams = streams_for(table, 4, 1500, seed=11, recency=0.35)
        on = SpalSimulator(
            table,
            SpalConfig(
                n_lcs=4, cache=CacheConfig(n_blocks=512), early_recording=True
            ),
        ).run([s.copy() for s in streams])
        off = SpalSimulator(
            table,
            SpalConfig(
                n_lcs=4, cache=CacheConfig(n_blocks=512), early_recording=False
            ),
        ).run([s.copy() for s in streams])
        assert on.fabric_messages <= off.fabric_messages

    def test_deterministic(self, table):
        def once():
            sim = SpalSimulator(
                table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
            )
            return sim.run(streams_for(table, 2, 600)).mean_lookup_cycles

        assert once() == once()

    @pytest.mark.parametrize("engine", ["array", "scalar"])
    def test_run_pauses_cyclic_gc(self, table, engine):
        """Inside ``run`` the only collection is the one young-generation
        pass on the way out, even at a threshold that starts one per
        allocation; the collector's state comes back afterwards: enabled
        after a run and after a run that raises, disabled (and never
        started) when the caller had disabled it."""
        streams = streams_for(table, 2, 300)
        config = SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=64))
        starts = []
        recording = [False]

        def count(phase, info):
            if phase == "start" and recording[0]:
                starts.append(info["generation"])

        def run(sim):
            recording[0] = True
            try:
                sim.run(streams, engine=engine)
            finally:
                recording[0] = False

        was_enabled = gc.isenabled()
        threshold = gc.get_threshold()
        gc.callbacks.append(count)
        try:
            gc.enable()
            gc.set_threshold(1)
            sim = SpalSimulator(table, config)
            run(sim)
            assert starts == [0]
            assert gc.isenabled()
            starts.clear()
            with pytest.raises(SimulationError, match="single-use"):
                sim.run(streams, engine=engine)
            assert gc.isenabled()
            gc.disable()
            run(SpalSimulator(table, config))
            assert starts == []
            assert not gc.isenabled()
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestBaselines:
    def test_conventional_analytic(self):
        assert conventional_mean_cycles(40) == 40.0
        # 40 cycles = 200 ns -> 5 Mpps per LC (paper Sec. 5.2).
        assert conventional_mpps(16, 40) == pytest.approx(80.0)

    def test_conventional_simulated_saturates_at_40g(self, table):
        sim = ConventionalSimulator(n_lcs=2, fe_lookup_cycles=40)
        result = sim.run(streams_for(table, 2, 500), speed_gbps=40)
        # Offered interarrival ~10 cycles < 40-cycle service: queue builds.
        assert result.mean_lookup_cycles > 100

    def test_conventional_stable_at_10g(self, table):
        sim = ConventionalSimulator(n_lcs=2, fe_lookup_cycles=40)
        result = sim.run(streams_for(table, 2, 500), speed_gbps=10)
        # Offered 40-cycle interarrival ~= service rate: no blow-up.
        assert result.mean_lookup_cycles < 400

    def test_conventional_validation(self):
        with pytest.raises(SimulationError):
            ConventionalSimulator(0)
        with pytest.raises(SimulationError):
            ConventionalSimulator(2, fe_lookup_cycles=0)

    def test_cache_only_all_local(self, table):
        sim = cache_only_simulator(
            table, SpalConfig(n_lcs=4, cache=CacheConfig(n_blocks=512))
        )
        result = sim.run(streams_for(table, 4, 500))
        assert result.fabric_messages == 0
        assert result.packets == 2000

    def test_spal_beats_cache_only(self, table):
        """Partitioning + sharing must beat caches alone at equal size:
        the paper's central claim."""
        streams = streams_for(table, 8, 1500, seed=13)
        spal = SpalSimulator(
            table, SpalConfig(n_lcs=8, cache=CacheConfig(n_blocks=256))
        ).run([s.copy() for s in streams])
        only = cache_only_simulator(
            table, SpalConfig(n_lcs=8, cache=CacheConfig(n_blocks=256))
        ).run([s.copy() for s in streams])
        assert spal.mean_lookup_cycles < only.mean_lookup_cycles

    def test_length_partitioned_storage(self, table):
        from repro.sim import LengthPartitionedRouter

        router = LengthPartitionedRouter(table)
        assert router.per_lc_prefixes() == len(table)
        assert 0 < router.largest_subset_share() <= 1.0
        assert sum(router.subset_sizes().values()) == len(table)


class TestResultSummary:
    def test_summary_fields(self, table):
        sim = SpalSimulator(
            table, SpalConfig(n_lcs=2, cache=CacheConfig(n_blocks=256))
        )
        result = sim.run(streams_for(table, 2, 400))
        s = result.summary()
        assert s["packets"] == 800
        assert s["mean_cycles"] > 0
        assert s["router_mpps"] > 0
        assert result.percentile(50) <= result.percentile(99)
        assert result.mean_lookup_ns == pytest.approx(
            result.mean_lookup_cycles * 5.0
        )


class TestEngineLimits:
    def test_max_events_stops_early(self):
        from repro.sim import EventQueue

        q = EventQueue()
        out = []
        for t in range(10):
            q.schedule(t, out.append, t)
        q.run(max_events=4)
        assert len(out) == 4
        q.run()
        assert len(out) == 10

    def test_latency_timeline(self):
        import numpy as np
        from repro.sim.results import SimulationResult

        r = SimulationResult(
            name="t",
            n_lcs=1,
            latencies=np.array([10, 10, 2, 2], dtype=np.int64),
            horizon_cycles=100,
        )
        assert r.latency_timeline(2) == [10.0, 2.0]
        import pytest as _pt

        with _pt.raises(ValueError):
            r.latency_timeline(0)
