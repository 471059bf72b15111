"""Chunked streams are semantically invisible: streamed == materialized.

The array engine (:meth:`ArrayEngine.run_streamed`) takes every input as
a :class:`repro.sim.PacketStream` — a materialized array is a one-chunk
stream — and promises bit-identical results for *every* chunking —
per-packet chunks, odd sizes, one whole-trace chunk — and every merge
window size, on both engines (the scalar engine materializes).  This
module pins that four ways:

* the six golden scenarios (IPv4/IPv6 × clean/faults/churn) replayed
  through streams at chunk sizes {1, 64, 4096, ∞} and diffed field by
  field against the materialized digest;
* the same scenarios with the merge window shrunk to a few packets, so
  slot blocks are recycled many times over, diffed against the golden
  digests;
* a Hypothesis property that cuts the same traces at *random* chunk
  boundaries — with faults and churn in play — and demands digest **and
  trace-stream** equality;
* unit pins for the stream primitives themselves: the resumable
  :class:`ArrivalClock` equals one-shot :func:`arrival_times` under any
  split, declared-length violations fail loudly, and
  :func:`random_stream` chunks are consumption-order independent.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CacheConfig, FaultSchedule, SpalConfig
from repro.errors import SimulationError
from repro.obs import Tracer
from repro.routing import random_small_table
from repro.routing.churn import generate_churn
from repro.sim import DEFAULT_CHUNK, PacketStream, SpalSimulator, random_stream
from repro.sim import array_engine
from repro.traffic.packets import ArrivalClock, arrival_times

from .conftest import result_digest
from .test_golden_results import GOLDEN_DIR, SCENARIOS, _build

CHUNK_SIZES = [1, 64, 4096, None]


def _run(table, config, streams, kwargs, engine="array", trace=False):
    tracer = Tracer() if trace else None
    sim = SpalSimulator(table, config=config, trace=tracer)
    digest = result_digest(sim.run(streams, engine=engine, **kwargs))
    return digest, (tracer.events if tracer is not None else None), sim


# -- golden scenarios through streams ----------------------------------------


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_streamed_bit_identical(name, chunk_size):
    table, config, streams, kwargs = _build(name)
    base, _, base_sim = _run(table, config, streams, kwargs)
    table, config, streams, kwargs = _build(name)
    chunked = [
        PacketStream.from_array(s, chunk_size=chunk_size) for s in streams
    ]
    got, _, sim = _run(table, config, chunked, kwargs)
    for key in base:
        assert got[key] == base[key], (
            f"{name} streamed (chunk={chunk_size}) drifted on {key!r}"
        )
    # Array runs keep counts only, materialized input or streamed;
    # len() and truthiness still work.
    for s in (base_sim, sim):
        assert len(s.completed) + len(s.dropped_packets) == sum(
            len(x) for x in streams
        )
        with pytest.raises(TypeError, match="counts only"):
            s.completed[0]


@pytest.mark.parametrize("window", [1, 5, 64])
@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_small_windows_bit_identical(name, window, monkeypatch):
    """Merge windows far smaller than the streams — so every LC
    contributes a few arrivals per window and slot blocks are recycled
    many times — still reproduce the golden digest."""
    monkeypatch.setattr(array_engine, "_WINDOW", window)
    table, config, streams, kwargs = _build(name)
    got, _, _ = _run(
        table, config,
        [PacketStream.from_array(s, chunk_size=37) for s in streams],
        kwargs,
    )
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert json.loads(json.dumps(got)) == want, f"{name} drifted"


@pytest.mark.parametrize("name", ["ipv4-faults", "ipv6-churn"])
def test_golden_streamed_scalar_materializes(name):
    """The scalar engine accepts streams by materializing them — same
    digest as feeding it the raw arrays."""
    table, config, streams, kwargs = _build(name)
    base, _, _ = _run(table, config, streams, kwargs, engine="scalar")
    table, config, streams, kwargs = _build(name)
    chunked = [PacketStream.from_array(s, chunk_size=64) for s in streams]
    got, _, sim = _run(table, config, chunked, kwargs, engine="scalar")
    assert got == base
    # Materialized path keeps real packet objects.
    assert sim.completed[0].complete_time >= 0


def test_streamed_trace_identical():
    """Tracer event streams — every ingress/hit/miss/fabric record in
    order — survive chunking."""
    table, config, streams, kwargs = _build("ipv4-faults")
    base, ev_base, _ = _run(table, config, streams, kwargs, trace=True)
    table, config, streams, kwargs = _build("ipv4-faults")
    chunked = [PacketStream.from_array(s, chunk_size=7) for s in streams]
    got, ev_got, _ = _run(table, config, chunked, kwargs, trace=True)
    assert got == base
    assert ev_got == ev_base


# -- random chunk boundaries (Hypothesis) ------------------------------------

_PROP_TABLE = random_small_table(120, seed=29, max_length=20)


def _prop_scenario(with_faults, with_churn):
    config = SpalConfig(
        n_lcs=3,
        cache=CacheConfig(n_blocks=32, victim_blocks=4),
        replicas=2,
        fe_lookup_cycles=5,
    )
    kwargs = {"warmup_packets": 10}
    if with_faults:
        kwargs["faults"] = (
            FaultSchedule(seed=5)
            .fail_lc(300, 1)
            .recover_lc(1800, 1)
            .degrade_fabric(200, 1200, extra_latency=1, drop_prob=0.1)
        )
    if with_churn:
        kwargs["updates"] = generate_churn(
            _PROP_TABLE, rate_per_s=5_000_000, horizon_cycles=3000, seed=9
        )
        kwargs["update_policy"] = "selective"
    return config, kwargs


def _cut_stream(dests: np.ndarray, cuts: list) -> PacketStream:
    """A stream over ``dests`` with arbitrary (irregular) chunk
    boundaries, including empty chunks."""
    bounds = sorted({c for c in cuts if 0 <= c <= len(dests)})
    edges = [0] + bounds + [len(dests)]

    def factory():
        for lo, hi in zip(edges, edges[1:]):
            yield dests[lo:hi]

    return PacketStream(len(dests), factory)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_random_chunk_boundaries_bit_identical(data):
    with_faults = data.draw(st.booleans(), label="faults")
    with_churn = data.draw(st.booleans(), label="churn")
    seed = data.draw(st.integers(0, 1000), label="seed")
    n = data.draw(st.integers(30, 160), label="n_packets")

    rng = np.random.default_rng(seed)
    raw = [
        rng.integers(0, 200, size=n).astype(np.uint64) for _ in range(3)
    ]

    config, kwargs = _prop_scenario(with_faults, with_churn)
    base, ev_base, _ = _run(
        _PROP_TABLE, config, [s.copy() for s in raw], kwargs, trace=True
    )

    cuts = [
        data.draw(
            st.lists(st.integers(0, n), max_size=8), label=f"cuts[{lc}]"
        )
        for lc in range(3)
    ]
    config, kwargs = _prop_scenario(with_faults, with_churn)
    streams = [_cut_stream(s, c) for s, c in zip(raw, cuts)]
    got, ev_got, _ = _run(_PROP_TABLE, config, streams, kwargs, trace=True)

    assert got == base
    assert ev_got == ev_base


# -- stream primitives -------------------------------------------------------


def test_arrival_clock_matches_one_shot():
    for speed in (10, 40):
        want = arrival_times(1000, speed_gbps=speed, seed=77)
        clock = ArrivalClock(speed, seed=77)
        parts = [clock.next(n) for n in (0, 1, 7, 250, 742)]
        np.testing.assert_array_equal(np.concatenate(parts), want)
        assert clock.emitted == 1000


def test_stream_underproduction_raises():
    s = PacketStream(10, lambda: iter([np.arange(4, dtype=np.uint64)]))
    sim = SpalSimulator(_PROP_TABLE, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError, match="declared 10 .* produced 4"):
        sim.run([s], engine="array")


def test_stream_overproduction_raises():
    s = PacketStream(3, lambda: iter([np.arange(9, dtype=np.uint64)]))
    sim = SpalSimulator(_PROP_TABLE, config=SpalConfig(n_lcs=1))
    with pytest.raises(SimulationError, match="declared 3"):
        sim.run([s], engine="array")


def test_stream_validation():
    with pytest.raises(SimulationError, match="non-negative"):
        PacketStream(-1, lambda: iter([]))
    with pytest.raises(SimulationError, match="positive"):
        PacketStream.from_array([1, 2], chunk_size=0)
    with pytest.raises(SimulationError, match="positive"):
        PacketStream.from_generator(4, lambda lo, n: np.zeros(n), 0)
    with pytest.raises(SimulationError, match="widths 1..64"):
        random_stream(4, width=128)


def test_materialize_round_trip():
    dests = np.arange(1000, dtype=np.uint64)
    for cs in (1, 17, None):
        s = PacketStream.from_array(dests, chunk_size=cs)
        np.testing.assert_array_equal(s.materialize(), dests)
        # Streams are reusable: a second pass yields the same data.
        np.testing.assert_array_equal(s.materialize(), dests)


def test_from_array_preserves_ipv6_object_dtype():
    dests = np.array([(0x2001 << 112) | i for i in range(5)], dtype=object)
    s = PacketStream.from_array(dests, chunk_size=2)
    out = s.materialize()
    assert out.dtype == object
    assert out[0] == (0x2001 << 112)


def test_random_stream_consumption_order_independent():
    s = random_stream(3 * DEFAULT_CHUNK // 2, width=32, seed=3)
    full = s.materialize()
    it = s.chunks()
    first = next(it)
    np.testing.assert_array_equal(first, full[: len(first)])
    # A fresh pass is unaffected by the half-consumed iterator above.
    np.testing.assert_array_equal(s.materialize(), full)
