"""Tests for the FIB-minimisation pipeline (routing.minimize).

The equivalence contract is the whole point: every pass set must preserve
the longest-prefix-match function exactly — against the dict table, against
all five matcher structures, through the partition plan, under churn, and
through a full simulation replay.  The recursive ORTC constructor
(``ortc_recursive`` in ``tests/ortc_oracle.py``) serves as the independent
oracle for *minimality*: the array pipeline must reproduce its output bit
for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import Prefix, RoutingTable, random_small_table
from repro.routing.churn import generate_churn
from repro.routing.minimize import (
    PASS_SETS,
    minimization_ratio,
    minimize_table,
    ordered_covering,
    ortc_table,
    remove_default_routes,
)
from repro.routing.table import NO_ROUTE, TableError
from repro.routing.updates import RouteUpdate
from repro.tries import (
    BinaryTrie,
    HashReferenceMatcher,
    LCTrie,
    LuleaTrie,
    MultibitTrie,
)

from .ortc_oracle import ortc_recursive

MATCHERS = (BinaryTrie, LCTrie, LuleaTrie, MultibitTrie, HashReferenceMatcher)


def probe_addresses(table, rng, n_extra=60):
    """Prefix boundaries plus random addresses — the discriminating set."""
    width = table.width
    addrs = set()
    for p in table.prefixes():
        addrs.add(p.value)
        addrs.add(p.last_address())
        if p.length < width:
            addrs.add(p.value | (1 << (width - p.length - 1)))
    for a in rng.integers(0, 1 << min(width, 63), size=n_extra):
        addrs.add(int(a))
    return sorted(addrs)


def assert_equivalent(original, candidate, addrs):
    for a in addrs:
        assert candidate.lookup(a) == original.lookup(a), hex(a)


@st.composite
def tables(draw, width=32, max_routes=22, max_length=None):
    if max_length is None:
        max_length = min(width, 12)
    routes = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.integers(0, max_length),
                st.integers(0, 5),
            ),
            min_size=0,
            max_size=max_routes,
        )
    )
    table = RoutingTable(width)
    for value, length, hop in routes:
        mask = ((1 << length) - 1) << (width - length) if length else 0
        table.update(Prefix(value & mask, length, width), hop)
    return table


class TestKnownCases:
    def test_mergeable_siblings(self):
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        out = minimize_table(table, "full").table
        assert len(out) == 1
        assert out.lookup(0x0A000001) == 1
        assert out.lookup(0x0B000001) == NO_ROUTE

    def test_default_route_absorbs_redundant_specifics(self):
        table = RoutingTable.from_strings(
            [("0.0.0.0/0", 7), ("10.0.0.0/8", 7), ("11.0.0.0/8", 2)]
        )
        out = remove_default_routes(table)
        assert len(out) == 2
        assert out.lookup(0x0A000001) == 7
        assert out.lookup(0x0B000001) == 2

    def test_ordered_covering_merges_and_prunes(self):
        # Sibling /9s with one hop collapse into the parent /8, whose own
        # conflicting entry is unreachable and must be replaced.
        table = RoutingTable.from_strings(
            [("10.0.0.0/8", 3), ("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        out = ordered_covering(table)
        assert len(out) == 1
        assert out.lookup(0x0A000001) == 1
        assert out.lookup(0x0AFFFFFF) == 1

    def test_null_route_emitted_for_hole(self):
        # ORTC may widen a route and must then re-open the hole with an
        # explicit null route; equivalence includes the unmatched space.
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.64.0.0/10", 1)]
        )
        out = ortc_table(table)
        assert out.lookup(0x0A800000) == NO_ROUTE
        assert out.lookup(0x0A000001) == 1

    def test_empty_table(self):
        for mode in PASS_SETS:
            state = minimize_table(RoutingTable(), mode)
            assert len(state.table) == 0
            assert state.stats.ratio == 1.0
        assert minimization_ratio(RoutingTable()) == 1.0

    def test_unknown_pass_set_rejected(self):
        with pytest.raises(TableError):
            minimize_table(RoutingTable(), "fastest")

    def test_stats_are_populated(self):
        table = random_small_table(300, seed=7, max_length=18)
        stats = minimize_table(table, "full").stats
        assert stats.original_routes == len(table)
        assert stats.after_pass["defaults"] >= stats.after_pass["ortc"]
        assert stats.minimized_routes == stats.after_pass["oc"]
        assert stats.ratio >= 1.0
        assert stats.build_seconds >= 0.0


class TestMinimalityOracle:
    """The array ORTC must reproduce the recursive reference exactly."""

    @given(tables(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_recursive_ipv4(self, table, data):
        ref = ortc_recursive(table)
        new = ortc_table(table)
        assert sorted(ref.routes()) == sorted(new.routes())

    @given(tables(width=128, max_routes=14, max_length=16))
    @settings(max_examples=50, deadline=None)
    def test_matches_recursive_ipv6(self, table):
        ref = ortc_recursive(table)
        new = ortc_table(table)
        assert sorted(ref.routes()) == sorted(new.routes())

    def test_full_equals_ortc_size(self):
        # "full" adds cheap pre/post passes but cannot beat ORTC's
        # proven minimum — nor fall short of it.
        table = random_small_table(500, seed=11, max_length=20)
        assert len(minimize_table(table, "full").table) == len(
            ortc_table(table)
        )


class TestEquivalenceProperties:
    @pytest.mark.parametrize("mode", sorted(PASS_SETS))
    @given(table=tables(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookup_equivalence_ipv4(self, mode, table, data):
        state = minimize_table(table, mode)
        assert len(state.table) <= len(table)
        rng = np.random.default_rng(0)
        assert_equivalent(table, state.table, probe_addresses(table, rng))

    @pytest.mark.parametrize("mode", sorted(PASS_SETS))
    @given(table=tables(width=128, max_routes=12, max_length=20))
    @settings(max_examples=25, deadline=None)
    def test_lookup_equivalence_ipv6(self, mode, table):
        state = minimize_table(table, mode)
        rng = np.random.default_rng(1)
        assert_equivalent(table, state.table, probe_addresses(table, rng))

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, table):
        once = minimize_table(table, "full").table
        twice = minimize_table(once, "full").table
        assert sorted(once.routes()) == sorted(twice.routes())


class TestMatcherEquivalence:
    @pytest.mark.parametrize("factory", MATCHERS)
    def test_all_matchers_agree_on_minimized_table(self, factory):
        table = random_small_table(600, seed=23, max_length=22)
        minimized = minimize_table(table, "full").table
        matcher = factory(minimized)
        rng = np.random.default_rng(5)
        for a in probe_addresses(table, rng, n_extra=300):
            assert matcher.lookup(a) == table.lookup(a), hex(a)

    def test_partition_preserves_equivalence(self):
        from repro.core import partition_table

        table = random_small_table(500, seed=31, max_length=20)
        minimized = minimize_table(table, "full").table
        plan = partition_table(minimized, 8)
        rng = np.random.default_rng(6)
        for a in probe_addresses(table, rng, n_extra=200):
            home = plan.home_lc(a)
            assert plan.tables[home].lookup(a) == table.lookup(a)


class TestChurn:
    @given(
        table=tables(max_routes=16),
        ops=st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1),
                st.integers(0, 10),
                st.integers(-1, 5),  # -1 = withdraw
            ),
            min_size=1,
            max_size=10,
        ),
        mode=st.sampled_from(sorted(PASS_SETS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_update_stays_equivalent(self, table, ops, mode):
        state = minimize_table(table, mode)
        evolved = table.copy()
        for value, length, hop in ops:
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            prefix = Prefix(value & mask, length)
            if hop < 0:
                if prefix not in evolved:
                    continue
                evolved.remove(prefix)
                state.apply_update(RouteUpdate(prefix, None))
            else:
                evolved.update(prefix, hop)
                state.apply_update(RouteUpdate(prefix, hop))
            rng = np.random.default_rng(2)
            addrs = probe_addresses(evolved, rng, n_extra=40)
            assert_equivalent(evolved, state.table, addrs)
            assert_equivalent(evolved, state.original_table(), addrs)

    def test_withdraw_absent_raises(self):
        state = minimize_table(RoutingTable(), "full")
        with pytest.raises(TableError):
            state.apply_update(RouteUpdate(Prefix.from_string("10.0.0.0/8"), None))

    def test_translate_schedule_validates_and_preserves_timing(self):
        table = random_small_table(400, seed=13, max_length=18)
        schedule = generate_churn(
            table, rate_per_s=100_000, horizon_cycles=1_000_000, seed=3
        )
        assert len(schedule) > 0
        state = minimize_table(table, "full")
        minimized_before = state.table.copy()
        translated = state.translate_schedule(schedule)
        # Translation runs on a clone: the state itself is untouched.
        assert sorted(state.table.routes()) == sorted(
            minimized_before.routes()
        )
        # The translated diff is applicable in order to the minimised
        # table (ChurnSchedule.validate replays it).
        translated.validate(minimized_before)
        # Ops may amplify (merged entries split) but timestamps come from
        # the original events only.
        original_cycles = {e.cycle for e in schedule.events()}
        assert {e.cycle for e in translated.events()} <= original_cycles


class TestSimulationReplay:
    """Golden scenarios replayed with minimisation armed: every delivered
    hop must match the original table (enforced by verify=True against the
    minimised oracle plus the equivalence property), and the run must
    complete the same packet population as the unminimised baseline."""

    @pytest.mark.parametrize("engine", ["array", "scalar"])
    @pytest.mark.parametrize("name", ["ipv4-clean", "ipv4-churn", "ipv6-clean"])
    def test_golden_scenarios_with_minimize(self, name, engine):
        from repro.sim import SpalSimulator

        from .test_golden_results import _build

        table, config, streams, kwargs = _build(name)
        minimized_config = dataclasses.replace(
            config, minimize="full", replicas=1
        )
        baseline = SpalSimulator(
            table, dataclasses.replace(config, replicas=1)
        ).run(streams, engine=engine, **dict(kwargs))
        sim = SpalSimulator(table, minimized_config, verify=True)
        result = sim.run(streams, engine=engine, **dict(kwargs))
        # verify=True raises on any served-hop/oracle mismatch; the oracle
        # is the minimised table, equivalent to the original by the
        # properties above.  The population-level aggregates must agree.
        assert result.packets == baseline.packets
        assert result.total_drops == baseline.total_drops
        # The minimised table answers the full stream like the original.
        minimized = sim.table
        for stream in streams:
            for a in stream:
                assert minimized.lookup(int(a)) == table.lookup(int(a))

    def test_run_spal_identity(self):
        from repro.experiments.common import run_spal

        base = run_spal("D_81", 4, packets_per_lc=400)
        mini = run_spal("D_81", 4, packets_per_lc=400, minimize="full")
        assert mini.packets == base.packets
        assert mini.total_drops == base.total_drops

    def test_minimize_metrics_registered(self):
        from repro.core import SpalConfig
        from repro.sim import SpalSimulator

        table = random_small_table(120, seed=3, max_length=16)
        sim = SpalSimulator(table, SpalConfig(n_lcs=2, minimize="full"))
        snap = sim.obs.snapshot()
        assert snap["sim.minimize.original_routes"] == len(table)
        assert snap["sim.minimize.ratio"] >= 1.0
        assert sim.minimize_stats is not None

    def test_plan_injection_rejected_with_minimize(self):
        from repro.core import SpalConfig, partition_table
        from repro.errors import SimulationError
        from repro.sim import SpalSimulator

        table = random_small_table(120, seed=4, max_length=16)
        plan = partition_table(table, 2)
        with pytest.raises(SimulationError):
            SpalSimulator(
                table, SpalConfig(n_lcs=2, minimize="full"), plan=plan
            )

    def test_bad_minimize_mode_rejected(self):
        from repro.core import SpalConfig
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            SpalConfig(minimize="fastest").validate()
