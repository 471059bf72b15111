"""Tests for ORTC table aggregation (``ortc_table`` in routing.minimize).

The recursive expanded-trie constructor (``tests/ortc_oracle.py``) is the
independent oracle the packed-array pipeline must reproduce."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import Prefix, RoutingTable, random_small_table
from repro.routing.minimize import minimization_ratio, ortc_table

from .ortc_oracle import ortc_recursive


def assert_lpm_equivalent(original, aggregated, n_probes=400, seed=0):
    rng = np.random.default_rng(seed)
    for a in rng.integers(0, 1 << original.width, size=n_probes):
        a = int(a)
        assert aggregated.lookup(a) == original.lookup(a), hex(a)


class TestKnownCases:
    def test_mergeable_siblings(self):
        # Two /9 halves with the same hop collapse into one /8.
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        agg = ortc_table(table)
        assert len(agg) == 1
        assert agg.lookup(0x0A000001) == 1
        assert agg.lookup(0x0AFFFFFF) == 1
        assert agg.lookup(0x0B000001) == -1

    def test_redundant_child_removed(self):
        # A /16 with the same hop as its covering /8 is redundant.
        table = RoutingTable.from_strings(
            [("10.0.0.0/8", 1), ("10.1.0.0/16", 1), ("10.2.0.0/16", 2)]
        )
        agg = ortc_table(table)
        assert len(agg) < 3
        assert_lpm_equivalent(table, agg)

    def test_distinct_hops_not_merged(self):
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.128.0.0/9", 2)]
        )
        agg = ortc_table(table)
        assert_lpm_equivalent(table, agg)
        assert len(agg) == 2

    def test_null_route_hole(self):
        """A hole in a covering route needs an explicit null route; LPM
        equivalence must hold for addresses inside the hole."""
        table = RoutingTable.from_strings(
            [
                ("0.0.0.0/1", 1),
                ("0.0.0.0/2", 1),
                # The range 64.0.0.0/2 is covered by /1 only.
            ]
        )
        # Build a table where aggregation could be tempted to widen 1:
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.64.0.0/10", 1)]
        )
        agg = ortc_table(table)
        assert_lpm_equivalent(table, agg, seed=3)
        # Addresses just outside the original coverage stay unmatched.
        assert agg.lookup(0x0A800000) == -1

    def test_empty_table(self):
        agg = ortc_table(RoutingTable())
        assert len(agg) == 0

    def test_default_only(self):
        table = RoutingTable.from_strings([("0.0.0.0/0", 5)])
        agg = ortc_table(table)
        assert agg.lookup(0x12345678) == 5
        assert len(agg) == 1


class TestAtScale:
    def test_rt1_like_table_shrinks(self):
        table = random_small_table(800, seed=44, max_length=20)
        agg = ortc_table(table)
        assert len(agg) <= len(table)
        assert_lpm_equivalent(table, agg, seed=4)

    def test_backbone_table(self):
        from repro.routing import make_rt1

        table = make_rt1(size=3000)
        agg = ortc_table(table)
        assert len(agg) <= len(table)
        assert_lpm_equivalent(table, agg, n_probes=300, seed=5)

    def test_ratio(self):
        table = RoutingTable.from_strings(
            [("10.0.0.0/9", 1), ("10.128.0.0/9", 1)]
        )
        assert minimization_ratio(table, "ortc") == pytest.approx(2.0)
        assert minimization_ratio(RoutingTable(), "ortc") == 1.0

    def test_idempotent(self):
        table = random_small_table(200, seed=45)
        once = ortc_table(table)
        twice = ortc_table(once)
        assert len(twice) == len(once)


@st.composite
def tables(draw):
    routes = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << 32) - 1),
                st.integers(0, 32),
                st.integers(0, 7),
            ),
            min_size=1,
            max_size=25,
        )
    )
    table = RoutingTable()
    for value, length, hop in routes:
        mask = ((1 << length) - 1) << (32 - length) if length else 0
        table.update(Prefix(value & mask, length), hop)
    return table


class TestProperties:
    @given(tables(), st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_lpm_equivalence(self, table, addrs):
        agg = ortc_table(table)
        for a in addrs:
            assert agg.lookup(a) == table.lookup(a)

    @given(tables())
    @settings(max_examples=80, deadline=None)
    def test_never_larger(self, table):
        assert len(ortc_table(table)) <= len(table)

    @given(tables())
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, table):
        once = ortc_table(table)
        assert len(ortc_table(once)) == len(once)


class TestAggregationExperiment:
    @pytest.mark.slow
    def test_stages_and_monotonicity(self):
        from repro.experiments import run_aggregation

        result = run_aggregation(psi=8)
        assert len(result.rows) == 8  # 2 tables x 4 stages
        by_key = {(r["table"], r["stage"]): r for r in result.rows}
        for table in ("RT_1", "RT_2"):
            orig = by_key[(table, "original")]["routes"]
            agg = by_key[(table, "aggregated")]["routes"]
            coarse_agg = by_key[(table, "k=8 aggregated")]["routes"]
            assert agg <= orig
            # Fewer next-hop classes can only help aggregation.
            assert coarse_agg <= agg


class TestCompositionProperty:
    @given(tables(), st.integers(2, 6),
           st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_then_partition_preserves_lpm(self, table, psi, addrs):
        """E15's composition claim as a property: partitioning the
        aggregated table answers exactly like the original table."""
        from repro.core import partition_table

        agg = ortc_table(table)
        plan = partition_table(agg, psi)
        for a in addrs:
            home = plan.home_lc(a)
            assert plan.tables[home].lookup(a) == table.lookup(a)


class TestRecursiveOracle:
    def test_recursive_oracle_agrees(self):
        table = random_small_table(400, seed=9, max_length=18)
        ref = ortc_recursive(table)
        new = ortc_table(table)
        assert sorted(ref.routes()) == sorted(new.routes())
