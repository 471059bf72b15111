"""The Prefix-walking SPAL partitioner, kept as an independent oracle for
:func:`repro.core.partition.partition_table` and
:func:`repro.core.partition.select_partition_bits`.

It is the literal reading of paper Sec. 3.1: bit selection keeps each
subset as a list of :class:`~repro.routing.Prefix` objects and scores every
candidate with :func:`~repro.core.partition.score_bit`; the per-LC tables
are filled pattern by pattern with ``RoutingTable.update``, so a route that
several held patterns share keeps its first place.  Quadratic-ish and
object-heavy — small tables only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.partition import (
    PartitionPlan,
    assign_patterns_to_lcs,
    patterns_of_prefix,
    score_bit,
)
from repro.errors import PartitionError
from repro.routing import Prefix, RoutingTable
from repro.routing.table import NextHop


def select_partition_bits_oracle(
    table: RoutingTable,
    n_bits: int,
    candidate_positions: Optional[Sequence[int]] = None,
) -> List[int]:
    """Reference bit selection over per-subset Prefix lists."""
    if n_bits == 0:
        return []
    width = table.width
    candidates = list(
        range(width) if candidate_positions is None else candidate_positions
    )
    if n_bits > len(candidates):
        raise PartitionError(
            f"cannot choose {n_bits} bits from {len(candidates)} candidates"
        )
    chosen: List[int] = []
    # Each subset is the multiset of prefixes compatible with one bit
    # pattern over the chosen bits (wildcards replicated into both).
    subsets: List[List[Prefix]] = [table.prefixes()]
    for _ in range(n_bits):
        best_position = -1
        best_key: Optional[Tuple[int, int, int]] = None
        for position in candidates:
            if position in chosen:
                continue
            sizes: List[int] = []
            for subset in subsets:
                score = score_bit(subset, position)
                sizes.append(score.zeros + score.wildcard)
                sizes.append(score.ones + score.wildcard)
            key = (max(sizes), sum(sizes), max(sizes) - min(sizes))
            if best_key is None or key < best_key:
                best_key = key
                best_position = position
        chosen.append(best_position)
        next_subsets: List[List[Prefix]] = []
        for subset in subsets:
            zeros: List[Prefix] = []
            ones: List[Prefix] = []
            for prefix in subset:
                if best_position >= prefix.length:
                    zeros.append(prefix)
                    ones.append(prefix)
                elif (prefix.value >> (prefix.width - 1 - best_position)) & 1:
                    ones.append(prefix)
                else:
                    zeros.append(prefix)
            next_subsets.extend((zeros, ones))
        subsets = next_subsets
    return chosen


def partition_table_oracle(
    table: RoutingTable,
    n_lcs: int,
    bits: Optional[Sequence[int]] = None,
    candidate_positions: Optional[Sequence[int]] = None,
    pattern_oversubscription: Optional[int] = None,
    replicas: int = 1,
) -> PartitionPlan:
    """Reference plan: dict-backed per-LC tables filled route by route.
    Inputs are assumed valid (the contract checks live in the program)."""
    eta = max(n_lcs - 1, 0).bit_length()
    if n_lcs & (n_lcs - 1):
        oversub = (
            4 if pattern_oversubscription is None else pattern_oversubscription
        )
        while (1 << eta) < oversub * n_lcs:
            eta += 1
    if bits is None:
        bit_list = select_partition_bits_oracle(table, eta, candidate_positions)
    else:
        bit_list = list(bits)
    n_patterns = 1 << len(bit_list)
    per_pattern: List[List[Tuple[Prefix, NextHop]]] = [
        [] for _ in range(n_patterns)
    ]
    for prefix, hop in table.routes():
        for pattern in patterns_of_prefix(prefix, bit_list):
            per_pattern[pattern].append((prefix, hop))
    lc_of_pattern = assign_patterns_to_lcs(
        [len(routes) for routes in per_pattern], n_lcs
    )
    replicas_of_pattern: Optional[List[List[int]]] = None
    if replicas > 1:
        replicas_of_pattern = [
            [(primary + k) % n_lcs for k in range(replicas)]
            for primary in lc_of_pattern
        ]
    tables = [RoutingTable(table.width) for _ in range(n_lcs)]
    for pattern, routes in enumerate(per_pattern):
        holders = (
            replicas_of_pattern[pattern]
            if replicas_of_pattern is not None
            else [lc_of_pattern[pattern]]
        )
        for lc in holders:
            for prefix, hop in routes:
                tables[lc].update(prefix, hop)
    return PartitionPlan(
        bits=bit_list,
        n_lcs=n_lcs,
        lc_of_pattern=lc_of_pattern,
        tables=tables,
        source_version=table.version,
        replicas_of_pattern=replicas_of_pattern,
    )
