"""SPAL table partitioning (paper Sec. 3.1).

The routing table is fragmented into ψ ROT-partitions using η = ⌈log2 ψ⌉
selected bit positions of the prefixes.  A prefix belongs to every partition
whose bit pattern is compatible with it: at each selected position the prefix
either has that bit value or a wildcard ``*`` (position beyond its length).

Bit selection follows the paper's two criteria, applied recursively:

* **Criterion (1)** — minimise replication: choose the bit ``b_ν`` with the
  smallest Φ* (number of prefixes whose bit ν is ``*``), since each such
  prefix appears in both subsets.
* **Criterion (2)** — balance: minimise |Φ0 − Φ1| over the prefixes whose
  bit ν is defined.

For multiple control bits the criteria are applied recursively: the first
bit is chosen over the whole set; the second is chosen by evaluating
candidate bits on each of the two subsets separately and picking the single
position best for both subsets combined, and so on — all partitions use the
same global bit positions, which is what lets a line card route a packet to
its home LC by examining η fixed positions of the destination address
(the LR1 detector of Fig. 2).

ψ need not be a power of two: the 2^η bit patterns are assigned to ψ line
cards with a balanced (longest-processing-time) mapping, so e.g. ψ = 3 gives
two LCs one pattern each and one LC two patterns.

The plan is built from the table's (value, length, hop) columns
(:func:`repro.routing.arraytable.table_columns`, zero-copy for an
:class:`~repro.routing.arraytable.ArrayRoutingTable`) with vector
operations only: no :class:`~repro.routing.prefix.Prefix` is created and
no per-route Python loop runs, for IPv4 and IPv6 alike (addresses wider
than 64 bits are split into uint64 words).  Each LC's forwarding table is
an un-inflated ``ArrayRoutingTable``; a churn run's
:meth:`PartitionPlan.copy_for_updates` inflates its copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..batching import MAX_KERNEL_WIDTH, batch_enabled
from ..errors import PartitionError, UnreachablePatternError
from ..routing.arraytable import ArrayRoutingTable, table_columns
from ..routing.prefix import Prefix
from ..routing.table import NextHop, RoutingTable


@dataclass(frozen=True)
class BitScore:
    """Score of one candidate bit position over one prefix subset."""

    position: int
    wildcard: int   # Φ*  — prefixes with '*' at this position
    zeros: int      # Φ0
    ones: int       # Φ1

    @property
    def imbalance(self) -> int:
        return abs(self.zeros - self.ones)

    @property
    def key(self) -> Tuple[int, int]:
        """Lexicographic objective: Criterion (1) then Criterion (2)."""
        return (self.wildcard, self.imbalance)


def score_bit(
    prefixes: Sequence[Prefix], position: int
) -> BitScore:
    """Count Φ*, Φ0 and Φ1 for one bit position over a prefix set."""
    wildcard = zeros = ones = 0
    for prefix in prefixes:
        if position >= prefix.length:
            wildcard += 1
        elif (prefix.value >> (prefix.width - 1 - position)) & 1:
            ones += 1
        else:
            zeros += 1
    return BitScore(position, wildcard, zeros, ones)


def _int_field(name: str, value) -> int:
    """``value`` as an int, or :class:`PartitionError` naming ``name``
    (``bool`` is rejected although it subclasses ``int``)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise PartitionError(
            f"{name} must be an int, got {value!r} "
            f"({type(value).__name__})"
        )
    return int(value)


def _address_column(values, width: int) -> np.ndarray:
    """The values column as one array: uint64 up to 64 bits, an object
    array of Python ints beyond (IPv6)."""
    if width <= 64:
        return np.asarray(values, dtype=np.uint64)
    return np.array(values, dtype=object)


def _address_words(column: np.ndarray, width: int) -> List[np.ndarray]:
    """``column`` split into uint64 words, least significant first: one
    word up to 64 bits, ``(lo, hi, ...)`` beyond, so every width takes the
    same vector path."""
    if width <= 64:
        return [column]
    mask = (1 << 64) - 1
    return [
        ((column >> (64 * j)) & mask).astype(np.uint64)
        for j in range((width + 63) // 64)
    ]


def _bit_column(
    words: Sequence[np.ndarray], width: int, position: int
) -> np.ndarray:
    """Bit ``position`` (MSB = 0) of every row, as int64 0/1."""
    shift = width - 1 - position
    bit = words[shift // 64] >> np.uint64(shift % 64)
    bit &= np.uint64(1)
    return bit.view(np.int64)


def select_partition_bits(
    table: RoutingTable,
    n_bits: int,
    candidate_positions: Optional[Sequence[int]] = None,
) -> List[int]:
    """Choose ``n_bits`` control-bit positions per the paper's criteria.

    ``candidate_positions`` defaults (``None``) to every bit of the address
    width; the paper notes large positions (ν > 24) are effectively ruled
    out by Criterion (1) because most prefixes are shorter, so no explicit
    cut-off is needed.  Repeated candidates count once.

    The selection runs on the table's (value, length) columns.  Subsets
    are a label per row; a prefix whose bit is ``*`` at a chosen position
    is replicated into both halves, as the paper's recursion does.  Rows
    are kept sorted by length, so the rows with ``*`` at a candidate ν
    (length ≤ ν) are a leading slice and each candidate costs two
    ``bincount`` calls.
    """
    n_bits = _int_field("n_bits", n_bits)
    if n_bits < 0:
        raise PartitionError(f"n_bits must be non-negative, got {n_bits}")
    if n_bits == 0:
        return []
    width = table.width
    candidates = list(
        range(width)
        if candidate_positions is None
        else dict.fromkeys(
            _int_field("candidate_positions entry", c)
            for c in candidate_positions
        )
    )
    if any(not 0 <= c < width for c in candidates):
        raise PartitionError("candidate bit position out of range")
    if n_bits > len(candidates):
        raise PartitionError(
            f"cannot choose {n_bits} bits from {len(candidates)} candidates"
        )
    values, lengths, _ = table_columns(table)
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    words = [w[order] for w in _address_words(
        _address_column(values, width), width
    )]
    subset = np.zeros(len(lengths), dtype=np.int64)
    n_subsets = 1
    chosen: List[int] = []
    while True:
        doubled = subset * 2
        best_position = -1
        best_key: Optional[Tuple[int, int, int]] = None
        for position in candidates:
            if position in chosen:
                continue
            # Recursive application: evaluate the candidate on each current
            # subset separately (hypothetical split), then combine.  The two
            # criteria are scalarized as (max partition size, total size,
            # spread): Φ* inflates both max and total (Criterion 1) and
            # |Φ0−Φ1| inflates the max and the spread (Criterion 2); the max
            # comes first because each LC's SRAM is sized by its own
            # partition.  sizes[2s + v] = Φv + Φ* of subset s.
            k = int(np.searchsorted(lengths, position, side="right"))
            defined = _bit_column([w[k:] for w in words], width, position)
            defined += doubled[k:]
            sizes = np.bincount(defined, minlength=2 * n_subsets)
            sizes += np.repeat(
                np.bincount(subset[:k], minlength=n_subsets), 2
            )
            top = int(sizes.max())
            key = (top, int(sizes.sum()), top - int(sizes.min()))
            if best_key is None or key < best_key:
                best_key = key
                best_position = position
        chosen.append(best_position)
        if len(chosen) == n_bits:
            return chosen
        # Split every subset on the chosen bit: defined bits route to one
        # half, '*' rows are repeated into both (adjacent copies keep the
        # rows sorted by length).
        k = int(np.searchsorted(lengths, best_position, side="right"))
        wild = np.repeat(doubled[:k], 2)
        wild[1::2] += 1
        defined = _bit_column([w[k:] for w in words], width, best_position)
        defined += doubled[k:]
        subset = np.concatenate((wild, defined))
        lengths = np.concatenate((np.repeat(lengths[:k], 2), lengths[k:]))
        words = [np.concatenate((np.repeat(w[:k], 2), w[k:])) for w in words]
        n_subsets *= 2


def pattern_of(address: int, bits: Sequence[int], width: int) -> int:
    """The control-bit pattern of an address: bit ``bits[0]`` is the MSB of
    the pattern (this is the LR1 detector of Fig. 2)."""
    pattern = 0
    for position in bits:
        pattern = (pattern << 1) | ((address >> (width - 1 - position)) & 1)
    return pattern


def pattern_of_batch(
    addresses: np.ndarray, bits: Sequence[int], width: int
) -> np.ndarray:
    """Vectorized :func:`pattern_of`: one int64 pattern per address."""
    addrs = np.asarray(addresses, dtype=np.uint64)
    pattern = np.zeros(addrs.shape[0], dtype=np.int64)
    for position in bits:
        bit = (
            (addrs >> np.uint64(width - 1 - position)) & np.uint64(1)
        ).astype(np.int64)
        pattern = (pattern << 1) | bit
    return pattern


def patterns_of_prefix(prefix: Prefix, bits: Sequence[int]) -> List[int]:
    """All control-bit patterns a prefix is compatible with (wildcard
    positions expand to both values)."""
    patterns = [0]
    for position in bits:
        bit = prefix.bit(position) if position < prefix.width else -1
        if bit == -1 or position >= prefix.length:
            patterns = [p << 1 for p in patterns] + [
                (p << 1) | 1 for p in patterns
            ]
        else:
            patterns = [(p << 1) | bit for p in patterns]
    return patterns


def assign_patterns_to_lcs(
    pattern_sizes: Sequence[int], n_lcs: int
) -> List[int]:
    """Balanced pattern → LC assignment (LPT bin packing).

    Returns ``lc_of_pattern``: for each of the 2^η patterns, the LC index
    holding it.  With ψ a power of two this is the identity; otherwise
    patterns are spread so LC forwarding-table sizes stay as equal as
    possible (paper: ψ can be "any integer, say 3, 5, 6, 7").
    """
    n_patterns = len(pattern_sizes)
    if n_lcs <= 0:
        raise PartitionError(f"need at least one LC, got {n_lcs}")
    if n_lcs > n_patterns:
        raise PartitionError(
            f"{n_lcs} LCs but only {n_patterns} patterns; increase n_bits"
        )
    if n_lcs == n_patterns:
        return list(range(n_patterns))
    order = sorted(range(n_patterns), key=lambda i: -pattern_sizes[i])
    loads = [0] * n_lcs
    counts = [0] * n_lcs
    lc_of_pattern = [0] * n_patterns
    remaining = n_patterns
    for pattern in order:
        # Longest-processing-time: put the biggest unassigned pattern on the
        # least-loaded LC that can still accept one (every LC must end up
        # with at least one pattern).
        must_fill = [
            lc for lc in range(n_lcs) if counts[lc] == 0
        ]
        if len(must_fill) == remaining:
            lc = min(must_fill, key=lambda i: loads[i])
        else:
            lc = min(range(n_lcs), key=lambda i: loads[i])
        lc_of_pattern[pattern] = lc
        loads[lc] += pattern_sizes[pattern]
        counts[lc] += 1
        remaining -= 1
    return lc_of_pattern


@dataclass(eq=False)
class PartitionPlan:
    """A complete SPAL partitioning of one routing table.

    Attributes
    ----------
    bits:
        Selected control-bit positions (η of them, MSB of the pattern first).
    n_lcs:
        ψ, the number of line cards.
    lc_of_pattern:
        Pattern → LC mapping (identity when ψ is a power of two).
    tables:
        One forwarding :class:`RoutingTable` per LC (the ROT-partition
        union for its patterns).
    """

    bits: List[int]
    n_lcs: int
    lc_of_pattern: List[int]
    tables: List[RoutingTable]
    source_version: int = 0
    #: Replica LCs per pattern (parallel to ``lc_of_pattern``; entry 0 is
    #: the primary).  Populated when ``partition_table(replicas > 1)``.
    replicas_of_pattern: Optional[List[List[int]]] = None
    #: LCs currently marked failed (affects ``home_lc`` replica choice).
    failed_lcs: "set[int]" = field(default_factory=set)
    #: Mutation counter: bumped by every :meth:`fail_lc`/:meth:`restore_lc`.
    #: Consumers that cache anything derived from the failure state (the
    #: simulator's precomputed per-stream homes, the padded live-replica
    #: table below) key their caches on this and recompute on mismatch —
    #: the fix for silently-stale fast paths after a mid-run ``fail_lc``.
    epoch: int = 0
    #: Cached ``(epoch, live_tab, n_live)`` for :meth:`home_lc_batch`.
    _live_cache: Optional[tuple] = field(
        default=None, init=False, repr=False
    )
    #: ``(source table length, per-LC source row of every route)``, set by
    #: :func:`partition_table`; see :meth:`copy_for_updates`.
    _source_rows: Optional[Tuple[int, List[np.ndarray]]] = field(
        default=None, init=False, repr=False
    )

    @property
    def width(self) -> int:
        return self.tables[0].width

    def home_lc(self, address: int) -> int:
        """The home LC of an address (LR1 detector).

        With replication, load spreads across the pattern's live replicas
        (selected by low address bits, so one flow always lands on the same
        replica and stays cacheable there); failed LCs are skipped.
        """
        pattern = pattern_of(address, self.bits, self.width)
        if self.replicas_of_pattern is None:
            return self.lc_of_pattern[pattern]
        replicas = self.replicas_of_pattern[pattern]
        live = [lc for lc in replicas if lc not in self.failed_lcs]
        if not live:
            raise UnreachablePatternError(
                f"all replicas of pattern {pattern:#b} have failed"
            )
        return live[address % len(live)]

    def live_replicas(self, address: int) -> List[int]:
        """The live LCs able to answer lookups for ``address``, primary
        first.  Empty when every holder has failed (an unreplicated plan
        has exactly one holder)."""
        pattern = pattern_of(address, self.bits, self.width)
        if self.replicas_of_pattern is None:
            holders = [self.lc_of_pattern[pattern]]
        else:
            holders = self.replicas_of_pattern[pattern]
        return [lc for lc in holders if lc not in self.failed_lcs]

    def home_lc_batch(self, addresses: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`home_lc` over a whole address stream.

        Falls back to the scalar method per address when batching is
        disabled or the address width exceeds the uint64 kernels.
        """
        n = len(addresses)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        width = self.width
        if not batch_enabled() or width > MAX_KERNEL_WIDTH:
            return np.fromiter(
                (self.home_lc(int(a)) for a in addresses),
                dtype=np.int64,
                count=n,
            )
        addrs = np.asarray(addresses, dtype=np.uint64)
        patterns = pattern_of_batch(addrs, self.bits, width)
        if self.replicas_of_pattern is None:
            return np.asarray(self.lc_of_pattern, dtype=np.int64)[patterns]
        live_tab, n_live = self._live_replica_table()
        counts = n_live[patterns]
        if not counts.all():
            dead = int(patterns[counts == 0][0])
            raise UnreachablePatternError(
                f"all replicas of pattern {dead:#b} have failed"
            )
        choice = (addrs % counts.astype(np.uint64)).astype(np.int64)
        return live_tab[patterns, choice]

    def _live_replica_table(self) -> tuple:
        """Padded live-replica table: row per pattern, failed LCs dropped.

        Cached per :attr:`epoch` so repeated ``home_lc_batch`` calls under
        an unchanged failure set don't rebuild it.
        """
        cached = self._live_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1], cached[2]
        assert self.replicas_of_pattern is not None
        n_patterns = len(self.replicas_of_pattern)
        max_r = max(len(r) for r in self.replicas_of_pattern)
        live_tab = np.zeros((n_patterns, max_r), dtype=np.int64)
        n_live = np.zeros(n_patterns, dtype=np.int64)
        for p, replicas in enumerate(self.replicas_of_pattern):
            live = [lc for lc in replicas if lc not in self.failed_lcs]
            n_live[p] = len(live)
            live_tab[p, : len(live)] = live
        self._live_cache = (self.epoch, live_tab, n_live)
        return live_tab, n_live

    def fail_lc(self, lc: int) -> None:
        """Mark an LC failed: its home load shifts to surviving replicas.

        Without replication a failed LC's patterns become unreachable —
        the fault-tolerance argument for ``replicas > 1``.
        """
        if not 0 <= lc < self.n_lcs:
            raise PartitionError(f"LC {lc} out of range")
        if lc not in self.failed_lcs:
            self.failed_lcs.add(lc)
            self.epoch += 1

    def restore_lc(self, lc: int) -> None:
        """Clear an LC's failed mark (idempotent for live LCs)."""
        if not 0 <= lc < self.n_lcs:
            raise PartitionError(f"LC {lc} out of range")
        if lc in self.failed_lcs:
            self.failed_lcs.discard(lc)
            self.epoch += 1

    def copy_for_faults(self) -> "PartitionPlan":
        """An independent view of this plan for a fault-injected run.

        Shares the (read-only) forwarding tables and pattern maps but owns
        its ``failed_lcs`` set and epoch, so a simulator applying a
        :class:`~repro.core.faults.FaultSchedule` never mutates a plan that
        other runs (or a memoizing caller) also hold.
        """
        return self._view(self.tables)

    def copy_for_updates(self) -> "PartitionPlan":
        """An independent view for a run that applies routing updates.

        Unlike :meth:`copy_for_faults` this also copies the per-LC
        forwarding tables, because a churn run *mutates* them — a shared
        (possibly memoized) plan must never see another run's updates.
        Columnar tables come back inflated, keyed by one Prefix object per
        source route, shared by every LC that holds it (replicas, ``*``
        control bits) as in a dict-backed plan; inflating each table on
        its own would create one per holder.
        """
        tables = [t.copy() for t in self.tables]
        if self._source_rows is not None:
            n_source, lc_rows = self._source_rows
            pool: List[Optional[Prefix]] = [None] * n_source
            for table, rows in zip(tables, lc_rows):
                if not isinstance(table, ArrayRoutingTable) or table.inflated:
                    continue
                values, lengths, _ = table.as_arrays()
                if isinstance(values, np.ndarray):
                    values = values.tolist()
                prefixes = []
                for row, value, length in zip(
                    rows.tolist(), values, lengths.tolist()
                ):
                    prefix = pool[row]
                    if prefix is None:
                        prefix = pool[row] = Prefix(value, length, table.width)
                    prefixes.append(prefix)
                table.inflate(prefixes)
        return self._view(tables)

    def _view(self, tables: List[RoutingTable]) -> "PartitionPlan":
        plan = PartitionPlan(
            bits=self.bits,
            n_lcs=self.n_lcs,
            lc_of_pattern=self.lc_of_pattern,
            tables=tables,
            source_version=self.source_version,
            replicas_of_pattern=self.replicas_of_pattern,
            failed_lcs=set(self.failed_lcs),
            epoch=self.epoch,
        )
        plan._source_rows = self._source_rows
        return plan

    def partition_sizes(self) -> List[int]:
        return [len(t) for t in self.tables]

    def observe_into(self, registry) -> None:
        """Publish the plan's shape to a :class:`repro.obs.MetricsRegistry`:
        per-LC partition sizes, control-bit count, replication degree, and
        how many LCs are currently marked failed.  Called at snapshot time
        (plans have no hot path of their own — ``home_lc_batch`` is already
        a single vector op)."""
        for lc, size in enumerate(self.partition_sizes()):
            registry.gauge("partition.routes", lc=lc).set(size)
        registry.gauge("partition.control_bits").set(len(self.bits))
        replicas = (
            len(self.replicas_of_pattern[0])
            if self.replicas_of_pattern
            else 1
        )
        registry.gauge("partition.replicas").set(replicas)
        registry.gauge("partition.failed_lcs").set(len(self.failed_lcs))
        registry.counter("partition.epoch").value = self.epoch

    def replication_factor(self, table: RoutingTable) -> float:
        """Mean number of partitions each original prefix appears in."""
        total = sum(self.partition_sizes())
        return total / len(table) if len(table) else 0.0


def partition_table(
    table: RoutingTable,
    n_lcs: int,
    bits: Optional[Sequence[int]] = None,
    candidate_positions: Optional[Sequence[int]] = None,
    pattern_oversubscription: Optional[int] = None,
    replicas: int = 1,
) -> PartitionPlan:
    """Fragment ``table`` into forwarding tables for ``n_lcs`` line cards.

    ``bits`` overrides automatic selection (used by the ablation comparing
    criteria-chosen bits against naive choices).

    ``replicas`` homes every pattern on that many distinct LCs (an
    extension beyond the paper): per-LC forwarding tables grow roughly
    ``replicas``-fold, in exchange for spreading home-lookup load across
    the replicas and tolerating ``replicas − 1`` LC failures per pattern
    (see :meth:`PartitionPlan.fail_lc`).

    ``pattern_oversubscription`` controls the number of control bits for
    non-power-of-two ψ.  The paper uses exactly η = ⌈log2 ψ⌉ bits; with
    ψ = 3 that gives one LC *half* of the address space as its home share,
    which overloads its FE at high line rates.  The default therefore uses
    enough bits that 2^η ≥ oversub × ψ (oversub = 4) whenever ψ is not a
    power of two, so the balanced pattern→LC assignment can even out both
    table sizes and home traffic.  Pass ``pattern_oversubscription=1`` for
    the paper's exact η.  Power-of-two ψ always uses exactly ⌈log2 ψ⌉.

    Every argument is checked before any selection work; a bad one raises
    :class:`PartitionError` naming it.  Each LC's table lists its held
    patterns in ascending order and, within a pattern, routes in ``table``
    order; a route shared by several held patterns appears once, at its
    first place.
    """
    n_lcs = _int_field("n_lcs", n_lcs)
    if n_lcs <= 0:
        raise PartitionError(f"need at least one LC, got {n_lcs}")
    replicas = _int_field("replicas", replicas)
    if not 1 <= replicas <= n_lcs:
        raise PartitionError(
            f"replicas must be in [1, n_lcs]; got {replicas} for {n_lcs} LCs"
        )
    oversub = 4
    if pattern_oversubscription is not None:
        oversub = _int_field(
            "pattern_oversubscription", pattern_oversubscription
        )
        if oversub < 1:
            raise PartitionError(
                f"pattern_oversubscription must be >= 1, got {oversub}"
            )
    if bits is not None:
        bit_list = [_int_field("bits entry", b) for b in bits]
        if (1 << len(bit_list)) < n_lcs:
            raise PartitionError(
                f"{len(bit_list)} bits give {1 << len(bit_list)} patterns; "
                f"need at least {n_lcs}"
            )
        if len(set(bit_list)) != len(bit_list):
            raise PartitionError("duplicate partition bits")
        if any(not 0 <= b < table.width for b in bit_list):
            raise PartitionError("partition bit out of range")
    if len(table) == 0:
        raise PartitionError("cannot partition an empty routing table")
    if bits is None:
        eta = max(n_lcs - 1, 0).bit_length()  # ⌈log2 ψ⌉
        if n_lcs & (n_lcs - 1):  # not a power of two
            while (1 << eta) < oversub * n_lcs:
                eta += 1
        bit_list = select_partition_bits(table, eta, candidate_positions)
    eta = len(bit_list)
    n_patterns = 1 << eta

    # Each route's base pattern (its defined control bits, '*' bits zero)
    # and wildcard mask; it belongs to pattern q iff q & ~mask == base.
    width = table.width
    values, lengths, hops = table_columns(table)
    column = _address_column(values, width)
    words = _address_words(column, width)
    base = np.zeros(len(lengths), dtype=np.int64)
    wild = np.zeros(len(lengths), dtype=np.int64)
    for position in bit_list:
        star = lengths <= position
        bit = _bit_column(words, width, position)
        base = (base << 1) | np.where(star, 0, bit)
        wild = (wild << 1) | star
    # Routes sharing (base, mask) share their patterns: the route × pattern
    # compatibility mask is computed once per such class.
    classes, class_of_route = np.unique(
        base * n_patterns + wild, return_inverse=True
    )
    class_of_route = class_of_route.reshape(-1)
    compat = (
        np.arange(n_patterns)[None, :] & ~(classes % n_patterns)[:, None]
    ) == (classes // n_patterns)[:, None]
    class_sizes = np.bincount(class_of_route, minlength=len(classes))
    pattern_sizes = (compat * class_sizes[:, None]).sum(axis=0)

    lc_of_pattern = assign_patterns_to_lcs(pattern_sizes.tolist(), n_lcs)
    replicas_of_pattern: Optional[List[List[int]]] = None
    if replicas > 1:
        # Replica k of a pattern lives k LCs after the primary (mod ψ):
        # deterministic, distinct, and spreads secondary load evenly.
        replicas_of_pattern = [
            [(primary + k) % n_lcs for k in range(replicas)]
            for primary in lc_of_pattern
        ]
    held: List[List[int]] = [[] for _ in range(n_lcs)]
    for pattern in range(n_patterns):
        holders = (
            replicas_of_pattern[pattern]
            if replicas_of_pattern is not None
            else [lc_of_pattern[pattern]]
        )
        for lc in holders:
            held[lc].append(pattern)

    # An LC's table lists its held patterns in ascending order, routes in
    # table order within each; a route in several of them keeps its first
    # place.  So rows sort stably by the first held pattern they match.
    tables: List[RoutingTable] = []
    lc_rows: List[np.ndarray] = []
    for patterns in held:
        mine = np.asarray(patterns)
        hit = compat[:, mine]
        first = np.where(
            hit.any(axis=1), mine[hit.argmax(axis=1)], n_patterns
        )
        first_of_route = first[class_of_route]
        rows = np.flatnonzero(first_of_route < n_patterns)
        rows = rows[np.argsort(first_of_route[rows], kind="stable")]
        lc_values = column[rows]
        tables.append(ArrayRoutingTable(
            lc_values if width <= 64 else lc_values.tolist(),
            lengths[rows], hops[rows], width, validate=False,
        ))
        lc_rows.append(rows.astype(np.int32))
    plan = PartitionPlan(
        bits=bit_list,
        n_lcs=n_lcs,
        lc_of_pattern=lc_of_pattern,
        tables=tables,
        source_version=table.version,
        replicas_of_pattern=replicas_of_pattern,
    )
    plan._source_rows = (len(lengths), lc_rows)
    return plan


def apply_route_update(
    plan: PartitionPlan,
    prefix: Prefix,
    next_hop: Optional[NextHop],
) -> List[int]:
    """Apply one incremental routing update to a partition plan.

    ``next_hop=None`` deletes the route.  Returns the list of LC indexes
    whose forwarding tables changed (those LCs must rebuild/patch their
    tries and, per the paper's policy, all LR-caches are flushed).
    """
    touched: List[int] = []
    seen: set[int] = set()
    for pattern in patterns_of_prefix(prefix, plan.bits):
        if plan.replicas_of_pattern is not None:
            holders = plan.replicas_of_pattern[pattern]
        else:
            holders = [plan.lc_of_pattern[pattern]]
        for lc in holders:
            if lc in seen:
                continue
            seen.add(lc)
            if next_hop is None:
                if prefix in plan.tables[lc]:
                    plan.tables[lc].remove(prefix)
                    touched.append(lc)
            else:
                plan.tables[lc].update(prefix, next_hop)
                touched.append(lc)
    return touched
