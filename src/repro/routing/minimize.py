"""FIB minimisation: a three-pass, churn-safe table-compression pipeline.

SPAL's storage story (paper Tables 2–4) assumes each line card's CRAM holds
its raw partition of the table.  The classical pre-partition mitigation is
FIB minimisation — shrink the table *before* partitioning, without changing
a single lookup answer — and this module implements the standard three-pass
pipeline over the packed column representation, so it runs at
million-prefix scale:

1. ``defaults`` — :func:`remove_default_routes` (after the SpiNNaker
   minimiser of the same name): drop every entry whose next hop equals the
   next hop of its nearest retained covering entry.  Such an entry is
   *redundant*: removing it changes no longest-prefix-match answer because
   the covering entry already supplies the same hop.
2. ``ortc`` — :func:`ortc_table`: the Optimal Route Table Constructor
   (Draves et al., INFOCOM 1999), reimplemented over a Patricia closure of
   the prefix set (original prefixes plus the pairwise lowest common
   ancestors of the sorted sequence, at most ``2n - 1`` nodes) with
   candidate sets as integer bitmasks and O(1) collapse arithmetic for
   path-compressed edges.  Unlike the textbook recursive construction
   (kept as the test suite's oracle in ``tests/ortc_oracle.py``), no
   expanded binary trie is ever built, which is what makes the 1M-prefix
   ``make_full_v4`` table minimisable in seconds.  Output is provably *minimal*: no smaller LPM-equivalent table
   exists.
3. ``oc`` — :func:`ordered_covering` (again after the SpiNNaker
   exemplar): bottom-up merge of sibling pairs that share a next hop into
   their parent (whose own entry, if present, is unreachable — the two
   siblings cover its whole range), iterated with covered-entry removal to
   a fixpoint.  After a full ORTC pass this is a provable no-op; it exists
   as the cheap standalone pass ("light" mode) and as the historical
   algorithm the pipeline generalises.

**Equivalence contract.**  Every pass preserves the longest-prefix-match
function exactly: for *every* address, ``minimized.lookup(a) ==
original.lookup(a)`` — including addresses matched by no route
(``NO_ROUTE``).  Like the reference implementation, the constructor may
emit *explicit null routes* (entries whose hop is :data:`NO_ROUTE`) where
it must undo a covering route it chose to widen; these behave as
reject/blackhole routes and answer ``NO_ROUTE`` exactly as the original's
unmatched space did.

**Churn.**  Minimised entries are *merged* originals, so a live update can
invalidate many of them at once.  :class:`MinimizeState` remembers the
original table and, per update, re-minimises only the subtree under the
updated prefix against two anchors — the nearest *original* covering hop
(the merge-pass base) and the nearest *minimised* covering hop (the
select-pass inherited value) — and emits the minimal announce/withdraw
diff.  :meth:`MinimizeState.translate_schedule` maps a whole
:class:`~repro.routing.churn.ChurnSchedule` up front (translation is
traffic-independent), so the scalar, array and streamed simulation engines
all replay minimised churn unmodified through the PR 5
``apply_update`` work/cost model.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TableError
from .churn import ChurnEvent, ChurnSchedule
from .prefix import Prefix
from .table import NO_ROUTE, NextHop, RoutingTable
from .updates import RouteUpdate

#: Packed node key: ``(value << KEY_SHIFT) | length``.  Sorting packed keys
#: orders prefixes by ``(value, length)``, which is exactly a pre-order
#: walk of the binary trie; 8 bits comfortably hold IPv6 lengths.
KEY_SHIFT = 8
_LEN_MASK = (1 << KEY_SHIFT) - 1

#: Pass sets accepted by :func:`minimize_table` / ``SpalConfig.minimize``.
PASS_SETS: Dict[str, Tuple[str, ...]] = {
    "full": ("defaults", "ortc", "oc"),
    "ortc": ("ortc",),
    "light": ("defaults", "oc"),
}

_Entry = Tuple[int, int, int]  # (value, length, hop)


def _resolve_passes(passes: Union[str, Sequence[str]]) -> Tuple[str, ...]:
    if isinstance(passes, str):
        try:
            return PASS_SETS[passes]
        except KeyError:
            raise TableError(
                f"unknown minimisation mode {passes!r}; "
                f"expected one of {sorted(PASS_SETS)}"
            ) from None
    names = tuple(passes)
    for name in names:
        if name not in ("defaults", "ortc", "oc"):
            raise TableError(f"unknown minimisation pass {name!r}")
    return names


def _entries_of(table: RoutingTable) -> List[_Entry]:
    """The table as ``(value, length, hop)`` triples, no Prefix objects."""
    as_arrays = getattr(table, "as_arrays", None)
    if as_arrays is not None:
        values, lengths, hops = as_arrays()
        if isinstance(values, np.ndarray):
            values = values.astype(np.uint64).tolist()
        return list(zip(map(int, values), map(int, lengths), map(int, hops)))
    return [(p.value, p.length, h) for p, h in table.routes()]


def _materialize(
    entries: List[_Entry], width: int
) -> RoutingTable:
    """Build a table from sorted entries — columnar for IPv4-class widths
    (no per-prefix objects until a consumer needs them), dict-backed
    beyond 64 bits."""
    entries = sorted(entries)
    if width <= 64:
        from .arraytable import ArrayRoutingTable

        return ArrayRoutingTable(
            np.fromiter((v for v, _, _ in entries), dtype=np.uint64,
                        count=len(entries)),
            np.fromiter((l for _, l, _ in entries), dtype=np.int64,
                        count=len(entries)),
            np.fromiter((h for _, _, h in entries), dtype=np.int64,
                        count=len(entries)),
            width,
            validate=False,
        )
    out = RoutingTable(width)
    for v, l, h in entries:
        out.update(Prefix(v, l, width), h)
    return out


# ---------------------------------------------------------------------------
# Pass 1: covered-entry removal ("remove default routes")
# ---------------------------------------------------------------------------

def _remove_covered_entries(entries: List[_Entry], width: int) -> List[_Entry]:
    """Drop entries whose hop equals their nearest *retained* covering
    entry's hop (``NO_ROUTE`` when nothing covers them).

    Pre-order sweep with an ancestor stack: ancestors are decided before
    descendants, so "retained" is well-defined; a removed ancestor's hop
    always equals its own retained ancestor's, so the effective covering
    hop is the retained one.
    """
    out: List[_Entry] = []
    stack: List[_Entry] = []  # retained ancestors of the sweep position
    for v, l, h in sorted(entries):
        while stack:
            av, al, _ = stack[-1]
            if al <= l and (v >> (width - al) if al else 0) == (
                av >> (width - al) if al else 0
            ):
                break
            stack.pop()
        covering = stack[-1][2] if stack else NO_ROUTE
        if h != covering:
            out.append((v, l, h))
            stack.append((v, l, h))
    return out


def remove_default_routes(table: RoutingTable) -> RoutingTable:
    """Pipeline pass 1 as a standalone transform (LPM-equivalent)."""
    return _materialize(
        _remove_covered_entries(_entries_of(table), table.width), table.width
    )


# ---------------------------------------------------------------------------
# Pass 2: ORTC over a Patricia closure (array form, path-compressed)
# ---------------------------------------------------------------------------

def _ortc_region(
    entries: List[_Entry],
    width: int,
    root_value: int = 0,
    root_length: int = 0,
    base_hop: NextHop = NO_ROUTE,
    root_inherited: NextHop = NO_ROUTE,
) -> List[_Entry]:
    """One ORTC run over ``entries``, all of which must lie under the
    ``(root_value, root_length)`` prefix.

    ``base_hop`` is the effective hop of the space the region inherits from
    *original* routes above it (the merge-pass anchor: every uniform
    off-path region below a node carries its nearest route's hop, and the
    region root's own hop when it has no route of its own).
    ``root_inherited`` is the hop already guaranteed at the region root by
    emitted *minimised* entries above it (the select-pass anchor).  For a
    whole-table run both default to ``NO_ROUTE``; for a churn rebuild they
    genuinely differ — the minimised table above the region may represent
    the original covering route with a different (merged) entry set.

    Returns the emitted ``(value, length, hop)`` entries, minimal for the
    region given the two anchors.  Hops equal to ``NO_ROUTE`` are explicit
    null routes.
    """
    # -- node set: originals + root + adjacent-pair LCAs (Patricia closure)
    hop_of: Dict[int, int] = {}
    for v, l, h in entries:
        hop_of[(v << KEY_SHIFT) | l] = h
    keys = sorted(hop_of)
    root_key = (root_value << KEY_SHIFT) | root_length
    nodes = set(keys)
    nodes.add(root_key)
    for i in range(len(keys) - 1):
        a, b = keys[i], keys[i + 1]
        va, la = a >> KEY_SHIFT, a & _LEN_MASK
        vb, lb = b >> KEY_SHIFT, b & _LEN_MASK
        x = va ^ vb
        cpl = min(la, lb) if x == 0 else min(la, lb, width - x.bit_length())
        sh = width - cpl
        nodes.add((((va >> sh) << sh) << KEY_SHIFT) | cpl)
    order = sorted(nodes)
    n = len(order)
    vals = [k >> KEY_SHIFT for k in order]
    lens = [k & _LEN_MASK for k in order]

    # -- hop alphabet as bit positions; NO_ROUTE (-1) sorts first, so the
    #    lowest set bit of a candidate mask IS min(candidates), matching
    #    the recursive reference's deterministic tie-break exactly.
    alpha = sorted(set(hop_of.values()) | {base_hop})
    bit_of = {h: 1 << i for i, h in enumerate(alpha)}

    # -- merge (bottom-up): explicit stack, finalize on pop.  Each node
    #    keeps at most two child contributions, each already collapsed to
    #    the level just below this node.
    S = [0] * n          # candidate-set mask per node
    eff = [0] * n        # effective (inherited-or-own) hop per node
    par = [-1] * n
    nkid = [0] * n
    c0 = [0] * n
    c1 = [0] * n

    def _finalize(j: int) -> None:
        e_bit = bit_of[eff[j]]
        k = nkid[j]
        if k == 0:
            s = e_bit
        elif k == 1:
            a, b = c0[j], e_bit
            s = (a & b) or (a | b)
        else:
            a, b = c0[j], c1[j]
            s = (a & b) or (a | b)
        S[j] = s
        p = par[j]
        if p < 0:
            return
        # Collapse the path-compressed edge parent->j: d-1 implicit
        # single-branch levels, each merging with a uniform {eff[parent]}
        # sibling.  One merge step pins eff into the set; a second
        # collapses it to {eff} — so the arithmetic is O(1) in d.
        d = lens[j] - lens[p]
        if d == 1:
            t = s
        else:
            ep = bit_of[eff[p]]
            t = (ep if (s & ep) else (s | ep)) if d == 2 else ep
        if nkid[p] == 0:
            c0[p] = t
        else:
            c1[p] = t
        nkid[p] += 1

    stack: List[int] = []
    for i in range(n):
        v, l = vals[i], lens[i]
        while stack:
            j = stack[-1]
            lj = lens[j]
            if lj <= l and (v >> (width - lj) if lj else 0) == (
                vals[j] >> (width - lj) if lj else 0
            ):
                break
            _finalize(stack.pop())
        if stack:
            par[i] = stack[-1]
            own = hop_of.get(order[i])
            eff[i] = eff[par[i]] if own is None else own
        else:
            own = hop_of.get(order[i])
            eff[i] = base_hop if own is None else own
        stack.append(i)
    while stack:
        _finalize(stack.pop())

    # -- select (top-down): parents precede children in sorted order, so a
    #    single ascending sweep sees chosen[parent] before any child.
    chosen = [0] * n
    out: List[_Entry] = []
    for i in range(n):
        if i == 0:
            inherited = root_inherited
        else:
            p = par[i]
            i0 = chosen[p]
            e = eff[p]
            d = lens[i] - lens[p]
            if d == 1:
                inherited = i0
            elif d == 2:
                # One implicit node n1 sits between p and i; its candidate
                # set is M(S_i, {e}) and its off-path side is uniform {e}.
                ep = bit_of[e]
                s1 = ep if (S[i] & ep) else (S[i] | ep)
                if bit_of.get(i0, 0) & s1:
                    i1 = i0
                else:
                    i1 = alpha[(s1 & -s1).bit_length() - 1]
                    sh = width - lens[p] - 1
                    out.append(((vals[i] >> sh) << sh, lens[p] + 1, i1))
                if i1 != e:
                    out.append(
                        (vals[i] ^ (1 << (width - lens[i])), lens[i], e)
                    )
                inherited = i1
            else:
                # d >= 3: every implicit set on the chain is exactly {e};
                # at most one entry (at the first implicit level) repairs
                # a mismatched inheritance, then {e} flows to i.
                if i0 != e:
                    sh = width - lens[p] - 1
                    out.append(((vals[i] >> sh) << sh, lens[p] + 1, e))
                inherited = e
            if nkid[p] == 1 and chosen[p] != e:
                # p's only explicit child is i; p's other expanded side is
                # a uniform {e} region needing its own repair entry.
                sh = width - lens[p] - 1
                out.append(
                    (((vals[i] >> sh) << sh) ^ (1 << sh), lens[p] + 1, e)
                )
        s = S[i]
        if bit_of.get(inherited, 0) & s:
            chosen[i] = inherited
        else:
            m = alpha[(s & -s).bit_length() - 1]
            chosen[i] = m
            if m != NO_ROUTE or root_inherited != NO_ROUTE or i > 0:
                out.append((vals[i], lens[i], m))
            # A root-level NO_ROUTE under a NO_ROUTE inheritance is the
            # one vacuous emission (it would answer what absence answers).
    return out


def ortc_table(table: RoutingTable) -> RoutingTable:
    """The minimal LPM-equivalent table (array-form ORTC).

    Identical output to the recursive expanded-trie construction (the
    test suite's oracle, ``tests/ortc_oracle.py``) but builds no expanded
    trie: memory and time are ``O(n log n)`` in the number of
    routes, independent of the address width, so it runs on the 1M-prefix
    ``make_full_v4`` snapshot.
    """
    return _materialize(
        _ortc_region(_entries_of(table), table.width), table.width
    )


# ---------------------------------------------------------------------------
# Pass 3: ordered covering (sibling merge + covered removal, to fixpoint)
# ---------------------------------------------------------------------------

def _ordered_covering_entries(
    entries: List[_Entry], width: int
) -> List[_Entry]:
    routes: Dict[int, int] = {
        (v << KEY_SHIFT) | l: h for v, l, h in entries
    }
    changed = True
    while changed:
        changed = False
        by_len: Dict[int, List[int]] = {}
        for k in routes:
            by_len.setdefault(k & _LEN_MASK, []).append(k)
        for l in range(width, 0, -1):
            for k in sorted(by_len.get(l, ())):
                h = routes.get(k)
                if h is None:
                    continue  # consumed by an earlier merge this sweep
                sib = k ^ (1 << (width - l + KEY_SHIFT))
                if routes.get(sib) != h:
                    continue
                # Both siblings share a hop: the parent's whole range is
                # covered by the pair, so any existing parent entry is
                # unreachable — replace two (or three) entries with one.
                del routes[k]
                del routes[sib]
                v = min(k, sib) >> KEY_SHIFT
                parent = (v << KEY_SHIFT) | (l - 1)
                if parent not in routes:
                    by_len.setdefault(l - 1, []).append(parent)
                routes[parent] = h
                changed = True
        pruned = _remove_covered_entries(
            [(k >> KEY_SHIFT, k & _LEN_MASK, h) for k, h in routes.items()],
            width,
        )
        if len(pruned) != len(routes):
            changed = True
        routes = {(v << KEY_SHIFT) | l: h for v, l, h in pruned}
    return sorted(
        (k >> KEY_SHIFT, k & _LEN_MASK, h) for k, h in routes.items()
    )


def ordered_covering(table: RoutingTable) -> RoutingTable:
    """Pipeline pass 3 as a standalone transform (LPM-equivalent).

    After :func:`ortc_table` this is a provable no-op (a surviving merge
    or removal would contradict ORTC's minimality); on raw tables it is
    the cheap sibling-merge minimiser of the SpiNNaker exemplars.
    """
    return _materialize(
        _ordered_covering_entries(_entries_of(table), table.width),
        table.width,
    )


# ---------------------------------------------------------------------------
# The pipeline, with churn-safe state
# ---------------------------------------------------------------------------

@dataclass
class MinimizeStats:
    """Counters from one :func:`minimize_table` run (plus live churn)."""

    passes: Tuple[str, ...]
    width: int
    original_routes: int
    minimized_routes: int
    after_pass: Dict[str, int] = field(default_factory=dict)
    null_routes: int = 0
    build_seconds: float = 0.0
    #: Live-churn re-expansion accounting (advanced by ``apply_update``).
    churn_events: int = 0
    churn_ops: int = 0
    churn_entry_delta: int = 0

    @property
    def ratio(self) -> float:
        """Original routes / minimised routes (>= 1.0 for a fresh build)."""
        if self.original_routes == 0:
            return 1.0
        return self.original_routes / max(self.minimized_routes, 1)


class MinimizeState:
    """A minimised table plus everything needed to keep it live under churn.

    ``state.table`` is the minimised :class:`RoutingTable` — hand it to
    :func:`~repro.core.partition.partition_table`, tries, or the
    simulator.  ``state.apply_update`` maps one original-table update to
    the minimal announce/withdraw diff on the minimised table (splitting
    merged entries as needed), and ``state.translate_schedule`` maps a
    whole churn schedule up front.
    """

    def __init__(
        self,
        width: int,
        original: Dict[int, int],
        minimized: Dict[int, int],
        passes: Tuple[str, ...],
        stats: MinimizeStats,
        table: Optional[RoutingTable] = None,
    ):
        self.width = width
        self.passes = passes
        self.stats = stats
        self._orig = original
        self._okeys = sorted(original)
        self._min = minimized
        self._mkeys = sorted(minimized)
        if table is None:
            table = _materialize(
                [(k >> KEY_SHIFT, k & _LEN_MASK, h)
                 for k, h in minimized.items()],
                width,
            )
        #: The minimised routing table (mutated in place by apply_update).
        self.table = table

    # -- views ---------------------------------------------------------------

    @property
    def original_routes(self) -> int:
        return len(self._orig)

    @property
    def minimized_routes(self) -> int:
        return len(self._min)

    @property
    def ratio(self) -> float:
        """Current original/minimised size ratio (drifts under churn)."""
        if not self._orig:
            return 1.0
        return len(self._orig) / max(len(self._min), 1)

    def original_table(self) -> RoutingTable:
        """Materialise the (churn-evolved) original table — the oracle the
        equivalence contract is stated against."""
        return _materialize(
            [(k >> KEY_SHIFT, k & _LEN_MASK, h)
             for k, h in self._orig.items()],
            self.width,
        )

    def clone(self) -> "MinimizeState":
        """An independent copy (used by :meth:`translate_schedule`, which
        must advance through a schedule without touching this state)."""
        from dataclasses import replace

        clone = MinimizeState.__new__(MinimizeState)
        clone.width = self.width
        clone.passes = self.passes
        clone.stats = replace(self.stats, after_pass=dict(self.stats.after_pass))
        clone._orig = dict(self._orig)
        clone._okeys = list(self._okeys)
        clone._min = dict(self._min)
        clone._mkeys = list(self._mkeys)
        clone.table = self.table.copy()
        return clone

    # -- internals -----------------------------------------------------------

    def _nearest_ancestor(
        self, routes: Dict[int, int], value: int, length: int
    ) -> NextHop:
        """Hop of the nearest strict ancestor of (value, length) present in
        ``routes`` (NO_ROUTE if uncovered) — O(width) dict probes."""
        for l in range(length - 1, -1, -1):
            sh = self.width - l
            k = (((value >> sh) << sh) << KEY_SHIFT) | l
            h = routes.get(k)
            if h is not None:
                return h
        return NO_ROUTE

    def _range_entries(
        self, routes: Dict[int, int], skeys: List[int], prefix: Prefix
    ) -> List[_Entry]:
        """All entries at-or-under ``prefix`` via bisect on the sorted
        packed-key list."""
        lo = bisect_left(skeys, prefix.value << KEY_SHIFT)
        if prefix.length:
            hi = bisect_left(
                skeys, (prefix.last_address() + 1) << KEY_SHIFT
            )
        else:
            hi = len(skeys)
        out = []
        for k in skeys[lo:hi]:
            if (k & _LEN_MASK) >= prefix.length:
                out.append((k >> KEY_SHIFT, k & _LEN_MASK, routes[k]))
        return out

    # -- churn ---------------------------------------------------------------

    def apply_update(self, update: RouteUpdate) -> List[RouteUpdate]:
        """Apply one original-table update; return the minimised-table diff.

        The subtree under ``update.prefix`` is re-minimised (region ORTC)
        against the nearest *original* covering hop (merge anchor) and the
        nearest *minimised* covering hop (select anchor); everything
        outside the subtree is untouched, so the result stays
        lookup-equivalent though possibly no longer globally minimal —
        that drift is the re-expansion cost E23 measures.  Returned ops
        are withdrawals first, then announces, each applicable in order
        against the minimised table (and already applied to
        ``self.table``).
        """
        p = update.prefix
        h = update.next_hop
        if p.width != self.width:
            raise TableError(
                f"prefix width {p.width} != minimised table width {self.width}"
            )
        k = (p.value << KEY_SHIFT) | p.length
        if h is None:
            if k not in self._orig:
                raise TableError(f"withdrawal of absent prefix {p}")
            del self._orig[k]
            del self._okeys[bisect_left(self._okeys, k)]
        else:
            if k not in self._orig:
                insort(self._okeys, k)
            self._orig[k] = h

        region = self._range_entries(self._orig, self._okeys, p)
        base = self._nearest_ancestor(self._orig, p.value, p.length)
        inherited = self._nearest_ancestor(self._min, p.value, p.length)
        rebuilt = _ortc_region(
            region,
            self.width,
            root_value=p.value,
            root_length=p.length,
            base_hop=base,
            root_inherited=inherited,
        )

        old = {
            (v << KEY_SHIFT) | l: hop
            for v, l, hop in self._range_entries(self._min, self._mkeys, p)
        }
        new = {(v << KEY_SHIFT) | l: hop for v, l, hop in rebuilt}
        ops: List[RouteUpdate] = []
        for kk in sorted(old):
            if kk not in new:
                prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
                ops.append(RouteUpdate(prefix, None))
                del self._min[kk]
                del self._mkeys[bisect_left(self._mkeys, kk)]
                self.table.remove(prefix)
        for kk in sorted(new):
            hop = new[kk]
            if old.get(kk) == hop:
                continue
            prefix = Prefix(kk >> KEY_SHIFT, kk & _LEN_MASK, self.width)
            ops.append(RouteUpdate(prefix, hop))
            if kk not in self._min:
                insort(self._mkeys, kk)
            self._min[kk] = hop
            self.table.update(prefix, hop)
        self.stats.churn_events += 1
        self.stats.churn_ops += len(ops)
        self.stats.churn_entry_delta = (
            len(self._min) - self.stats.minimized_routes
        )
        return ops

    def translate_schedule(self, schedule: ChurnSchedule) -> ChurnSchedule:
        """Map an original-table churn schedule onto the minimised table.

        Each original event becomes zero or more minimised-table events at
        the *same cycle* (withdrawals before announces, applied atomically
        before that cycle's packet arrivals), computed by advancing a
        clone of this state through the schedule — translation depends
        only on the table, never on traffic, which is what lets all three
        simulation engines replay the result unmodified.
        """
        clone = self.clone()
        events: List[ChurnEvent] = []
        for ev in schedule.events():
            for op in clone.apply_update(ev.update):
                events.append(ChurnEvent(ev.cycle, op))
        return ChurnSchedule(events, seed=schedule.seed)


def minimize_table(
    table: RoutingTable, passes: Union[str, Sequence[str]] = "full"
) -> MinimizeState:
    """Run the minimisation pipeline; return live, churn-safe state.

    ``passes`` is ``"full"`` (defaults → ortc → oc), ``"ortc"``,
    ``"light"`` (defaults → oc, no ORTC), or an explicit pass tuple.
    The returned state's ``.table`` answers every lookup identically to
    ``table``.
    """
    t0 = time.perf_counter()
    names = _resolve_passes(passes)
    original = _entries_of(table)
    width = table.width
    entries = original
    after: Dict[str, int] = {}
    for name in names:
        if name == "defaults":
            entries = _remove_covered_entries(entries, width)
        elif name == "ortc":
            entries = _ortc_region(entries, width)
        else:
            entries = _ordered_covering_entries(entries, width)
        after[name] = len(entries)
    stats = MinimizeStats(
        passes=names,
        width=width,
        original_routes=len(original),
        minimized_routes=len(entries),
        after_pass=after,
        null_routes=sum(1 for _, _, h in entries if h == NO_ROUTE),
        build_seconds=time.perf_counter() - t0,
    )
    return MinimizeState(
        width,
        {(v << KEY_SHIFT) | l: h for v, l, h in original},
        {(v << KEY_SHIFT) | l: h for v, l, h in entries},
        names,
        stats,
    )


def minimization_ratio(
    table: RoutingTable, passes: Union[str, Sequence[str]] = "full"
) -> float:
    """Original size / minimised size (1.0 for an empty table)."""
    if len(table) == 0:
        return 1.0
    return minimize_table(table, passes).stats.ratio


__all__ = [
    "PASS_SETS",
    "MinimizeState",
    "MinimizeStats",
    "minimize_table",
    "minimization_ratio",
    "ortc_table",
    "ordered_covering",
    "remove_default_routes",
]
