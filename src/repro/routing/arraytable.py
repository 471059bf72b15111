"""Array-native routing tables: columnar storage for full-BGP-scale snapshots.

A million-prefix table materialised as :class:`~repro.routing.prefix.Prefix`
objects costs ~200 bytes per route before any trie is built (a ``Prefix``,
its cached hash, and a dict slot).  :class:`ArrayRoutingTable` stores the
same routes as three parallel columns — value, length, next hop — in
insertion order, and only *inflates* to the classic ``Dict[Prefix, NextHop]``
representation when a consumer genuinely needs Prefix objects (mutation, or
a Prefix-level query).  Until then:

* bulk readers (`as_arrays`, the packed trie builders via
  :func:`repro.tries.base.sorted_route_arrays`) get the columns directly,
  with no per-prefix objects at any point;
* cheap aggregate queries (``len``, ``length_histogram``,
  ``has_default_route``, ``next_hops``) run vectorized on the columns;
* exact-match ``get``/``in`` use a packed-key index built once on demand,
  still without Prefix objects.

Inflation is one-way: the first mutation (or direct ``_routes`` access)
builds the dict, drops the columns, and the instance behaves exactly like a
plain :class:`RoutingTable` from then on.  Iteration order — and therefore
every downstream deterministic build — is identical in both regimes.

Widths above 64 bits (IPv6) store values as a Python ``list`` of ints since
128-bit values exceed numpy integer dtypes; lengths and hops stay numpy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import TableError
from .prefix import Prefix
from .table import NO_ROUTE, NextHop, RoutingTable

#: Values column: numpy for widths <= 64, plain ints beyond.
ValueColumn = Union[np.ndarray, List[int]]


class ArrayRoutingTable(RoutingTable):
    """A :class:`RoutingTable` backed by parallel (value, length, hop) columns.

    Construct via :meth:`RoutingTable.from_arrays` (which validates) or
    directly with pre-validated columns (``validate=False``) from the
    synthetic generators.  Semantically identical to a dict-backed table;
    the dict is materialised lazily on first need.
    """

    def __init__(
        self,
        values: ValueColumn,
        lengths: np.ndarray,
        hops: np.ndarray,
        width: int,
        *,
        validate: bool = True,
    ) -> None:
        # NOTE: deliberately does not call RoutingTable.__init__ — that
        # would eagerly create the dict this class exists to avoid.
        self.width = width
        if width <= 64:
            values = np.asarray(values, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        hops = np.asarray(hops, dtype=np.int64)
        n = len(values)
        if len(lengths) != n or len(hops) != n:
            raise TableError(
                f"column lengths differ: {n} values, {len(lengths)} lengths, "
                f"{len(hops)} hops"
            )
        if validate:
            self._validate(values, lengths, width)
        self._a_values: Optional[ValueColumn] = values
        self._a_lengths: Optional[np.ndarray] = lengths
        self._a_hops: Optional[np.ndarray] = hops
        self._dict: Optional[Dict[Prefix, NextHop]] = None
        self._index: Optional[Dict[tuple, int]] = None
        self.version = n

    @staticmethod
    def _validate(
        values: ValueColumn, lengths: np.ndarray, width: int
    ) -> None:
        n = len(values)
        if n == 0:
            return
        if lengths.size and (
            int(lengths.min()) < 0 or int(lengths.max()) > width
        ):
            bad = int(lengths[(lengths < 0) | (lengths > width)][0])
            raise TableError(f"length {bad} out of range [0, {width}]")
        if width <= 64:
            vals = np.asarray(values, dtype=np.uint64)
            shifts = (width - lengths).astype(np.uint64)
            # Host-bit check: zeroing the host bits must be a no-op.  A
            # length-0 row shifts by the full width — well-defined here
            # only because numpy masks shift counts; special-case it.
            masked = np.where(
                lengths == 0,
                np.uint64(0),
                (vals >> shifts) << shifts,
            )
            if not np.array_equal(masked, vals):
                i = int(np.nonzero(masked != vals)[0][0])
                raise TableError(
                    f"host bits of {int(vals[i]):#x}/{int(lengths[i])} "
                    f"are not zero (width {width})"
                )
            # duplicate check via packed keys (value << 8 | length needs
            # width + 8 <= 64 bits; widths up to 56 pack, else lexsort).
            if width <= 56:
                keys = (vals.astype(np.int64) << 8) | lengths
                uniq = np.unique(keys)
                if uniq.size != n:
                    raise TableError("duplicate route in from_arrays columns")
            else:
                order = np.lexsort((lengths, vals))
                sv, sl = vals[order], lengths[order]
                dup = (sv[1:] == sv[:-1]) & (sl[1:] == sl[:-1])
                if bool(dup.any()):
                    raise TableError("duplicate route in from_arrays columns")
        else:
            seen = set()
            for v, l in zip(values, lengths.tolist()):
                v = int(v)
                if v & ((1 << (width - l)) - 1):
                    raise TableError(
                        f"host bits of {v:#x}/{l} are not zero (width {width})"
                    )
                key = (v, l)
                if key in seen:
                    raise TableError("duplicate route in from_arrays columns")
                seen.add(key)

    # -- lazy dict ---------------------------------------------------------

    def inflate(self, prefixes: Sequence[Prefix]) -> None:
        """Materialise the dict now, keyed by ``prefixes`` (one per row, in
        column order), so tables holding the same routes can share Prefix
        objects.  No-op once inflated."""
        if self._dict is None:
            self._routes = dict(zip(prefixes, self._a_hops.tolist()))

    def _inflate(self) -> Dict[Prefix, NextHop]:
        values, lengths, hops = self._a_values, self._a_lengths, self._a_hops
        width = self.width
        d: Dict[Prefix, NextHop] = {}
        if values is not None:
            vlist = values.tolist() if isinstance(values, np.ndarray) else values
            for v, l, h in zip(vlist, lengths.tolist(), hops.tolist()):
                d[Prefix(int(v), int(l), width)] = int(h)
        # Columns are dropped: the dict is authoritative from here on.
        self._a_values = self._a_lengths = self._a_hops = None
        self._index = None
        return d

    @property
    def _routes(self) -> Dict[Prefix, NextHop]:
        d = self._dict
        if d is None:
            d = self._inflate()
            self._dict = d
        return d

    @_routes.setter
    def _routes(self, value: Dict[Prefix, NextHop]) -> None:
        self._dict = value
        self._a_values = self._a_lengths = self._a_hops = None
        self._index = None

    @property
    def inflated(self) -> bool:
        """True once the dict representation has been materialised."""
        return self._dict is not None

    # -- column access -----------------------------------------------------

    def as_arrays(self) -> Tuple[ValueColumn, np.ndarray, np.ndarray]:
        """The (values, lengths, hops) columns in insertion order.

        Zero-copy while un-inflated; rebuilt from the dict afterwards.
        Treat the result as read-only.
        """
        if self._dict is None:
            return self._a_values, self._a_lengths, self._a_hops
        return _columns_from_dict(self._dict, self.width)

    def _exact_index(self) -> Dict[tuple, int]:
        idx = self._index
        if idx is None:
            values, lengths = self._a_values, self._a_lengths
            vlist = (
                values.tolist() if isinstance(values, np.ndarray) else values
            )
            idx = {
                (int(v), int(l)): i
                for i, (v, l) in enumerate(zip(vlist, lengths.tolist()))
            }
            self._index = idx
        return idx

    # -- query overrides (array fast paths; fall back once inflated) -------

    def get(self, prefix: Prefix) -> Optional[NextHop]:
        if self._dict is not None:
            return self._dict.get(prefix)
        i = self._exact_index().get((prefix.value, prefix.length))
        return None if i is None else int(self._a_hops[i])

    def lookup(self, address: int) -> NextHop:
        if self._dict is not None or self.width > 64:
            return super().lookup(address)
        values, lengths = self._a_values, self._a_lengths
        if len(values) == 0:
            return NO_ROUTE
        # Clip the shift to 63 (a 64-bit shift is undefined for numpy
        # ints); length-0 rows match everything and are patched after.
        shifts = np.minimum(
            (self.width - lengths).astype(np.uint64), np.uint64(63)
        )
        addr = np.uint64(address)
        match = (values >> shifts) == (addr >> shifts)
        match |= lengths == 0
        if not bool(match.any()):
            return NO_ROUTE
        cand = np.nonzero(match)[0]
        best = cand[int(np.argmax(lengths[cand]))]
        return int(self._a_hops[best])

    def routes(self) -> Iterator[Tuple[Prefix, NextHop]]:
        if self._dict is not None:
            return iter(self._dict.items())
        return self._iter_routes()

    def _iter_routes(self) -> Iterator[Tuple[Prefix, NextHop]]:
        values, lengths, hops = self._a_values, self._a_lengths, self._a_hops
        width = self.width
        vlist = values.tolist() if isinstance(values, np.ndarray) else values
        for v, l, h in zip(vlist, lengths.tolist(), hops.tolist()):
            yield Prefix(int(v), int(l), width), int(h)

    def prefixes(self) -> List[Prefix]:
        if self._dict is not None:
            return list(self._dict)
        return [p for p, _ in self._iter_routes()]

    def next_hops(self) -> List[NextHop]:
        if self._dict is not None:
            return super().next_hops()
        hops = self._a_hops
        _, first = np.unique(hops, return_index=True)
        return [int(hops[i]) for i in np.sort(first)]

    def has_default_route(self) -> bool:
        if self._dict is not None:
            return super().has_default_route()
        return bool((self._a_lengths == 0).any())

    def length_histogram(self) -> Dict[int, int]:
        if self._dict is not None:
            return super().length_histogram()
        lengths, counts = np.unique(self._a_lengths, return_counts=True)
        # Preserve the dict-backed contract: keys in first-seen order.
        order: Dict[int, int] = {}
        as_of = {int(l): int(c) for l, c in zip(lengths, counts)}
        for l in self._a_lengths.tolist():
            if l not in order:
                order[l] = as_of[l]
        return order

    def copy(self) -> "RoutingTable":
        if self._dict is None:
            return ArrayRoutingTable(
                self._a_values, self._a_lengths, self._a_hops,
                self.width, validate=False,
            )
        return super().copy()

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        return len(self._a_values)

    def __contains__(self, prefix: Prefix) -> bool:
        if self._dict is not None:
            return prefix in self._dict
        return (prefix.value, prefix.length) in self._exact_index()

    def __iter__(self) -> Iterator[Prefix]:
        if self._dict is not None:
            return iter(self._dict)
        return (p for p, _ in self._iter_routes())

    def __repr__(self) -> str:
        state = "inflated" if self._dict is not None else "columnar"
        return (
            f"ArrayRoutingTable({len(self)} routes, width={self.width}, "
            f"{state})"
        )


def _columns_from_dict(
    routes: Dict[Prefix, NextHop], width: int
) -> Tuple[ValueColumn, np.ndarray, np.ndarray]:
    n = len(routes)
    lengths = np.empty(n, dtype=np.int64)
    hops = np.empty(n, dtype=np.int64)
    if width <= 64:
        values = np.empty(n, dtype=np.uint64)
        for i, (p, h) in enumerate(routes.items()):
            values[i] = p.value
            lengths[i] = p.length
            hops[i] = h
        return values, lengths, hops
    vlist: List[int] = []
    for i, (p, h) in enumerate(routes.items()):
        vlist.append(p.value)
        lengths[i] = p.length
        hops[i] = h
    return vlist, lengths, hops


def table_columns(
    table: RoutingTable,
) -> Tuple[ValueColumn, np.ndarray, np.ndarray]:
    """(values, lengths, hops) columns for any table, array-backed or not."""
    if isinstance(table, ArrayRoutingTable):
        return table.as_arrays()
    return _columns_from_dict(dict(table.routes()), table.width)
