"""Pluggable meet backends — the engine's structural-query seam.

Every operator of the paper reduces to "find the lowest common
ancestor(s) of some hit nodes, plus distances".  This module makes
*how* that happens a pluggable choice:

* :class:`SteeredBackend` — the paper, verbatim: per-query
  ``parent()`` walks steered by the ⪯ prefix order on π (Fig. 3), the
  set-wise relational loop (Fig. 4) and the schema-driven bottom-up
  roll-up (Fig. 5).  Zero preprocessing; the join count *is* the
  distance, so traces stay meaningful.  This is the default and the
  reference semantics.

* :class:`IndexedBackend` — a per-store Euler-tour + sparse-table
  index (:mod:`repro.core.lca_index`) built once and cached, giving
  O(1) pairwise meets and distances.  Set-wise and n-ary meets run the
  *same bottom-up roll-up contract* as Figs. 4/5, but over the
  **auxiliary (virtual) tree** spanned by the hit nodes and the LCAs
  of Euler-order neighbours — O(m log m) in the number of hits m,
  independent of tree depth and of the path-summary size.  Answer
  sets are provably identical to the steered operators (the auxiliary
  tree is exactly the subgraph where input chains can converge); only
  the emission *order* differs, and every consumer re-ranks.

Choosing: for one ad-hoc query the steered walk wins — no index
build, and you get the paper's join-count trace for free.  For query
*volumes* (servers, benchmarks, ranking thousands of hit pairs) the
indexed backend amortizes one O(n log n) build into O(1) queries; see
``benchmarks/bench_backends.py`` for the crossover.

The seam is threaded everywhere structural queries happen: the module
functions (``meet2``, ``meet_sets``, ``meet_general``, ``graph_meet``,
``bounded_meet2``, ``distance``) accept ``backend=``, the
:class:`~repro.core.engine.NearestConceptEngine` takes
``backend="steered"|"indexed"`` and exposes the batched
``meet_many`` / ``nearest_concepts_batch`` APIs, and the CLI exposes
``--backend``.
"""

from __future__ import annotations

from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from ..monet.engine import MonetXML
from .lca_index import LcaIndex, get_lca_index
from .meet_general import (
    GeneralMeet,
    TaggedMeet,
    Token,
    _as_oid_tokens,
    meet_general,
    meet_tagged,
)
from .meet_pair import PairMeet, meet2_traced
from .meet_sets import SetMeet, _common_pid, meet_sets

__all__ = [
    "MeetBackend",
    "SteeredBackend",
    "IndexedBackend",
    "VectorBackend",
    "BACKEND_NAMES",
    "BackendSpec",
    "resolve_backend",
    "snapshot_default_backend",
]

#: CLI / engine spellings of the built-in backends.
BACKEND_NAMES: Tuple[str, ...] = ("steered", "indexed", "vector")

BackendSpec = Union[str, "MeetBackend", None]


def _decode_bits(mask: int, items: Sequence) -> Iterator:
    """The items whose interned bit is set, in bit (= intern) order."""
    while mask:
        low = mask & -mask
        yield items[low.bit_length() - 1]
        mask ^= low


@runtime_checkable
class MeetBackend(Protocol):
    """What a meet implementation must provide to plug into the engine.

    Implementations must agree on answer *sets* (meet OIDs, origin
    coverage, distances); they may differ in emission order and in
    which execution traces they can produce.
    """

    name: str
    store: MonetXML

    def meet(self, oid1: int, oid2: int) -> PairMeet:
        """Pairwise meet with distance (Fig. 3 / Def. 6)."""
        ...

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        """The §4 k-meet: ``None`` when d(o₁,o₂) > k."""
        ...

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        """Batched pairwise meets — the ranking hot path."""
        ...

    def distance(self, oid1: int, oid2: int) -> int:
        """Tree distance d(o₁,o₂) in edges."""
        ...

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        """Set-wise minimal meets of two homogeneous sets (Fig. 4)."""
        ...

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        """General n-ary meet over typed relations (Fig. 5)."""
        ...

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        """Roll-up over (token, OID) pairs; meets cover ≥ 2 tokens."""
        ...


class SteeredBackend:
    """The paper's path-steered walks — no preprocessing, traceable.

    Join counts reported by :class:`~repro.core.meet_pair.PairMeet`
    come from the actual Fig. 3 walk, so the paper's "number of joins
    = distance = ranking signal" reading holds literally.
    """

    name = "steered"

    def __init__(self, store: MonetXML):
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SteeredBackend {self.store!r}>"

    def meet(self, oid1: int, oid2: int) -> PairMeet:
        return meet2_traced(self.store, oid1, oid2)

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        from .restrictions import bounded_meet2

        return bounded_meet2(self.store, oid1, oid2, k)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        store = self.store
        return [meet2_traced(store, oid1, oid2) for oid1, oid2 in pairs]

    def distance(self, oid1: int, oid2: int) -> int:
        return meet2_traced(self.store, oid1, oid2).joins

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        return meet_sets(self.store, left, right)

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        return meet_general(self.store, relations)

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        return meet_tagged(self.store, tagged)


class IndexedBackend:
    """Euler-RMQ-indexed meets: O(1) pairs, auxiliary-tree roll-ups.

    The underlying :class:`~repro.core.lca_index.LcaIndex` is fetched
    through the generation-keyed cache on every operation, so a store
    that was invalidated (:meth:`MonetXML.invalidate_caches`) or
    rebuilt transparently gets a fresh index.
    """

    name = "indexed"

    def __init__(self, store: MonetXML):
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IndexedBackend {self.store!r}>"

    @property
    def index(self) -> LcaIndex:
        return get_lca_index(self.store)

    # -- pairwise --------------------------------------------------------
    # Equal OIDs short-circuit before any index look-up, mirroring the
    # steered walks (which answer o == o without touching the store).
    def meet(self, oid1: int, oid2: int) -> PairMeet:
        if oid1 == oid2:
            return PairMeet(oid1, 0)
        meet, distance = self.index.lca_with_distance(oid1, oid2)
        return PairMeet(meet, distance)

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        if k < 0:
            return None
        if oid1 == oid2:
            return PairMeet(oid1, 0)
        meet, distance = self.index.lca_with_distance(oid1, oid2)
        if distance > k:
            return None
        return PairMeet(meet, distance)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        lca_with_distance = self.index.lca_with_distance
        return [
            PairMeet(oid1, 0)
            if oid1 == oid2
            else PairMeet(*lca_with_distance(oid1, oid2))
            for oid1, oid2 in pairs
        ]

    def distance(self, oid1: int, oid2: int) -> int:
        return self.index.distance(oid1, oid2)

    # -- auxiliary-tree roll-up ------------------------------------------
    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        """Fig. 5's propagation over flat arrays with interned token-sets.

        Every distinct (token, OID) input pair is interned to an integer
        index; the roll-up then runs over the auxiliary tree in array
        form (:meth:`~repro.core.lca_index.LcaIndex.auxiliary_tree_arrays`)
        propagating plain ints instead of per-OID ``set`` objects.

        The key structural fact: a node accumulating ≥ 2 pairs is
        emitted as a meet and *stops propagating* (minimality, Fig. 5),
        so everything that travels upward is a **singleton** — one
        integer slot per auxiliary node suffices, and each propagation
        step is O(1).  (A width-``m`` bitmask would make each step
        O(m/64): a Python int's cost follows its highest set bit, not
        its popcount.)  Multi-pair token sets exist only at emission
        nodes, exactly where the output must materialize them anyway.
        """
        pair_index: Dict[Tuple[Token, int], int] = {}
        pairs: List[Tuple[Token, int]] = []
        by_oid: Dict[int, Union[int, List[int]]] = {}
        for token, oid in tagged:
            pair = (token, oid)
            index = pair_index.get(pair)
            if index is None:
                pair_index[pair] = index = len(pairs)
                pairs.append(pair)
                current = by_oid.get(oid)
                if current is None:
                    by_oid[oid] = index
                elif isinstance(current, list):
                    current.append(index)
                else:
                    by_oid[oid] = [current, index]
        if not by_oid:
            return []
        order, parent_index = self.index.auxiliary_tree_arrays(by_oid)
        single: List[int] = [-1] * len(order)  # the lone pending pair
        multi: Dict[int, List[int]] = {}       # ≥ 2 pending pairs (meets)
        for position, oid in enumerate(order):
            entry = by_oid.get(oid)
            if entry is None:
                continue
            if isinstance(entry, list):
                multi[position] = entry
            else:
                single[position] = entry
        # Reverse pre-order visits every auxiliary node after all of
        # its auxiliary descendants — the roll-up order of Fig. 5.
        meets: List[TaggedMeet] = []
        for position in range(len(order) - 1, -1, -1):
            accumulated = multi.get(position)
            if accumulated is not None:
                # Emitted meets do not propagate (minimality, Fig. 5).
                meets.append(
                    TaggedMeet(
                        oid=order[position],
                        tokens=frozenset(pairs[i] for i in accumulated),
                    )
                )
                continue
            index = single[position]
            if index < 0:
                continue
            above = parent_index[position]
            if above < 0:
                continue
            pending = single[above]
            if pending < 0:
                grown = multi.get(above)
                if grown is not None:
                    grown.append(index)
                else:
                    single[above] = index
            else:
                multi[above] = [pending, index]
                single[above] = -1
        return meets

    # The per-OID-set roll-up this class shipped with originally; kept
    # as the differential-test oracle and the serving benchmark's
    # emulated pre-optimization baseline.
    def _meet_tagged_sets(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        by_oid: Dict[int, Set[Tuple[Token, int]]] = {}
        for token, oid in tagged:
            by_oid.setdefault(oid, set()).add((token, oid))
        if not by_oid:
            return []
        order, parent = self.index.auxiliary_tree(by_oid)
        accumulated: Dict[int, Set[Tuple[Token, int]]] = {
            oid: set(tokens) for oid, tokens in by_oid.items()
        }
        meets: List[TaggedMeet] = []
        for oid in reversed(order):
            tokens = accumulated.get(oid)
            if not tokens:
                continue
            if len(tokens) >= 2:
                meets.append(TaggedMeet(oid=oid, tokens=frozenset(tokens)))
                continue
            above = parent[oid]
            if above is not None:
                accumulated.setdefault(above, set()).update(tokens)
        return meets

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        return [
            GeneralMeet(oid=meet.oid, origins=meet.origins)
            for meet in self.meet_tagged(_as_oid_tokens(relations))
        ]

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        """Fig. 4 over the auxiliary tree, with one bit per input OID.

        Two parallel mask arrays (left-origin bits, right-origin bits)
        replace the per-node pair-of-sets; a node is a meet exactly
        when both masks are non-zero, and the origin tuples are decoded
        only for emitted meets.
        """
        left_set, right_set = set(left), set(right)
        # Same homogeneity contract (and error message) as Fig. 4.
        _common_pid(self.store, left_set, "left")
        _common_pid(self.store, right_set, "right")
        if not left_set or not right_set:
            return []
        inputs = sorted(left_set | right_set)
        oid_bit = {oid: 1 << position for position, oid in enumerate(inputs)}
        order, parent_index = self.index.auxiliary_tree_arrays(inputs)
        left_masks = [0] * len(order)
        right_masks = [0] * len(order)
        position_of = {oid: position for position, oid in enumerate(order)}
        for oid in left_set:
            left_masks[position_of[oid]] = oid_bit[oid]
        for oid in right_set:
            right_masks[position_of[oid]] = oid_bit[oid]
        meets: List[SetMeet] = []
        for position in range(len(order) - 1, -1, -1):
            lefts = left_masks[position]
            rights = right_masks[position]
            if lefts and rights:
                meets.append(
                    SetMeet(
                        oid=order[position],
                        left_origins=tuple(_decode_bits(lefts, inputs)),
                        right_origins=tuple(_decode_bits(rights, inputs)),
                    )
                )
                continue
            above = parent_index[position]
            if above >= 0 and (lefts or rights):
                left_masks[above] |= lefts
                right_masks[above] |= rights
        return meets


class TaggedBatch:
    """The vector roll-up's result, kept as flat columns.

    A lazy ``Sequence[TaggedMeet]``: indexing materializes one real
    :class:`TaggedMeet` (so any element compares equal to the python
    backends' output).  Everything the engine's select step needs is
    answered from the columns instead — the §4 rank keys, each meet's
    pid, which meets cover every requested token (:meth:`covers`) and
    the stand-in-root residue (:meth:`residue`) — so a top-k consumer
    only ever materializes its winners.

    Columns: pair ``i`` is ``(tokens[pair_tokens[i]], pair_oids[i])``;
    meet ``m`` sits at ``meet_oids[m]`` and covers the pairs
    ``group_pairs[bounds[m]:bounds[m + 1]]``.
    """

    __slots__ = (
        "_tokens", "_pair_tokens", "_pair_oids", "_meet_oids", "_meet_pids",
        "_group_pairs", "_bounds", "_keys",
    )

    def __init__(self, tokens, pair_tokens, pair_oids, meet_oids, meet_pids,
                 group_pairs, bounds, keys):
        self._tokens = tokens
        self._pair_tokens = pair_tokens
        self._pair_oids = pair_oids
        self._meet_oids = meet_oids
        self._meet_pids = meet_pids
        self._group_pairs = group_pairs
        self._bounds = bounds
        #: ``(joins, spread, -depth, oid)`` rows, one per meet.
        self._keys = keys

    @property
    def rank_keys(self) -> List[Tuple[int, int, int, int]]:
        """The §4 sort keys as tuples — exactly
        :meth:`NearestConceptEngine._rank_keys`, index-aligned."""
        return list(map(tuple, self._keys.tolist()))

    def __len__(self) -> int:
        return len(self._meet_oids)

    def __getitem__(self, position: int) -> TaggedMeet:
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(position)
        bounds = self._bounds
        return TaggedMeet(
            oid=int(self._meet_oids[position]),
            tokens=frozenset(self._pairs(
                self._group_pairs[bounds[position]:bounds[position + 1]]
            )),
        )

    def _pairs(self, indexes) -> List[Tuple[Token, int]]:
        tokens = self._tokens
        return list(zip(
            [tokens[slot] for slot in self._pair_tokens[indexes].tolist()],
            self._pair_oids[indexes].tolist(),
        ))

    def covers(self, wanted: Set[Token]):
        """Per meet (bool array): do its tokens include all of ``wanted``?"""
        import numpy as np

        slots = [
            slot for slot, token in enumerate(self._tokens) if token in wanted
        ]
        if len(slots) < len(wanted):
            return np.zeros(len(self), dtype=bool)
        needed = np.zeros(len(self._tokens), dtype=bool)
        needed[slots] = True
        entry_tokens = self._pair_tokens[self._group_pairs]
        group_of = np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self._bounds)
        )
        keep = needed[entry_tokens]
        width = len(self._tokens)
        distinct = np.unique(group_of[keep] * width + entry_tokens[keep])
        return np.bincount(distinct // width, minlength=len(self)) == len(slots)

    def residue(self, root: int) -> List[Tuple[Token, int]]:
        """The input pairs no meet other than ``root`` absorbed.

        Every pair joins at most one meet, so these are the pairs of
        the meet at ``root`` (if any) plus the pairs no meet absorbed.
        """
        import numpy as np

        absorbed = np.zeros(len(self._pair_oids), dtype=bool)
        absorbed[self._group_pairs] = True
        bounds = self._bounds
        for position in np.flatnonzero(self._meet_oids == root).tolist():
            absorbed[
                self._group_pairs[bounds[position]:bounds[position + 1]]
            ] = False
        return self._pairs(np.flatnonzero(~absorbed))

    def select(
        self,
        exclude_pids: Set[int],
        wanted: Set[Token],
        within: Optional[int],
        limit: Optional[int],
    ) -> List[int]:
        """Positions of the meets passing every filter, best first.

        The column form of :meth:`NearestConceptEngine.select`: boolean
        masks for the filters, then a partition on joins (the leading
        key) narrows the candidates before the exact lexicographic sort.
        """
        import numpy as np

        if not len(self) or (limit is not None and limit <= 0):
            return []
        keys = self._keys
        keep = np.ones(len(self), dtype=bool)
        if exclude_pids:
            keep &= ~np.isin(self._meet_pids, list(exclude_pids))
        if wanted:
            keep &= self.covers(wanted)
        if within is not None:
            keep &= keys[:, 0] <= within
        candidates = np.flatnonzero(keep)
        if limit is not None and limit < len(candidates):
            joins = keys[candidates, 0]
            cutoff = np.partition(joins, limit - 1)[limit - 1]
            candidates = candidates[joins <= cutoff]
        ranked = candidates[np.lexsort(keys[candidates].T[::-1])]
        return ranked[:limit].tolist()


class VectorBackend(IndexedBackend):
    """NumPy batch kernels over the same Euler-RMQ columns.

    Identical answer sets, ranking keys and emission order as
    :class:`IndexedBackend` — the differential suite holds them
    byte-identical — but every batched operation (``meet_many``, the
    Fig. 4/5 roll-ups) runs as whole-array passes over zero-copy
    ``int64`` views of the index columns (:mod:`repro.kernels`)
    instead of python-level per-element loops.  Only instantiate via
    :func:`resolve_backend`, which silently degrades a ``"vector"``
    request to :class:`IndexedBackend` when NumPy is missing; scalar
    operations (``meet``, ``distance``) inherit the O(1) python
    kernels, which beat a one-element array round-trip.
    """

    name = "vector"

    @property
    def kernels(self):
        """The memoized batch kernels of the current-generation index."""
        from ..kernels.lca import get_kernels

        return get_kernels(self.index)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        import numpy as np

        materialized = list(pairs)
        if not materialized:
            return []
        table = np.asarray(materialized, dtype=np.int64).reshape(-1, 2)
        left, right = table[:, 0], table[:, 1]
        meets = left.copy()
        distances = np.zeros(len(meets), dtype=np.int64)
        # Equal pairs answer without index validation, like the
        # scalar short-circuit in IndexedBackend.meet_many.
        unequal = left != right
        if unequal.any():
            meets[unequal], distances[unequal] = self.kernels.lca_many(
                left[unequal], right[unequal]
            )
        return [
            PairMeet(meet, distance)
            for meet, distance in zip(meets.tolist(), distances.tolist())
        ]

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        """Fig. 5 as level-wise array passes over the auxiliary tree.

        The distinct (token, OID) pairs become token-slot and OID
        columns; from there propagation is
        :func:`repro.kernels.rollup.rollup_tagged`.
        """
        import numpy as np

        pairs = dict.fromkeys((token, oid) for token, oid in tagged)
        slots: Dict[Token, int] = {}
        pair_tokens = np.fromiter(
            (slots.setdefault(token, len(slots)) for token, _ in pairs),
            dtype=np.int64,
            count=len(pairs),
        )
        pair_oids = np.fromiter(
            (oid for _, oid in pairs), dtype=np.int64, count=len(pairs)
        )
        return list(self._batch(list(slots), pair_tokens, pair_oids))

    def meet_term_hits(self, term_hits) -> "TaggedBatch":
        """The engine's batched fast path: (term, Hits) straight in.

        Each term contributes its cached distinct-OID column
        (:meth:`repro.fulltext.index.Hits.oid_column`) whole — no
        python pair list.  The result is a :class:`TaggedBatch`, whose
        consumers rank and filter on columns and materialize only the
        meets they return.
        """
        import numpy as np

        terms: List[Token] = []
        columns: List[np.ndarray] = []
        for term, hits in term_hits:
            column = np.asarray(hits.oid_column(), dtype=np.int64)
            if len(column):
                terms.append(term)
                columns.append(column)
        pair_tokens = np.repeat(
            np.arange(len(columns), dtype=np.int64),
            [len(column) for column in columns],
        )
        pair_oids = (
            np.concatenate(columns) if columns
            else np.empty(0, dtype=np.int64)
        )
        return self._batch(terms, pair_tokens, pair_oids)

    def _batch(self, tokens, pair_tokens, pair_oids) -> "TaggedBatch":
        import numpy as np

        from ..kernels.rollup import rollup_tagged

        emitted = ()
        if len(pair_oids):
            order, emitted, group_pairs, boundaries = rollup_tagged(
                self.kernels, pair_oids
            )
        if not len(emitted):
            empty = np.empty(0, dtype=np.int64)
            return TaggedBatch(
                tokens, pair_tokens, pair_oids, empty, empty, empty,
                np.zeros(1, dtype=np.int64),
                np.empty((0, 4), dtype=np.int64),
            )
        meet_oids = order[emitted]
        bounds = np.concatenate(([0], boundaries, [len(group_pairs)]))
        keys, meet_pids = self._rank_key_rows(
            meet_oids, pair_oids, group_pairs, bounds
        )
        return TaggedBatch(
            tokens, pair_tokens, pair_oids, meet_oids, meet_pids,
            group_pairs, bounds, keys,
        )

    def _rank_key_rows(self, meet_oids, pair_oids, group_pairs, bounds):
        """(§4 sort-key rows, meet pids) for every emitted meet.

        The rows are byte-identical to
        :meth:`NearestConceptEngine._rank_keys` —
        ``(joins, spread, -depth, oid)`` with summary depths and
        live-node spreads — but computed with five whole-array passes
        while the roll-up's flat arrays are still in hand, instead of
        one python loop per meet over its origin frozenset.
        """
        import numpy as np

        from ..kernels.lca import sorted_unique

        store = self.store
        first = store.first_oid
        pid_column, depth_by_pid = self._rank_columns()

        # Distinct origin OIDs per emitted meet: one combined
        # (group, OID) key, uniqued — groups stay contiguous and the
        # origins inside a group come out sorted ascending.
        group_count = len(meet_oids)
        group_of = np.repeat(
            np.arange(group_count, dtype=np.int64), np.diff(bounds)
        )
        span = np.int64(store.node_count)
        origin_keys = sorted_unique(
            group_of * span + (pair_oids[group_pairs] - first)
        )
        origin_groups = origin_keys // span
        origin_oids = origin_keys % span  # still OID - first_oid
        starts = np.concatenate(
            ([0], np.nonzero(np.diff(origin_groups))[0] + 1)
        )
        counts = np.diff(np.concatenate((starts, [len(origin_keys)])))

        meet_pids = pid_column[meet_oids - first]
        meet_depths = depth_by_pid[meet_pids]
        origin_depths = depth_by_pid[pid_column[origin_oids]]
        joins = np.add.reduceat(origin_depths, starts) - meet_depths * counts

        # Spread = live distance between the outermost origins (§4);
        # origins are sorted within a group, so they sit at the group
        # edges.  With tombstones, dead nodes below each endpoint are
        # subtracted via the store's prefix table (live_position).
        lows = origin_oids[starts] + first
        highs = origin_oids[starts + counts - 1] + first
        tomb_starts, dead_prefix = store.tombstone_table()
        if tomb_starts:
            tomb = np.asarray(tomb_starts, dtype=np.int64)
            dead = np.asarray(dead_prefix, dtype=np.int64)
            spreads = (
                highs - dead[np.searchsorted(tomb, highs, side="right")]
            ) - (lows - dead[np.searchsorted(tomb, lows, side="right")])
        else:
            spreads = highs - lows

        rows = np.empty((group_count, 4), dtype=np.int64)
        rows[:, 0] = joins
        rows[:, 1] = spreads
        rows[:, 2] = -meet_depths
        rows[:, 3] = meet_oids
        return rows, meet_pids

    def _rank_columns(self):
        """(pid column, depth-by-pid) as int64 arrays, generation-keyed.

        The store's dense pid column is a plain python list; copying it
        into an array once per generation keeps the per-query key pass
        free of per-element conversions.  Tombstones are *not* cached
        here — deletes may add them without touching these columns —
        so :meth:`_rank_key_rows` reads the prefix table fresh.
        """
        import numpy as np

        store = self.store
        cached = getattr(self, "_rank_columns_cache", None)
        if cached is not None and cached[0] == store.generation:
            return cached[1], cached[2]
        pid_column = np.asarray(store.dense_columns()[0], dtype=np.int64)
        summary = store.summary
        depth_by_pid = np.fromiter(
            (summary.depth(pid) for pid in range(len(summary))),
            dtype=np.int64,
            count=len(summary),
        )
        self._rank_columns_cache = (store.generation, pid_column, depth_by_pid)
        return pid_column, depth_by_pid

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        import numpy as np

        from ..kernels.rollup import rollup_sets

        left_set, right_set = set(left), set(right)
        # Same homogeneity contract (and error message) as Fig. 4.
        _common_pid(self.store, left_set, "left")
        _common_pid(self.store, right_set, "right")
        if not left_set or not right_set:
            return []
        inputs = np.fromiter(
            sorted(left_set | right_set),
            dtype=np.int64,
            count=len(left_set | right_set),
        )
        in_left = np.isin(
            inputs,
            np.fromiter(left_set, dtype=np.int64, count=len(left_set)),
        )
        in_right = np.isin(
            inputs,
            np.fromiter(right_set, dtype=np.int64, count=len(right_set)),
        )
        order, emitted, origin_indexes, boundaries = rollup_sets(
            self.kernels, inputs, in_left, in_right
        )
        order_list = order.tolist()
        input_list = inputs.tolist()
        origins = origin_indexes.tolist()
        left_flags = in_left[origin_indexes].tolist()
        right_flags = in_right[origin_indexes].tolist()
        bounds = boundaries.tolist()
        meets: List[SetMeet] = []
        for position, start, end in zip(
            emitted.tolist(), [0, *bounds], [*bounds, len(origins)]
        ):
            meets.append(
                SetMeet(
                    oid=order_list[position],
                    left_origins=tuple(
                        input_list[i]
                        for i, flag in zip(
                            origins[start:end], left_flags[start:end]
                        )
                        if flag
                    ),
                    right_origins=tuple(
                        input_list[i]
                        for i, flag in zip(
                            origins[start:end], right_flags[start:end]
                        )
                        if flag
                    ),
                )
            )
        return meets


def snapshot_default_backend() -> str:
    """The backend snapshot serving defaults to.

    ``vector`` when the NumPy kernels are importable, else ``indexed``
    — both answer from the bundle's seeded LCA index without a
    rebuild, and the vector tier is answer-identical, so preferring it
    whenever it can run is free.
    """
    from .. import kernels

    return "vector" if kernels.available() else "indexed"


def resolve_backend(store: MonetXML, spec: BackendSpec = None) -> "MeetBackend":
    """Normalize a backend spec: name, instance, or ``None`` (steered).

    ``"vector"`` degrades silently to :class:`IndexedBackend` when
    NumPy is not importable — the kernels are an optional extra, and
    both backends are answer-identical.  An instance is returned
    as-is when it is bound to ``store``; binding it to a different
    store is almost certainly a bug and raises.
    """
    if spec is None:
        return SteeredBackend(store)
    if isinstance(spec, str):
        if spec == "steered":
            return SteeredBackend(store)
        if spec == "indexed":
            return IndexedBackend(store)
        if spec == "vector":
            from .. import kernels

            if kernels.available():
                return VectorBackend(store)
            return IndexedBackend(store)
        raise ValueError(
            f"unknown meet backend {spec!r}; expected one of {BACKEND_NAMES}"
        )
    if getattr(spec, "store", None) is not store:
        raise ValueError(
            "backend instance is bound to a different store (or has no "
            "store attribute; MeetBackend implementations must carry one)"
        )
    return spec
