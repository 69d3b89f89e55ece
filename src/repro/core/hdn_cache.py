"""High-degree-node (HDN) cache and HDN ID list.

The I-BUF_dense of GROW (paper Figure 8) is split into two structures:

* the HDN ID list — a CAM holding the node ids of the top-N high-degree
  nodes of the cluster currently being processed; and
* the HDN cache — an SRAM holding the dense RHS (XW) rows of those nodes,
  pinned for the duration of the cluster (the paper's Section VIII discusses
  why pinning beats demand-based replacement).

Lookups are batched: the simulator passes the whole column-index stream of a
cluster's adjacency rows and gets back a hit mask, which keeps the Python
simulation vectorised.  A CAM answers a membership query in constant time,
and so does the model: the ID list is a boolean bitmap over the phase's node
id space, so a batch lookup is one gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class HDNIdList:
    """The CAM that holds the ids of the currently cached high-degree nodes.

    Attributes:
        capacity: maximum number of ids the list holds.
        node_ids: the resident ids, distinct, in the order they were loaded.
        universe: size of the node id space the membership bitmap covers
            (the phase's RHS row count); ``load`` grows it on demand.
    """

    capacity: int
    node_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    universe: int = 0

    def __post_init__(self) -> None:
        node_ids = np.asarray(self.node_ids, dtype=np.int64)
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if node_ids.size > self.capacity:
            raise ValueError(
                f"HDN ID list overflow: {node_ids.size} ids, capacity {self.capacity}"
            )
        # Allocated once and reused by every ``load`` of the phase: a load
        # clears only the bits of the ids it replaces.
        self._bitmap = np.zeros(self.universe, dtype=bool)
        self.node_ids = np.empty(0, dtype=np.int64)
        self.load(node_ids)

    def load(self, node_ids: np.ndarray) -> None:
        """Replace the list contents with a new cluster's HDN ids.

        Keeps the first ``capacity`` distinct ids in the order given, which
        for a cluster's HDN list is descending degree.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size > 1:
            # First occurrences, in input order: a stable sort puts each
            # value's first occurrence at the head of its run.
            order = np.argsort(node_ids, kind="stable")
            ranked = node_ids[order]
            first = np.empty(ranked.shape, dtype=bool)
            first[0] = True
            np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
            node_ids = node_ids[np.sort(order[first], kind="stable")]
        node_ids = node_ids[: self.capacity]
        if node_ids.size and node_ids.min() < 0:
            raise ValueError("HDN node ids must be non-negative")

        self._bitmap[self.node_ids] = False
        if node_ids.size and node_ids.max() >= self._bitmap.size:
            self._bitmap = np.zeros(int(node_ids.max()) + 1, dtype=bool)
            self.universe = self._bitmap.size
        self._bitmap[node_ids] = True
        self.node_ids = node_ids

    def lookup(self, columns: np.ndarray) -> np.ndarray:
        """Boolean hit mask for a batch of column ids (CAM lookups)."""
        columns = np.asarray(columns, dtype=np.int64)
        bitmap = self._bitmap
        if self.node_ids.size == 0 or columns.size == 0:
            return np.zeros(columns.shape, dtype=bool)
        if columns.min() >= 0 and columns.max() < bitmap.size:
            return bitmap[columns]
        # Ids outside the bitmap were never loaded: they miss.
        inside = (columns >= 0) & (columns < bitmap.size)
        hits = np.zeros(columns.shape, dtype=bool)
        hits[inside] = bitmap[columns[inside]]
        return hits

    @property
    def size(self) -> int:
        return int(self.node_ids.size)

    @property
    def storage_bytes(self) -> int:
        """Storage footprint at 3 bytes per node id (paper Section V-C)."""
        return self.capacity * 3


@dataclass
class HDNCache:
    """The SRAM that pins the dense RHS rows of the current cluster's HDNs.

    Attributes:
        capacity_bytes: SRAM capacity.
        row_bytes: size of one dense RHS row (set when a phase begins).
        id_list: the companion HDN ID list used for lookups.
        hits / misses: lookup counters across the lifetime of the cache.
        fill_bytes: bytes streamed into the cache by cluster-start prefetches.
    """

    capacity_bytes: int
    row_bytes: int = 0
    id_list: HDNIdList = field(default_factory=lambda: HDNIdList(capacity=4096))
    hits: int = 0
    misses: int = 0
    fill_bytes: int = 0
    lookup_bytes: int = 0

    @property
    def capacity_rows(self) -> int:
        """Number of RHS rows that fit at the current row size."""
        if self.row_bytes <= 0:
            return 0
        return min(self.capacity_bytes // self.row_bytes, self.id_list.capacity)

    def begin_phase(self, row_bytes: int) -> None:
        """Configure the cache for a new phase's dense-row size."""
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self.row_bytes = row_bytes

    def fill_cluster(self, hdn_node_ids: np.ndarray) -> int:
        """Load a cluster's HDN rows; returns the bytes fetched from DRAM."""
        hdn_node_ids = np.asarray(hdn_node_ids, dtype=np.int64)
        usable = hdn_node_ids[: self.capacity_rows]
        self.id_list.load(usable)
        fetched = int(usable.size) * self.row_bytes
        self.fill_bytes += fetched
        return fetched

    def lookup_batch(self, columns: np.ndarray) -> np.ndarray:
        """Hit mask for a batch of RHS row requests; updates hit/miss counters."""
        mask = self.id_list.lookup(columns)
        batch_hits = int(mask.sum())
        self.hits += batch_hits
        self.misses += int(mask.size - batch_hits)
        self.lookup_bytes += int(mask.size) * self.row_bytes
        return mask

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def reset_counters(self) -> None:
        """Clear hit/miss/fill statistics (capacity and contents unchanged)."""
        self.hits = 0
        self.misses = 0
        self.fill_bytes = 0
        self.lookup_bytes = 0
