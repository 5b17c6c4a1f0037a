"""The Name Node: block namespace, placement, access, and recovery.

The NameNode owns the block namespace, asks its placement policy for replica
destinations when a client creates a block, answers block accesses by listing
the servers holding healthy replicas (excluding busy ones when primary-tenant
aware), and re-creates replicas destroyed by reimages subject to the
replication rate limit.

Three awareness levels match the paper's HDFS variants:

* ``HDFS-Stock`` — ``primary_aware=False`` with :class:`StockPlacementPolicy`;
* ``HDFS-PT`` — ``primary_aware=True`` with :class:`StockPlacementPolicy`;
* ``HDFS-H`` — ``primary_aware=True`` with :class:`HistoryPlacementPolicy`.

All block state lives in a columnar :class:`~repro.storage.block_table
.BlockTable` (one numpy row per block); the hot paths — creation, batched
access checking, reimage replay (one column update over the reimaged
server's replica index), and recovery (one array pass per window of a
round's blocks: an open matrix, one array draw for every pick, one batch
of column writes, restarted after any store that fills a server) — run as
array operations over it, while :attr:`blocks` hands out per-object
:class:`~repro.storage.block.BlockView` wrappers that read and write the
same arrays.  Every array expression reproduces the scalar arithmetic and
random-draw ordering of the per-object path it replaced, so fixed seeds
yield bit-identical experiment results
(see ``tests/test_storage_block_table.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.simulation.metrics import MetricRegistry
from repro.simulation.random import RandomSource
from repro.storage.block import BlockView
from repro.storage.block_table import BlockNamespace, BlockTable
from repro.storage.datanode import DataNode
from repro.storage.placement_policies import PlacementContext, PlacementPolicy
from repro.storage.replication import ReplicationManager
from repro.traces.matrix import TraceMatrix

#: Cells (blocks x the wider of servers and replica slots) that one
#: recovery pass may hold in its temporaries; a larger round runs in
#: several passes over consecutive windows of its blocks.
RECOVERY_PASS_CELLS = 1 << 16


def _take_open_columns(
    open_: np.ndarray,
    block_of: np.ndarray,
    layer: np.ndarray,
    highs: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """The open column each pick's draw selects, closing it as it goes.

    Pick ``k`` belongs to row ``block_of[k]``, is that row's
    ``layer[k]``-th pick, and drew ``draws[k] < highs[k]``.  Picks are
    resolved one layer at a time, so a row's later picks choose among the
    columns its earlier picks left open; within a layer each row has
    exactly ``highs`` open columns, consecutive in the row-major
    ``flatnonzero`` list of the layer's rows.
    """
    width = open_.shape[1]
    columns = np.empty(len(block_of), dtype=np.int64)
    for j in range(int(layer.max(initial=-1)) + 1):
        at = np.flatnonzero(layer == j)
        rows = block_of[at]
        open_cells = np.flatnonzero(open_[rows])
        first = np.cumsum(highs[at]) - highs[at]
        columns[at] = open_cells[first + draws[at]] - np.arange(
            0, len(at) * width, width
        )
        open_[rows, columns[at]] = False
    return columns


class AccessResult(str, enum.Enum):
    """Outcome of a block access attempt."""

    SERVED = "served"
    UNAVAILABLE = "unavailable"
    LOST = "lost"


@dataclass
class CreateResult:
    """Outcome of a block creation."""

    block: Optional[BlockView]
    placed_replicas: int
    requested_replicas: int

    @property
    def fully_replicated(self) -> bool:
        """Whether the desired replication level was achieved at creation."""
        return (
            self.block is not None
            and self.placed_replicas >= self.requested_replicas
        )


@dataclass
class AccessBatch:
    """Outcome of one :meth:`NameNode.access_blocks` round.

    Attributes:
        served: accesses served from a healthy (and, when primary-aware,
            non-busy) replica.
        failed: accesses denied because every healthy replica was busy.
        lost: accesses that hit a lost block.
        io_load: per-server secondary-I/O fraction added by the served
            accesses, indexed like :attr:`NameNode.server_ids`.
    """

    served: int
    failed: int
    lost: int
    io_load: np.ndarray


class NameNode:
    """Block namespace manager with pluggable placement policy."""

    def __init__(
        self,
        datanodes: Iterable[DataNode],
        placement_policy: PlacementPolicy,
        primary_aware: bool = True,
        default_replication: int = 3,
        rng: Optional[RandomSource] = None,
        metrics: Optional[MetricRegistry] = None,
        replication_manager: Optional[ReplicationManager] = None,
        trace_matrix: Optional[TraceMatrix] = None,
    ) -> None:
        self._datanodes: Dict[str, DataNode] = {dn.server_id: dn for dn in datanodes}
        if not self._datanodes:
            raise ValueError("a NameNode needs at least one DataNode")
        self._policy = placement_policy
        self._primary_aware = primary_aware
        if default_replication <= 0:
            raise ValueError("default_replication must be positive")
        self._default_replication = default_replication
        self._rng = rng or RandomSource(0)
        self.metrics = metrics or MetricRegistry()
        self._replication = replication_manager or ReplicationManager()
        self._block_counter = 0
        #: Cached count of servers with free space, invalidated whenever
        #: used space changes; the re-replication loop reads it every round.
        self._healthy_server_count: Optional[int] = None
        self._init_vector_state(trace_matrix)

    def _init_vector_state(self, trace_matrix: Optional[TraceMatrix]) -> None:
        """Build the columnar server/block state used by the hot paths.

        Busy checks and space filtering run once per block creation, recovery
        candidate pick, and access; evaluating them per DataNode in Python
        dominates the storage experiments.  The NameNode therefore keeps a
        per-server view — tenant trace row, busy threshold, capacity, and a
        mirror of used space — as flat numpy arrays, updated on the same
        mutations that update the DataNodes themselves, and a
        :class:`BlockTable` holding one row per block.
        """
        dns = list(self._datanodes.values())
        self._datanode_list: List[DataNode] = dns
        self._server_ids: List[str] = [dn.server_id for dn in dns]
        self._index_of_server: Dict[str, int] = {
            sid: i for i, sid in enumerate(self._server_ids)
        }
        if trace_matrix is None:
            tenants, seen = [], set()
            for dn in dns:
                if dn.tenant.tenant_id not in seen:
                    seen.add(dn.tenant.tenant_id)
                    tenants.append(dn.tenant)
            trace_matrix = TraceMatrix(tenants)
        self._matrix = trace_matrix
        self._server_rows = np.array(
            [self._matrix.row_of_tenant(dn.tenant.tenant_id) for dn in dns],
            dtype=np.int64,
        )
        self._server_aware = np.array([dn.primary_aware for dn in dns], dtype=bool)
        self._server_thresholds = np.array([dn.busy_threshold for dn in dns])
        self._server_capacity = np.array([dn.capacity_gb for dn in dns])
        self._server_used = np.array([dn.used_space_gb for dn in dns])
        self._table = BlockTable(
            self._server_ids, [dn.tenant_id for dn in dns]
        )
        self._namespace = BlockNamespace(self._table)
        self._placement_context = PlacementContext.build(
            self._server_ids, [dn.server.rack for dn in dns]
        )

    @property
    def trace_matrix(self) -> TraceMatrix:
        """The vectorized utilization view over the DataNodes' tenants."""
        return self._matrix

    @property
    def block_table(self) -> BlockTable:
        """The columnar substrate every block hot path runs on."""
        return self._table

    @property
    def server_ids(self) -> List[str]:
        """Server ids in column order (the order io-load vectors use)."""
        return list(self._server_ids)

    # -- namespace ----------------------------------------------------------

    @property
    def blocks(self) -> Mapping[str, BlockView]:
        """All blocks ever created, keyed by id (live views, creation order)."""
        return self._namespace

    @property
    def datanodes(self) -> Dict[str, DataNode]:
        """All registered DataNodes keyed by server id."""
        return self._datanodes

    def lost_blocks(self) -> List[BlockView]:
        """Blocks whose every replica has been destroyed."""
        return [self._table.view(int(row)) for row in self._table.lost_rows()]

    def under_replicated_blocks(self) -> List[BlockView]:
        """Blocks below their target replication but not lost."""
        return [
            self._table.view(int(row))
            for row in self._table.under_replicated_rows()
        ]

    # -- block creation ----------------------------------------------------------

    def create_block(
        self,
        time: float,
        replication: Optional[int] = None,
        creating_server_id: Optional[str] = None,
        size_gb: float = 0.25,
    ) -> CreateResult:
        """Create a block and place its replicas via the placement policy.

        Busy servers are excluded from the candidate set when primary-aware
        (the NameNode stops using busy DataNodes as destinations).
        """
        replication = replication or self._default_replication
        block_ids = self.create_blocks(
            time, [creating_server_id], replication=replication, size_gb=size_gb
        )
        block_id = block_ids[0]
        if block_id is None:
            return CreateResult(None, 0, replication)
        row = self._table.row_of(block_id)
        return CreateResult(
            self._table.view(row), self._table.healthy_count_of(row), replication
        )

    def create_blocks(
        self,
        time: float,
        creating_server_ids: Sequence[Optional[str]],
        replication: Optional[int] = None,
        size_gb: float = 0.25,
    ) -> List[Optional[str]]:
        """Create one block per entry of ``creating_server_ids``, batched.

        The one creation path (:meth:`create_block` is a batch of one):
        busy servers (when primary-aware) and servers without space are
        excluded up front in one vectorized pass — the busy mask is a pure
        function of ``time``, so it is computed once and the exclusion mask
        is refreshed scalar-wise as replicas land — and the metric counters
        and re-replication enqueues are applied in one batch at the end.
        Returns the id of each created block (``None`` where placement
        found no candidates).
        """
        replication = replication or self._default_replication
        if size_gb <= 0:
            raise ValueError("block size must be positive")
        if replication <= 0:
            raise ValueError("target_replication must be positive")
        busy = self._busy_mask(time) if self._primary_aware else None
        # The exclusion mask is a pure function of (busy at ``time``, used
        # space); within the batch only the stores below change used space,
        # so maintain the mask incrementally — one scalar refresh per placed
        # replica instead of three fleet-wide array ops per block.
        excluded_mask = ~self._space_mask(size_gb)
        if busy is not None:
            excluded_mask |= busy
        exclude_ids: Optional[List[str]] = None
        candidates: Optional[np.ndarray] = None
        results: List[Optional[str]] = []
        pending: List[str] = []
        created = failed = 0
        for creating_server_id in creating_server_ids:
            self._block_counter += 1
            block_id = f"block-{self._block_counter}"
            if candidates is None:
                candidates = np.flatnonzero(~excluded_mask)
                exclude_ids = [
                    self._server_ids[i] for i in np.flatnonzero(excluded_mask)
                ]
            chosen = self._choose_placement(
                replication,
                creating_server_id,
                size_gb,
                excluded_mask,
                exclude_ids,
                candidates,
            )
            if not chosen:
                failed += 1
                results.append(None)
                continue
            row = self._table.append(block_id, size_gb, replication)
            for server_index in chosen:
                self._store_replica_at(row, server_index, size_gb, time)
                free = float(
                    self._server_capacity[server_index]
                    - self._server_used[server_index]
                )
                now_excluded = not (size_gb <= max(0.0, free) + 1e-9) or bool(
                    busy is not None and busy[server_index]
                )
                if bool(excluded_mask[server_index]) != now_excluded:
                    excluded_mask[server_index] = now_excluded
                    exclude_ids = None
                    candidates = None
            created += 1
            if self._table.healthy_count_of(row) < replication:
                pending.append(block_id)
            results.append(block_id)
        if created:
            self.metrics.counter("blocks_created").increment(created)
        if failed:
            self.metrics.counter("block_creations_failed").increment(failed)
        self._replication.enqueue_many(pending)
        return results

    def _choose_placement(
        self,
        replication: int,
        creating_server_id: Optional[str],
        size_gb: float,
        excluded_mask: np.ndarray,
        exclude_ids: Optional[List[str]] = None,
        candidates: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Replica destinations as server indices, via the policy.

        Policies exposing the vectorized ``choose_server_indices`` entry
        point (the stock rule) receive the exclusion mask directly; the
        grid-based history policy keeps the id-based interface, fed from the
        same mask (``exclude_ids`` / ``candidates`` let batch callers reuse
        materialized forms of it while the mask is unchanged).
        """
        fast = getattr(self._policy, "choose_server_indices", None)
        if fast is not None:
            creating_index = (
                self._index_of_server.get(creating_server_id)
                if creating_server_id is not None
                else None
            )
            return fast(
                replication,
                creating_index,
                excluded_mask,
                self._placement_context,
                candidates,
            )
        if exclude_ids is None:
            exclude_ids = [self._server_ids[i] for i in np.flatnonzero(excluded_mask)]
        chosen = self._policy.choose_servers(
            replication,
            creating_server_id,
            self._datanodes,
            size_gb,
            exclude=exclude_ids,
            space_prefiltered=True,
        )
        return [self._index_of_server[sid] for sid in chosen]

    def _store_replica_at(
        self, row: int, server_index: int, size_gb: float, time: float
    ) -> None:
        datanode = self._datanode_list[server_index]
        datanode.store_replica_id(self._table.id_of(row), size_gb)
        self._server_used[server_index] += size_gb
        self._healthy_server_count = None
        # Creation fills a fresh row and recovery excludes every former
        # holder, so the replica never reuses a slot.
        self._table.append_replica(row, server_index, time)

    def _busy_mask(self, time: float) -> np.ndarray:
        """Per-server busy flags, evaluated as one trace-matrix gather."""
        util = self._matrix.utilization_rows(self._server_rows, time)
        return self._server_aware & (util > self._server_thresholds)

    def _space_mask(self, size_gb: float) -> np.ndarray:
        """Per-server flags for ``DataNode.has_space_for(size_gb)``."""
        return self._fits(np.array([size_gb]), self._server_used)[0]

    # -- access -------------------------------------------------------------------

    def access_block(self, block_id: str, time: float) -> AccessResult:
        """Attempt to read a block.

        A primary-aware NameNode only lists non-busy replicas; the access
        fails (``UNAVAILABLE``) when all healthy replicas sit on busy servers.
        A primary-oblivious deployment serves the access regardless, paying
        with primary-tenant interference instead (that cost is modelled by
        the latency model, not here).
        """
        row = self._table.get_row(block_id)
        if row is None:
            raise KeyError(f"unknown block {block_id}")
        self._table.record_access(row)
        if self._table.lost[row]:
            self.metrics.counter("accesses_lost_block").increment()
            return AccessResult.LOST

        healthy = self._table.healthy_servers_of(row)
        if not len(healthy):
            self.metrics.counter("accesses_lost_block").increment()
            return AccessResult.LOST

        if not self._primary_aware:
            self.metrics.counter("accesses_served").increment()
            return AccessResult.SERVED

        busy = self._busy_mask(time)
        if not busy[healthy].all():
            self.metrics.counter("accesses_served").increment()
            return AccessResult.SERVED
        self.metrics.counter("accesses_failed").increment()
        return AccessResult.UNAVAILABLE

    #: Integer codes used by :meth:`check_accesses`, index-aligned with the
    #: order the batch path reports them in.
    ACCESS_CODES = (AccessResult.SERVED, AccessResult.UNAVAILABLE, AccessResult.LOST)

    def check_accesses(
        self,
        block_ids: Sequence[str],
        times: Union[Sequence[float], np.ndarray],
    ) -> np.ndarray:
        """Evaluate a whole batch of accesses as numpy mask reductions.

        Semantically identical to calling :meth:`access_block` for each
        ``(block_ids[i], times[i])`` pair — including the metric counters —
        but the per-replica busy checks collapse into one ``(accesses x
        replicas)`` trace-matrix lookup over the block table's replica
        columns.  Returns an ``int8`` array whose values index
        :data:`ACCESS_CODES` (0 = served, 1 = unavailable, 2 = lost).
        """
        times = np.asarray(times, dtype=float)
        if len(block_ids) != len(times):
            raise ValueError("block_ids and times must have the same length")
        n = len(block_ids)
        codes = np.zeros(n, dtype=np.int8)
        if n == 0:
            return codes

        rows = np.empty(n, dtype=np.int64)
        for i, block_id in enumerate(block_ids):
            row = self._table.get_row(block_id)
            if row is None:
                raise KeyError(f"unknown block {block_id}")
            rows[i] = row
        self._table.record_accesses(rows)

        # (accesses x slots) server-index matrix straight from the table's
        # replica columns; destroyed or empty slots are masked out.
        servers = self._table.replica_servers[rows]
        valid = (servers >= 0) & self._table.replica_healthy[rows]
        lost = ~valid.any(axis=1)
        codes[lost] = 2

        if not self._primary_aware:
            served = ~lost
        else:
            safe = np.where(valid, servers, 0)
            util = self._matrix.utilization(
                self._server_rows[safe], times[:, None]
            )
            busy = self._server_aware[safe] & (
                util > self._server_thresholds[safe]
            )
            available = valid & ~busy
            served = available.any(axis=1) & ~lost
            codes[~served & ~lost] = 1
            self.metrics.counter("accesses_failed").increment(
                int((~served & ~lost).sum())
            )
        codes[served] = 0
        self.metrics.counter("accesses_served").increment(int(served.sum()))
        if lost.any():
            self.metrics.counter("accesses_lost_block").increment(int(lost.sum()))
        return codes

    def access_blocks(
        self,
        time: float,
        count: int,
        rng: RandomSource,
        io_per_access: float = 0.05,
        sampler=None,
    ) -> AccessBatch:
        """Serve ``count`` sampled accesses at ``time``, effectfully.

        The effectful twin of :meth:`check_accesses`: each access draws one
        block (by default uniform over every block ever created, in creation
        order) and — when served — one replica to read from, consuming
        ``rng`` exactly as the per-access scalar loop did
        (``choice(block_ids)`` then ``choice(candidate_servers)``).  Access
        counters are bumped per block, and each served access scatters
        ``io_per_access`` onto the serving server's io-load column.
        Primary-aware NameNodes only read from non-busy replicas and fail
        the access when all are busy; oblivious ones read from any healthy
        replica (the interference cost is the latency model's problem).

        ``sampler`` — an access-skew sampler from
        :mod:`repro.workload.distributions` (``index(rng, n)``) — replaces
        the uniform block draw; ``None`` keeps the historical uniform
        stream bit for bit.
        """
        table = self._table
        io_load = np.zeros(table.num_servers)
        n = table.num_blocks
        if n == 0 or count <= 0:
            return AccessBatch(0, 0, 0, io_load)
        aware = self._primary_aware
        busy = self._busy_mask(time) if aware else None
        served = failed = lost = 0
        for _ in range(count):
            row = rng.integer(0, n) if sampler is None else sampler.index(rng, n)
            table.record_access(row)
            healthy = table.healthy_servers_of(row)
            if not len(healthy):
                lost += 1
                continue
            if aware:
                pool = healthy[~busy[healthy]]
                if not len(pool):
                    failed += 1
                    continue
            else:
                pool = healthy
            served += 1
            target = int(pool[rng.integer(0, len(pool))])
            io_load[target] += io_per_access
        if served:
            self.metrics.counter("accesses_served").increment(served)
        if failed:
            self.metrics.counter("accesses_failed").increment(failed)
        if lost:
            self.metrics.counter("accesses_lost_block").increment(lost)
        table.io_load += io_load
        return AccessBatch(served, failed, lost, io_load)

    # -- reimages and recovery -------------------------------------------------------

    def handle_reimage(self, server_id: str, time: float) -> List[str]:
        """A server's disk was reimaged: destroy its replicas, queue recovery.

        Returns the ids of blocks that became lost as a result.
        """
        datanode = self._datanodes.get(server_id)
        if datanode is None:
            return []
        datanode.reimage()
        server_index = self._index_of_server[server_id]
        self._server_used[server_index] = 0.0
        self._healthy_server_count = None
        table = self._table
        rows, newly_lost_mask = table.destroy_server(server_index)
        if not len(rows):
            return []
        lost_now = table.lost[rows].tolist()
        newly = newly_lost_mask.tolist()
        # Enqueue in block-id order, so the re-replication queue (and every
        # random draw downstream of it) follows the string order of the ids
        # and never the order the per-server index happens to hold.
        hit = sorted(
            (table.id_of(row), i) for i, row in enumerate(rows.tolist())
        )
        newly_lost = [block_id for block_id, i in hit if newly[i]]
        for block_id in newly_lost:
            self._replication.discard(block_id)
        self._replication.enqueue_many(
            block_id for block_id, i in hit if not lost_now[i]
        )
        if newly_lost:
            self.metrics.counter("blocks_lost").increment(len(newly_lost))
        self.metrics.counter("reimages_processed").increment()
        return newly_lost

    def run_replication(self, time: float) -> int:
        """Re-create replicas for queued blocks, subject to the rate limit.

        Returns the number of replicas restored in this round.  Each drained
        block takes up to its shortfall of picks; a pick draws uniformly
        among the viable servers (space for the block, not busy at ``time``)
        that never held the block, listed in lexicographic id order — the
        scalar ``choice(sorted(candidate_ids))`` draw.  A block left without
        candidates is queued again, in block order.  The busy mask is
        evaluated once, and the picks run as array passes over windows of
        the drained blocks (:meth:`_recovery_pass`), not one pick at a time.
        """
        if self._healthy_server_count is None:
            # ``max(0, capacity - used) > 0`` is ``capacity - used > 0``; a
            # pure function of used space, so cache it between mutations.
            self._healthy_server_count = int(
                (self._server_capacity - self._server_used > 0).sum()
            )
        drained = self._replication.drain(time, self._healthy_server_count)
        if not drained:
            return 0
        table = self._table
        queued = [
            (block_id, row)
            for block_id, row in zip(drained, map(table.get_row, drained))
            if row is not None
        ]
        # A round only adds replicas to the block being restored, and the
        # drained ids are distinct, so every block's shortfall can be read
        # up front in one gather.
        rows = np.array([row for _, row in queued], dtype=np.int64)
        shortfall = np.where(
            table.lost[rows],
            0,
            table.target_replication[rows] - table.healthy_count[rows],
        )
        wanted = np.flatnonzero(shortfall > 0)
        block_ids = [queued[i][0] for i in wanted.tolist()]
        rows, shortfall = rows[wanted], shortfall[wanted]
        busy = self._busy_mask(time) if self._primary_aware else None
        # Bound the pass temporaries: (blocks x servers) masks and open-cell
        # lists, and (blocks x slots) holder gathers.
        width = max(table.num_servers + 1, table.replica_servers.shape[1])
        window = max(1, RECOVERY_PASS_CELLS // width)
        restored = start = 0
        while start < len(rows):
            stop = min(len(rows), start + window)
            count, start = self._recovery_pass(
                block_ids, rows, shortfall, start, stop, busy, time
            )
            restored += count
        if restored:
            self.metrics.counter("replicas_restored").increment(restored)
        return restored

    def _recovery_pass(
        self,
        block_ids: List[str],
        rows: np.ndarray,
        shortfall: np.ndarray,
        start: int,
        stop: int,
        busy: Optional[np.ndarray],
        time: float,
    ) -> Tuple[int, int]:
        """Restore the replicas of round blocks ``start:stop`` in one pass.

        Builds the window's ``(blocks x servers)`` open matrix in
        lexicographic server order — viable for the block's size, holders
        cleared — and draws every pick's index in one call, bounded by
        ``count - j`` for a block's ``j``-th pick in block-major order (a
        block with fewer candidates than its shortfall draws ``count``
        times and is queued again).  The draws are mapped to servers one
        pick layer at a time, so a block's later picks exclude its earlier
        ones, and the stores are committed as column writes.

        Viability depends on used space, so a store that takes a server
        below the threshold of a block size in the window ends the pass:
        the picks up to and including it are committed, the generator is
        rewound to just after its draw, and the caller restarts from the
        next pick (``shortfall`` of a part-restored block is reduced in
        place).  Returns ``(restored, resume)``, where ``resume`` is the
        first block of the round still to be processed.
        """
        table = self._table
        window_rows = rows[start:stop]
        want = shortfall[start:stop]
        sizes = table.size_gb[window_rows]
        size_values, size_of_block = np.unique(sizes, return_inverse=True)
        fits = self._fits(size_values, self._server_used)
        if busy is not None:
            fits &= ~busy
        open_ = self._open_candidates(
            window_rows, fits[:, table.sorted_server_order], size_of_block
        )
        counts = open_.sum(axis=1)
        picks = np.minimum(want, counts)
        total = int(picks.sum())
        block_of = np.repeat(np.arange(len(window_rows)), picks)
        layer = np.arange(total) - np.repeat(np.cumsum(picks) - picks, picks)
        highs = counts[block_of] - layer
        bit_generator = self._rng.generator.bit_generator
        before_draws = bit_generator.state
        draws = self._rng.integer_array(0, highs)
        columns = _take_open_columns(open_, block_of, layer, highs, draws)
        # Free the matrix before the stores, which may widen the slot matrices.
        del open_
        targets = table.sorted_server_order[columns]
        pick_sizes = sizes[block_of]

        used = self._server_used.copy()
        np.add.at(used, targets, pick_sizes)
        flipped = (fits & ~self._fits(size_values, used)).any(axis=0)
        commit = total
        if flipped.any():
            commit = self._first_flip(targets, pick_sizes, size_values, flipped) + 1
            bit_generator.state = before_draws
            self._rng.integer_array(0, highs[:commit])
            used = self._server_used.copy()
            np.add.at(used, targets[:commit], pick_sizes[:commit])

        stored_rows = window_rows[block_of[:commit]]
        datanodes = self._datanode_list
        for server, block_id, size_gb in zip(
            targets[:commit].tolist(),
            map(table.id_of, stored_rows.tolist()),
            pick_sizes[:commit].tolist(),
        ):
            datanodes[server].store_replica_id(block_id, size_gb)
        table.append_replicas(stored_rows, targets[:commit], time)
        self._server_used[:] = used
        if commit:
            self._healthy_server_count = None

        done = len(window_rows)
        if commit < total:
            done = int(block_of[commit - 1])
        # Blocks finished in this pass that ran out of candidates.
        for i in np.flatnonzero(picks[:done] < want[:done]).tolist():
            self._replication.enqueue(block_ids[start + i])
        if commit < total:
            shortfall[start + done] -= int(layer[commit - 1]) + 1
        return commit, start + done

    def _open_candidates(
        self, rows: np.ndarray, viable: np.ndarray, size_of: np.ndarray
    ) -> np.ndarray:
        """``(blocks x servers + 1)`` recovery candidates of ``rows``.

        Row ``i`` is ``viable[size_of[i]]`` (a viable mask in lexicographic
        server order) with every server that ever held the block cleared;
        the extra last column absorbs the ``-1`` padding of the holder slots
        and is never open.
        """
        table = self._table
        servers = table.num_servers
        padded = np.zeros((len(viable), servers + 1), dtype=bool)
        padded[:, :servers] = viable
        open_ = padded[size_of]
        rank = np.append(table.sorted_server_rank, servers)
        held = rank[table.replica_servers[rows, : int(table.slots_used[rows].max())]]
        held += np.arange(0, open_.size, servers + 1)[:, None]
        open_.reshape(-1)[held.reshape(-1)] = False
        return open_

    def _fits(self, size_values: np.ndarray, used: np.ndarray) -> np.ndarray:
        """``(sizes x servers)`` ``DataNode.has_space_for`` flags under ``used``."""
        free = np.maximum(0.0, self._server_capacity - used)
        return size_values[:, None] <= free + 1e-9

    def _first_flip(
        self,
        targets: np.ndarray,
        sizes: np.ndarray,
        size_values: np.ndarray,
        flipped: np.ndarray,
    ) -> int:
        """Index of the first store that leaves a block size no longer fitting.

        ``flipped`` marks the servers where some size in ``size_values``
        fits before the stores and not after them; replaying the stores on
        those servers in order, with the same float accumulation as the
        commit, finds the earliest one that crossed a threshold.
        """
        capacity = self._server_capacity
        used = self._server_used.copy()
        for k in np.flatnonzero(flipped[targets]).tolist():
            target = int(targets[k])
            before = max(0.0, float(capacity[target] - used[target]))
            used[target] += sizes[k]
            after = max(0.0, float(capacity[target] - used[target]))
            for size_gb in size_values.tolist():
                if size_gb <= before + 1e-9 and not size_gb <= after + 1e-9:
                    return k
        raise AssertionError("a flipped server saw no threshold crossing")

    # -- statistics -------------------------------------------------------------------

    def lost_block_fraction(self) -> float:
        """Fraction of created blocks that have been lost."""
        if not self._table.num_blocks:
            return 0.0
        return int(self._table.lost.sum()) / self._table.num_blocks

    def total_used_space_gb(self) -> float:
        """Space consumed across all DataNodes."""
        return sum(dn.used_space_gb for dn in self._datanodes.values())
