"""Array-backed substrate for the storage-harvesting stack.

The storage objects — :class:`~repro.storage.block.Block`, its replicas, and
the per-server :class:`~repro.storage.datanode.DataNode` bookkeeping — are
pleasant to reason about but cost one Python call per replica per creation,
access, reimage, and recovery pick.  At paper scale (4M blocks) those loops
dominate the fig12/fig15/fig16 experiments.

A :class:`BlockTable` stacks the per-block state into numpy columns (one row
per created block, in creation order):

* block size, target replication, healthy-replica count, and the sticky
  ``lost`` flag,
* a ``(blocks x slots)`` matrix of replica server indices (slot order is
  replica insertion order, mirroring the ``Block.replicas`` dict) plus the
  matching liveness mask and creation times,
* an access counter per block and an accumulated io-load column per server,
  scattered into by the batched access path,
* a per-server index ``{row: slot}`` of the healthy replicas each server
  holds, so a reimage finds its victims without scanning the slot matrix
  and destroying one replica needs no slot search.

The companion of :class:`repro.cluster.fleet_state.FleetState` (the compute
substrate) and :class:`repro.traces.matrix.TraceMatrix` (the utilization
substrate): TraceMatrix answers "which servers are busy?", FleetState
answers "where can this container run?", and BlockTable answers "where does
this block live — and is it still alive?".

Equivalence contract
--------------------

Every mutation mirrors the scalar ``Block`` / ``BlockReplica`` semantics
exactly: a replica destroyed by a reimage keeps its slot (so later healthy
listings preserve the dict-insertion order the scalar path produced), a
replica re-added on a server whose old replica was destroyed reuses that
slot (dict overwrite keeps the key position), and ``lost`` is set exactly
when the last healthy replica dies and never cleared.  The NameNode never
re-adds a replica on a former holder (recovery excludes every server that
ever held the block), so its stores append a fresh slot without searching
(:meth:`BlockTable.append_replica`, or :meth:`BlockTable.append_replicas`
for a recovery pass's whole batch); only :meth:`BlockTable.add_replica`,
behind the ``BlockView`` API, still looks for a slot to reuse.  The per-object
:class:`~repro.storage.block.BlockView` API remains as a thin view over the
rows, so a fixed seed produces bit-identical fig12/fig15/fig16 results
through either the scalar or the columnar path.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.storage.block import BlockView

#: Initial replica-slot width; grown on demand (doubling) when a block
#: collects more distinct replica servers than any block before it.
DEFAULT_REPLICA_SLOTS = 4

#: Initial row capacity; grown geometrically as blocks are appended.
INITIAL_ROW_CAPACITY = 1024


class BlockTable:
    """Numpy columns over every block a NameNode has ever created."""

    def __init__(
        self,
        server_ids: Sequence[str],
        tenant_of_server: Sequence[str],
        replica_slots: int = DEFAULT_REPLICA_SLOTS,
    ) -> None:
        if len(server_ids) != len(tenant_of_server):
            raise ValueError("server_ids and tenant_of_server must align")
        if not server_ids:
            raise ValueError("a BlockTable needs at least one server")
        if replica_slots <= 0:
            raise ValueError("replica_slots must be positive")
        self.server_ids: List[str] = list(server_ids)
        self.tenant_of_server: List[str] = list(tenant_of_server)
        self.index_of_server: Dict[str, int] = {
            sid: i for i, sid in enumerate(self.server_ids)
        }
        if len(self.index_of_server) != len(self.server_ids):
            raise ValueError("server ids must be unique")
        #: Server rows in lexicographic id order — the recovery candidate
        #: draw walks this permutation so its candidate list matches the
        #: scalar path's ``sorted(candidate_ids)`` without sorting strings.
        self.sorted_server_order = np.array(
            sorted(range(len(self.server_ids)), key=self.server_ids.__getitem__),
            dtype=np.int64,
        )
        #: Inverse permutation: lexicographic rank of each server index.
        self.sorted_server_rank = np.empty_like(self.sorted_server_order)
        self.sorted_server_rank[self.sorted_server_order] = np.arange(
            len(self.server_ids)
        )

        self._n = 0
        capacity = INITIAL_ROW_CAPACITY
        self._ids: List[str] = []
        self._row_of: Dict[str, int] = {}

        self._size_gb = np.zeros(capacity)
        self._target = np.zeros(capacity, dtype=np.int64)
        self._healthy_count = np.zeros(capacity, dtype=np.int64)
        self._lost = np.zeros(capacity, dtype=bool)
        self._access_count = np.zeros(capacity, dtype=np.int64)
        self._slots_used = np.zeros(capacity, dtype=np.int64)
        self._replica_servers = np.full((capacity, replica_slots), -1, dtype=np.int64)
        self._replica_healthy = np.zeros((capacity, replica_slots), dtype=bool)
        self._replica_created = np.zeros((capacity, replica_slots))

        #: Accumulated secondary-I/O fraction per server, scattered into by
        #: the batched access path (one 0.05 increment per served access).
        self.io_load = np.zeros(len(self.server_ids))
        #: Per server, ``{row: slot}`` of every healthy replica it holds.
        self._healthy_on: List[Dict[int, int]] = [{} for _ in self.server_ids]

    # -- serialized form -----------------------------------------------------

    def to_arrays(self) -> Dict[str, object]:
        """The table as plain arrays/lists — its canonical serialized form.

        Columns are trimmed to the used prefix; :meth:`from_arrays` rebuilds
        an exact equivalent (same rows, same slot order, same io load, and
        the per-server replica index rebuilt from the liveness mask).
        """
        n = self._n
        return {
            "version": 1,
            "server_ids": list(self.server_ids),
            "tenant_of_server": list(self.tenant_of_server),
            "block_ids": list(self._ids),
            "size_gb": np.array(self._size_gb[:n]),
            "target": np.array(self._target[:n]),
            "healthy_count": np.array(self._healthy_count[:n]),
            "lost": np.array(self._lost[:n]),
            "access_count": np.array(self._access_count[:n]),
            "slots_used": np.array(self._slots_used[:n]),
            "replica_servers": np.array(self._replica_servers[:n]),
            "replica_healthy": np.array(self._replica_healthy[:n]),
            "replica_created": np.array(self._replica_created[:n]),
            "io_load": np.array(self.io_load),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, object]) -> "BlockTable":
        """Rebuild a table from :meth:`to_arrays` output."""
        replica_servers = np.asarray(arrays["replica_servers"], dtype=np.int64)
        slots = replica_servers.shape[1] if replica_servers.ndim == 2 else 0
        table = cls(
            [str(s) for s in arrays["server_ids"]],  # type: ignore[union-attr]
            [str(t) for t in arrays["tenant_of_server"]],  # type: ignore[union-attr]
            replica_slots=max(1, slots),
        )
        block_ids = [str(b) for b in arrays["block_ids"]]  # type: ignore[union-attr]
        n = len(block_ids)
        capacity = max(n, INITIAL_ROW_CAPACITY)
        table._n = n
        table._ids = block_ids
        table._row_of = {bid: i for i, bid in enumerate(block_ids)}

        def column(name: str, dtype: type) -> np.ndarray:
            fresh = np.zeros(capacity, dtype=dtype)
            fresh[:n] = np.asarray(arrays[name], dtype=dtype)
            return fresh

        table._size_gb = column("size_gb", float)
        table._target = column("target", np.int64)
        table._healthy_count = column("healthy_count", np.int64)
        table._lost = column("lost", bool)
        table._access_count = column("access_count", np.int64)
        table._slots_used = column("slots_used", np.int64)
        table._replica_servers = np.full(
            (capacity, max(1, slots)), -1, dtype=np.int64
        )
        table._replica_healthy = np.zeros((capacity, max(1, slots)), dtype=bool)
        table._replica_created = np.zeros((capacity, max(1, slots)))
        if n and slots:
            table._replica_servers[:n, :slots] = replica_servers
            table._replica_healthy[:n, :slots] = np.asarray(
                arrays["replica_healthy"], dtype=bool
            )
            table._replica_created[:n, :slots] = np.asarray(
                arrays["replica_created"], dtype=float
            )
        table.io_load = np.array(arrays["io_load"], dtype=float)
        rows, slots = np.nonzero(table._replica_healthy[:n])
        servers = table._replica_servers[rows, slots]
        for row, slot, server in zip(rows.tolist(), slots.tolist(), servers.tolist()):
            table._healthy_on[server][row] = slot
        return table

    # -- shape ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Number of rows (blocks ever created)."""
        return self._n

    @property
    def num_servers(self) -> int:
        """Number of servers in the universe the replica columns index."""
        return len(self.server_ids)

    def __len__(self) -> int:
        return self._n

    # -- column views (live, trimmed to the used prefix) ---------------------

    @property
    def size_gb(self) -> np.ndarray:
        """Per-block size in gigabytes."""
        return self._size_gb[: self._n]

    @property
    def target_replication(self) -> np.ndarray:
        """Per-block desired healthy-replica count."""
        return self._target[: self._n]

    @property
    def healthy_count(self) -> np.ndarray:
        """Per-block current healthy-replica count."""
        return self._healthy_count[: self._n]

    @property
    def lost(self) -> np.ndarray:
        """Per-block sticky lost flag."""
        return self._lost[: self._n]

    @property
    def access_count(self) -> np.ndarray:
        """Per-block number of recorded accesses."""
        return self._access_count[: self._n]

    @property
    def slots_used(self) -> np.ndarray:
        """Per-block number of occupied replica slots (healthy or not)."""
        return self._slots_used[: self._n]

    @property
    def replica_servers(self) -> np.ndarray:
        """``(blocks x slots)`` server indices, ``-1`` padded, slot order."""
        return self._replica_servers[: self._n]

    @property
    def replica_healthy(self) -> np.ndarray:
        """``(blocks x slots)`` liveness mask matching ``replica_servers``."""
        return self._replica_healthy[: self._n]

    @property
    def replica_created(self) -> np.ndarray:
        """``(blocks x slots)`` creation times matching ``replica_servers``."""
        return self._replica_created[: self._n]

    # -- id mapping ----------------------------------------------------------

    @property
    def block_ids(self) -> List[str]:
        """Block ids in creation (row) order."""
        return list(self._ids)

    def id_of(self, row: int) -> str:
        """The block id stored in ``row``."""
        return self._ids[row]

    def is_lost(self, row: int) -> bool:
        """The sticky lost flag of ``row`` (hot-path helper)."""
        return bool(self._lost[row])

    def healthy_count_of(self, row: int) -> int:
        """The healthy-replica count of ``row`` (hot-path helper)."""
        return int(self._healthy_count[row])

    def row_of(self, block_id: str) -> int:
        """Row index of a block id; raises ``KeyError`` when unknown."""
        return self._row_of[block_id]

    def get_row(self, block_id: str) -> Optional[int]:
        """Row index of a block id, or ``None`` when unknown."""
        return self._row_of.get(block_id)

    def view(self, row: int) -> BlockView:
        """A per-object view over ``row``.

        Views are not cached: they compare equal by table and row, and a
        cache would tie the table into a reference cycle, so a discarded
        table (with its slot matrices) would wait for the cycle collector.
        """
        return BlockView(self, row)

    # -- growth --------------------------------------------------------------

    def _grow_rows(self) -> None:
        capacity = max(2 * len(self._size_gb), INITIAL_ROW_CAPACITY)
        slots = self._replica_servers.shape[1]

        def grown(column: np.ndarray) -> np.ndarray:
            fresh = np.zeros(capacity, dtype=column.dtype)
            fresh[: self._n] = column[: self._n]
            return fresh

        self._size_gb = grown(self._size_gb)
        self._target = grown(self._target)
        self._healthy_count = grown(self._healthy_count)
        self._lost = grown(self._lost)
        self._access_count = grown(self._access_count)
        self._slots_used = grown(self._slots_used)
        servers = np.full((capacity, slots), -1, dtype=np.int64)
        servers[: self._n] = self._replica_servers[: self._n]
        self._replica_servers = servers
        healthy = np.zeros((capacity, slots), dtype=bool)
        healthy[: self._n] = self._replica_healthy[: self._n]
        self._replica_healthy = healthy
        created = np.zeros((capacity, slots))
        created[: self._n] = self._replica_created[: self._n]
        self._replica_created = created

    def _grow_slots(self) -> None:
        capacity, slots = self._replica_servers.shape
        width = slots + max(1, slots)

        def widened(matrix: np.ndarray, fill: object) -> np.ndarray:
            # Copy into the wider matrix directly: a concatenation would
            # hold a third, padding-sized array at the same time.
            fresh = np.full((capacity, width), fill, dtype=matrix.dtype)
            fresh[: self._n, :slots] = matrix[: self._n]
            return fresh

        self._replica_servers = widened(self._replica_servers, -1)
        self._replica_healthy = widened(self._replica_healthy, False)
        self._replica_created = widened(self._replica_created, 0.0)

    # -- mutations -----------------------------------------------------------

    def append(self, block_id: str, size_gb: float, target_replication: int) -> int:
        """Add a new (replica-less) block row; returns its row index."""
        if size_gb <= 0:
            raise ValueError("block size must be positive")
        if target_replication <= 0:
            raise ValueError("target_replication must be positive")
        if block_id in self._row_of:
            raise ValueError(f"block {block_id} already exists")
        if self._n == len(self._size_gb):
            self._grow_rows()
        row = self._n
        self._n += 1
        self._ids.append(block_id)
        self._row_of[block_id] = row
        self._size_gb[row] = size_gb
        self._target[row] = target_replication
        return row

    def add_replica(self, row: int, server_index: int, time: float) -> None:
        """Attach a replica of block ``row`` on ``server_index``.

        Mirrors ``Block.add_replica``: a server holds at most one healthy
        replica of a block, and re-adding on a server whose old replica was
        destroyed reuses that slot (a dict overwrite keeps the key position,
        so later healthy listings preserve the scalar iteration order).

        The reuse search scans the row's slots, which number as many as the
        servers that ever held the block (dozens under reimage storms), so
        the NameNode's stores go through :meth:`append_replica` instead.
        """
        if row in self._healthy_on[server_index]:
            raise ValueError(
                f"block {self._ids[row]} already has a replica on "
                f"{self.server_ids[server_index]}"
            )
        used = int(self._slots_used[row])
        holders = self._replica_servers[row, :used]
        former = np.flatnonzero(holders == server_index)
        if not len(former):
            self.append_replica(row, server_index, time)
            return
        slot = int(former[0])
        self._replica_healthy[row, slot] = True
        self._replica_created[row, slot] = time
        self._healthy_on[server_index][row] = slot
        self._healthy_count[row] += 1

    def append_replica(self, row: int, server_index: int, time: float) -> None:
        """Attach a replica of ``row`` on a server that never held one.

        The caller guarantees ``server_index`` never held a replica of
        ``row``; the replica takes the next free slot.
        """
        used = int(self._slots_used[row])
        if used == self._replica_servers.shape[1]:
            self._grow_slots()
        self._replica_servers[row, used] = server_index
        self._replica_healthy[row, used] = True
        self._replica_created[row, used] = time
        self._slots_used[row] = used + 1
        self._healthy_on[server_index][row] = used
        self._healthy_count[row] += 1

    def append_replicas(
        self, rows: np.ndarray, servers: np.ndarray, time: float
    ) -> None:
        """:meth:`append_replica` for every ``(rows[i], servers[i])`` pair.

        The same slots, counts and index entries as appending the pairs one
        by one, in order, as column writes.  A row may appear several times
        (its replicas take consecutive free slots in batch order); the
        caller guarantees no pair repeats and no server already held the
        row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        servers = np.asarray(servers, dtype=np.int64)
        count = len(rows)
        if not count:
            return
        # A replica's slot is its row's next free slot plus the number of
        # earlier entries for the same row in this batch.
        by_row = np.argsort(rows, kind="stable")
        sorted_rows = rows[by_row]
        run_start = np.ones(count, dtype=bool)
        run_start[1:] = sorted_rows[1:] != sorted_rows[:-1]
        position = np.arange(count)
        earlier = position - np.maximum.accumulate(np.where(run_start, position, 0))
        slots = np.empty(count, dtype=np.int64)
        slots[by_row] = self._slots_used[sorted_rows] + earlier
        while int(slots.max()) >= self._replica_servers.shape[1]:
            self._grow_slots()
        self._replica_servers[rows, slots] = servers
        self._replica_healthy[rows, slots] = True
        self._replica_created[rows, slots] = time
        np.add.at(self._slots_used, rows, 1)
        np.add.at(self._healthy_count, rows, 1)
        # Key the index by each row's own int (the one ``_row_of`` holds),
        # not a fresh one per replica: a storm cell keeps ~12k alive.
        row_ints = [self._row_of[self._ids[row]] for row in rows.tolist()]
        healthy_on = self._healthy_on
        for server, row, slot in zip(servers.tolist(), row_ints, slots.tolist()):
            healthy_on[server][row] = slot

    def destroy_replica(self, row: int, server_index: int) -> bool:
        """Destroy the replica of block ``row`` on ``server_index`` if healthy.

        Returns True when a healthy replica was destroyed; marks the block
        lost once no healthy replica remains (and never clears the flag),
        exactly like ``Block.destroy_replica_on``.
        """
        slot = self._healthy_on[server_index].pop(row, None)
        if slot is None:
            return False
        self._replica_healthy[row, slot] = False
        self._healthy_count[row] -= 1
        if self._healthy_count[row] == 0:
            self._lost[row] = True
        return True

    def destroy_server(self, server_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Destroy every healthy replica on ``server_index`` (a reimage).

        One column update over the server's index entries has the effect of
        :meth:`destroy_replica` on each of them.  Returns ``(rows,
        newly_lost)``: the rows that lost a replica, in no particular order,
        and a mask over them of the rows this call marked lost.
        """
        index = self._healthy_on[server_index]
        rows = np.fromiter(index.keys(), dtype=np.int64, count=len(index))
        slots = np.fromiter(index.values(), dtype=np.int64, count=len(index))
        index.clear()
        # A server holds at most one healthy replica of a block, so ``rows``
        # has no repeats and the fancy-indexed updates below are exact.
        self._replica_healthy[rows, slots] = False
        self._healthy_count[rows] -= 1
        newly_lost = (self._healthy_count[rows] == 0) & ~self._lost[rows]
        self._lost[rows[newly_lost]] = True
        return rows, newly_lost

    def record_access(self, row: int) -> None:
        """Bump the access counter of one row."""
        self._access_count[row] += 1

    def record_accesses(self, rows: np.ndarray) -> None:
        """Bump the access counter of every row in ``rows`` (with repeats)."""
        np.add.at(self._access_count, rows, 1)

    # -- row queries ---------------------------------------------------------

    def healthy_servers_of(self, row: int) -> np.ndarray:
        """Server indices holding a healthy replica of ``row``, slot order."""
        used = int(self._slots_used[row])
        return self._replica_servers[row, :used][self._replica_healthy[row, :used]]

    def missing_of(self, row: int) -> int:
        """How many replicas re-replication still needs to restore."""
        return max(0, int(self._target[row]) - int(self._healthy_count[row]))

    def lost_rows(self) -> np.ndarray:
        """Rows whose every replica has been destroyed, in creation order."""
        return np.flatnonzero(self.lost)

    def under_replicated_rows(self) -> np.ndarray:
        """Rows below target replication but not lost, in creation order."""
        return np.flatnonzero(
            ~self.lost & (self.healthy_count < self.target_replication)
        )


class BlockNamespace(Mapping[str, BlockView]):
    """Dict-like, read-through view over a BlockTable (``NameNode.blocks``).

    Iteration follows creation order, exactly like the ``Dict[str, Block]``
    it replaced; values are live :class:`BlockView` objects.
    """

    __slots__ = ("_table",)

    def __init__(self, table: BlockTable) -> None:
        self._table = table

    def __getitem__(self, block_id: str) -> BlockView:
        return self._table.view(self._table.row_of(block_id))

    def __iter__(self) -> Iterator[str]:
        return iter(self._table.block_ids)

    def __len__(self) -> int:
        return self._table.num_blocks

    def __contains__(self, block_id: object) -> bool:
        return isinstance(block_id, str) and self._table.get_row(block_id) is not None
