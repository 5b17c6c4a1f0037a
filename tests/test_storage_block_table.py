"""Tests for the BlockTable substrate and its scalar-path equivalence.

Mirrors ``tests/test_cluster_fleet_state.py`` on the storage side: every
batched block operation (creation placement, effectful access batches,
reimage replay, re-replication candidate picks) is checked against the
legacy per-object path it replaced, using twin NameNodes driven through
identical random streams.  The scalar oracle below is a line-for-line
port of the pre-BlockTable NameNode hot paths over ``Block`` /
``BlockReplica`` dataclasses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.random import RandomSource
from repro.storage.block import Block, BlockReplica, BlockView
from repro.storage.block_table import (
    DEFAULT_REPLICA_SLOTS,
    BlockNamespace,
    BlockTable,
)
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessResult, NameNode
from repro.storage.placement_policies import StockPlacementPolicy
from repro.storage.replication import ReplicationManager
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace


def make_tenant(
    tenant_id: str, values, num_servers: int, capacity_gb: float = 8.0
) -> PrimaryTenant:
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(
            np.asarray(values, dtype=float), UtilizationPattern.CONSTANT
        ),
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index % 3}",
                harvestable_disk_gb=capacity_gb,
            )
        )
    return tenant


#: Time-varying profiles so the busy mask differs across the sampled times.
PROFILES = {
    "idle": [0.1, 0.1, 0.2, 0.1],
    "diurnal": [0.2, 0.7, 0.9, 0.3],
    "busy": [0.9, 0.65, 0.7, 0.9],
    "spiky": [0.05, 0.95, 0.05, 0.95],
}


def make_datanodes(primary_aware: bool = True, capacity_gb: float = 8.0):
    tenants = [
        make_tenant(tid, values, 3, capacity_gb) for tid, values in PROFILES.items()
    ]
    return [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]


def build_namenode(
    seed: int = 1, primary_aware: bool = True, capacity_gb: float = 8.0
) -> NameNode:
    return NameNode(
        make_datanodes(primary_aware, capacity_gb),
        StockPlacementPolicy(rng=RandomSource(seed)),
        primary_aware=primary_aware,
        rng=RandomSource(seed + 1),
    )


class ScalarNameNode:
    """The pre-BlockTable NameNode logic, kept as the equivalence oracle."""

    def __init__(self, datanodes, policy, primary_aware=True, replication=3, rng=None):
        self.datanodes = {dn.server_id: dn for dn in datanodes}
        self.policy = policy
        self.primary_aware = primary_aware
        self.default_replication = replication
        self.rng = rng or RandomSource(0)
        self.blocks: dict[str, Block] = {}
        self.counter = 0
        self.manager = ReplicationManager()
        #: ``(time, size, missing, candidates)`` of every recovery pick.
        self.picks: list[tuple[float, float, int, int]] = []

    def create_block(self, time, creating_server_id=None, size_gb=0.25):
        self.counter += 1
        block = Block(
            f"block-{self.counter}",
            size_gb=size_gb,
            target_replication=self.default_replication,
        )
        exclude = [
            sid
            for sid, dn in self.datanodes.items()
            if not dn.has_space_for(size_gb)
            or (self.primary_aware and dn.is_busy(time))
        ]
        chosen = self.policy.choose_servers(
            self.default_replication,
            creating_server_id,
            self.datanodes,
            size_gb,
            exclude=exclude,
            space_prefiltered=True,
        )
        if not chosen:
            return None
        for server_id in chosen:
            self._store(block, server_id, time)
        self.blocks[block.block_id] = block
        if block.healthy_count < self.default_replication:
            self.manager.enqueue(block.block_id)
        return block

    def _store(self, block, server_id, time):
        datanode = self.datanodes[server_id]
        datanode.store_replica(block)
        block.add_replica(
            BlockReplica(
                server_id=server_id,
                tenant_id=datanode.tenant_id,
                created_time=time,
            )
        )

    def access_block(self, block_id, time):
        block = self.blocks[block_id]
        if block.lost:
            return AccessResult.LOST
        healthy = block.servers_with_healthy_replicas()
        if not healthy:
            return AccessResult.LOST
        if not self.primary_aware:
            return AccessResult.SERVED
        if any(self.datanodes[s].can_serve(time) for s in healthy):
            return AccessResult.SERVED
        return AccessResult.UNAVAILABLE

    def handle_reimage(self, server_id, time):
        datanode = self.datanodes.get(server_id)
        if datanode is None:
            return []
        affected = datanode.reimage()
        newly_lost = []
        for block_id in sorted(affected):
            block = self.blocks.get(block_id)
            if block is None:
                continue
            was_lost = block.lost
            block.destroy_replica_on(server_id, time)
            if block.lost and not was_lost:
                newly_lost.append(block_id)
                self.manager.discard(block_id)
            elif not block.lost:
                self.manager.enqueue(block_id)
        return newly_lost

    def run_replication(self, time):
        healthy_servers = sum(
            1 for dn in self.datanodes.values() if dn.free_space_gb > 0
        )
        drained = self.manager.drain(time, healthy_servers)
        restored = 0
        for block_id in drained:
            block = self.blocks.get(block_id)
            if block is None or block.lost:
                continue
            while block.missing_replicas > 0:
                target = self._pick_recovery_target(block, time)
                if target is None:
                    self.manager.enqueue(block_id)
                    break
                self._store(block, target, time)
                restored += 1
        return restored

    def _pick_recovery_target(self, block, time):
        holders = set(block.replicas.keys())
        candidates = sorted(
            sid
            for sid, dn in self.datanodes.items()
            if dn.has_space_for(block.size_gb)
            and not (self.primary_aware and dn.is_busy(time))
            and sid not in holders
        )
        self.picks.append(
            (time, block.size_gb, block.missing_replicas, len(candidates))
        )
        if not candidates:
            return None
        return self.rng.choice(candidates)


def twin_pair(seed=1, primary_aware=True, capacity_gb=8.0):
    """A columnar NameNode and the scalar oracle on identical twin fleets."""
    namenode = build_namenode(seed, primary_aware, capacity_gb)
    scalar = ScalarNameNode(
        make_datanodes(primary_aware, capacity_gb),
        StockPlacementPolicy(rng=RandomSource(seed)),
        primary_aware=primary_aware,
        rng=RandomSource(seed + 1),
    )
    return namenode, scalar


def layout_of(block) -> list[tuple[str, bool]]:
    """(server, healthy) per replica, in insertion order."""
    return [(r.server_id, r.healthy) for r in block.replicas.values()]


class TestCreationEquivalence:
    def test_placements_match_scalar_draws(self):
        namenode, scalar = twin_pair()
        servers = sorted(namenode.datanodes)
        creator_rng = RandomSource(7)
        twin_creator_rng = RandomSource(7)
        for i in range(60):
            time = float(i * 37)
            created = namenode.create_block(
                time, creating_server_id=creator_rng.choice(servers)
            )
            expected = scalar.create_block(
                time, creating_server_id=twin_creator_rng.choice(servers)
            )
            if expected is None:
                assert created.block is None
                continue
            assert created.block is not None
            assert layout_of(created.block) == layout_of(expected)

    def test_batched_create_matches_scalar_loop(self):
        namenode, scalar = twin_pair()
        servers = sorted(namenode.datanodes)
        creator_rng = RandomSource(11)
        twin_creator_rng = RandomSource(11)
        creators = [
            servers[int(i)]
            for i in creator_rng.generator.integers(0, len(servers), size=50)
        ]
        ids = namenode.create_blocks(120.0, creators)
        for creator in (
            twin_creator_rng.choice(servers) for _ in range(50)
        ):
            scalar.create_block(120.0, creating_server_id=creator)
        assert len(ids) == 50
        for block_id, expected in zip(
            [i for i in ids if i is not None], scalar.blocks.values()
        ):
            assert layout_of(namenode.blocks[block_id]) == layout_of(expected)
        # The under-replicated queue matches, in order.
        assert namenode._replication._pending == scalar.manager._pending

    def test_full_cluster_fails_creation_identically(self):
        namenode, scalar = twin_pair()
        outcomes = []
        expected = []
        for i in range(500):
            outcomes.append(namenode.create_block(0.0).block is not None)
            expected.append(scalar.create_block(0.0) is not None)
        assert outcomes == expected
        assert not outcomes[-1]  # the 8 GB quota fills well before 500 blocks


class TestReimageReplicationEquivalence:
    def drive(self, namenode, scalar, seed=5):
        servers = sorted(namenode.datanodes)
        rng = RandomSource(seed)
        twin = RandomSource(seed)
        for i in range(40):
            namenode.create_block(0.0, creating_server_id=rng.choice(servers))
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        # Reimage a burst of servers, then let recovery run for hours.
        for step, victim in enumerate(servers[:8]):
            assert namenode.handle_reimage(victim, 100.0 + step) == (
                scalar.handle_reimage(victim, 100.0 + step)
            )
        for hour in range(1, 10):
            time = 100.0 + hour * 1800.0
            assert namenode.run_replication(time) == scalar.run_replication(time)

    def test_recovery_draws_and_layouts_match(self):
        namenode, scalar = twin_pair()
        self.drive(namenode, scalar)
        assert list(namenode.blocks) == list(scalar.blocks)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode.blocks[block_id]) == layout_of(expected)
            assert namenode.blocks[block_id].lost == expected.lost
        assert [b.block_id for b in namenode.lost_blocks()] == [
            b.block_id for b in scalar.blocks.values() if b.lost
        ]

    def test_oblivious_variant_matches_too(self):
        namenode, scalar = twin_pair(seed=9, primary_aware=False)
        self.drive(namenode, scalar, seed=13)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode.blocks[block_id]) == layout_of(expected)

    def test_requeue_order_is_lexicographic_not_numeric(self):
        """The kill/re-replication ordering edge case: ``block-10`` sorts
        before ``block-2``, and the queue (hence every downstream draw) must
        follow that string order exactly."""
        namenode, scalar = twin_pair(seed=21)
        servers = sorted(namenode.datanodes)
        rng = RandomSource(3)
        twin = RandomSource(3)
        for _ in range(12):  # ids block-1 .. block-12 cross the 9->10 divide
            namenode.create_block(0.0, creating_server_id=rng.choice(servers))
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        victim = max(
            namenode.datanodes,
            key=lambda sid: len(namenode.datanodes[sid].stored_block_ids),
        )
        namenode.handle_reimage(victim, 50.0)
        scalar.handle_reimage(victim, 50.0)
        pending = namenode._replication._pending
        assert pending == sorted(pending)
        assert pending == scalar.manager._pending
        assert namenode.run_replication(50.0 + 3600.0) == scalar.run_replication(
            50.0 + 3600.0
        )


def round_trip_table(namenode) -> None:
    """Swap the NameNode's table for its ``to_arrays``/``from_arrays`` rebuild."""
    restored = BlockTable.from_arrays(namenode.block_table.to_arrays())
    namenode._table = restored
    namenode._namespace = BlockNamespace(restored)


class TestHeavyChurnEquivalence:
    """Reimage storms long enough that blocks collect many former holders."""

    STEPS = 24

    def churn(self, namenode, scalar, round_trip_at=None):
        servers = sorted(namenode.datanodes)
        rng = RandomSource(8)
        twin = RandomSource(8)
        for _ in range(30):
            namenode.create_block(0.0, creating_server_id=rng.choice(servers))
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        restored = []
        for step in range(self.STEPS):
            if step == round_trip_at:
                round_trip_table(namenode)
            start = 1000.0 + step * 7200.0
            victim = servers[(step * 5) % len(servers)]
            assert namenode.handle_reimage(victim, start) == (
                scalar.handle_reimage(victim, start)
            )
            assert namenode._replication._pending == scalar.manager._pending
            # Recovery rounds at every phase of the 4-sample busy profiles.
            for offset in (120.0, 240.0, 360.0, 3600.0):
                count = namenode.run_replication(start + offset)
                assert count == scalar.run_replication(start + offset)
                restored.append(count)
        return restored

    def assert_same_blocks(self, namenode, scalar):
        assert list(namenode.blocks) == list(scalar.blocks)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode.blocks[block_id]) == layout_of(expected)
            assert namenode.blocks[block_id].lost == expected.lost

    def test_recovery_under_heavy_churn_matches_scalar(self):
        namenode, scalar = twin_pair(seed=31)
        restored = self.churn(namenode, scalar)
        self.assert_same_blocks(namenode, scalar)
        assert sum(restored) > 100
        # Holders crossed the slot-width doubling at least twice.
        assert int(namenode.block_table.slots_used.max()) > 2 * DEFAULT_REPLICA_SLOTS
        assert 0 < len(namenode.lost_blocks()) < len(scalar.blocks)

    def test_round_trip_mid_churn_continues_identically(self):
        namenode, scalar = twin_pair(seed=31)
        restored = self.churn(namenode, scalar, round_trip_at=self.STEPS // 2)
        uninterrupted, twin_scalar = twin_pair(seed=31)
        assert self.churn(uninterrupted, twin_scalar) == restored
        self.assert_same_blocks(namenode, scalar)
        assert np.array_equal(
            namenode.block_table.replica_servers,
            uninterrupted.block_table.replica_servers,
        )


class TestSpaceFlipEquivalence:
    """Recovery that fills servers mid-round, with two block sizes.

    With 1 GB quotas a store often takes a server below a block size's
    threshold in the middle of a round; the array pass must then commit up
    to that store, rewind the generator and restart, landing exactly where
    the scalar pick-by-pick loop does.
    """

    def churn(self, namenode, scalar):
        servers = sorted(namenode.datanodes)
        rng = RandomSource(101)
        twin = RandomSource(101)
        for i in range(16):
            # Sizes alternate, so the queue interleaves them and a round's
            # second size is first seen after stores have used space.
            size = (0.25, 0.5)[i % 2]
            namenode.create_block(
                0.0, creating_server_id=rng.choice(servers), size_gb=size
            )
            scalar.create_block(
                0.0, creating_server_id=twin.choice(servers), size_gb=size
            )
        for step in range(24):
            start = 1000.0 + step * 7200.0
            victim = servers[(step * 7) % len(servers)]
            assert namenode.handle_reimage(victim, start) == (
                scalar.handle_reimage(victim, start)
            )
            for offset in (120.0, 240.0, 360.0, 3600.0):
                time = start + offset
                assert namenode.run_replication(time) == scalar.run_replication(time)
                assert namenode._replication._pending == scalar.manager._pending
                assert (
                    namenode._rng.generator.bit_generator.state
                    == scalar.rng.generator.bit_generator.state
                )

    def test_tight_quotas_match_scalar(self, monkeypatch):
        flips = []
        first_flip = NameNode._first_flip

        def spy(self, *args):
            flips.append(first_flip(self, *args))
            return flips[-1]

        monkeypatch.setattr(NameNode, "_first_flip", spy)
        namenode, scalar = twin_pair(seed=1, capacity_gb=1.0)
        self.churn(namenode, scalar)
        assert list(namenode.blocks) == list(scalar.blocks)
        for block_id, expected in scalar.blocks.items():
            assert layout_of(namenode.blocks[block_id]) == layout_of(expected)
            assert namenode.blocks[block_id].lost == expected.lost
        # The paths under test all ran: mid-round flips, ...
        assert len(flips) > 10
        # ... a block short of two replicas with a single candidate ...
        assert any(
            missing == 2 and candidates == 1
            for _, _, missing, candidates in scalar.picks
        )
        # ... and rounds whose second block size came after a store.
        rounds: dict[float, list[tuple[float, int]]] = {}
        for time, size_gb, _, candidates in scalar.picks:
            rounds.setdefault(time, []).append((size_gb, candidates))

        def new_size_after_store(picks):
            seen, stored = set(), False
            for size_gb, candidates in picks:
                if stored and size_gb not in seen:
                    return True
                seen.add(size_gb)
                stored = stored or candidates > 0
            return False

        assert sum(map(new_size_after_store, rounds.values())) > 5


class TestAccessBatchEquivalence:
    def scalar_minute(self, scalar, block_ids, time, count, rng, column_of):
        """The legacy per-access loop from the fig12 runner."""
        served = failed = 0
        io_load: dict[str, float] = {}
        for _ in range(count):
            if not block_ids:
                break
            block_id = rng.choice(block_ids)
            outcome = scalar.access_block(block_id, time)
            if outcome is AccessResult.SERVED:
                served += 1
                block = scalar.blocks[block_id]
                healthy = block.servers_with_healthy_replicas()
                if scalar.primary_aware:
                    healthy = [
                        s
                        for s in healthy
                        if scalar.datanodes[s].can_serve(time)
                    ] or healthy
                if healthy:
                    target = rng.choice(healthy)
                    io_load[target] = io_load.get(target, 0.0) + 0.05
            elif outcome is AccessResult.UNAVAILABLE:
                failed += 1
        io = np.zeros(len(column_of))
        for server_id, load in io_load.items():
            io[column_of[server_id]] = load
        return served, failed, io

    @pytest.mark.parametrize("primary_aware", [True, False])
    def test_access_batch_matches_scalar_loop(self, primary_aware):
        namenode, scalar = twin_pair(seed=17, primary_aware=primary_aware)
        servers = sorted(namenode.datanodes)
        rng = RandomSource(2)
        twin = RandomSource(2)
        for _ in range(25):
            namenode.create_block(0.0, creating_server_id=rng.choice(servers))
            scalar.create_block(0.0, creating_server_id=twin.choice(servers))
        namenode.handle_reimage(servers[0], 10.0)
        scalar.handle_reimage(servers[0], 10.0)

        column_of = {sid: i for i, sid in enumerate(namenode.server_ids)}
        access_rng = RandomSource(4)
        twin_access_rng = RandomSource(4)
        block_ids = list(scalar.blocks)
        for minute in (60.0, 120.0, 180.0, 240.0):
            batch = namenode.access_blocks(minute, 40, access_rng)
            served, failed, io = self.scalar_minute(
                scalar, block_ids, minute, 40, twin_access_rng, column_of
            )
            assert batch.served == served
            assert batch.failed == failed
            assert np.array_equal(batch.io_load, io)

    def test_access_counters_accumulate(self):
        namenode = build_namenode()
        namenode.create_block(0.0)
        namenode.access_blocks(0.0, 10, RandomSource(1))
        table = namenode.block_table
        assert int(table.access_count.sum()) == 10
        assert float(table.io_load.sum()) > 0.0


class TestBlockTableUnit:
    def build(self):
        return BlockTable(["s-a", "s-b", "s-c"], ["t1", "t1", "t2"])

    def test_slot_reuse_preserves_insertion_order(self):
        table = self.build()
        row = table.append("b1", 0.25, 3)
        table.add_replica(row, 0, 0.0)
        table.add_replica(row, 1, 0.0)
        table.destroy_replica(row, 0)
        # Re-adding on the destroyed server keeps its original slot position,
        # like a dict overwrite keeps the key position.
        table.add_replica(row, 0, 5.0)
        assert table.healthy_servers_of(row).tolist() == [0, 1]
        assert float(table.replica_created[row, 0]) == 5.0

    def test_add_replica_rejects_healthy_duplicate(self):
        table = self.build()
        row = table.append("b1", 0.25, 3)
        table.add_replica(row, 0, 0.0)
        with pytest.raises(ValueError):
            table.add_replica(row, 0, 1.0)

    def test_lost_flag_is_sticky(self):
        table = self.build()
        row = table.append("b1", 0.25, 2)
        table.add_replica(row, 0, 0.0)
        assert table.destroy_replica(row, 0)
        assert table.is_lost(row)
        table.add_replica(row, 1, 1.0)
        assert table.is_lost(row)  # lost blocks stay lost

    def test_destroy_missing_replica_is_noop(self):
        table = self.build()
        row = table.append("b1", 0.25, 2)
        table.add_replica(row, 0, 0.0)
        assert not table.destroy_replica(row, 2)
        assert table.destroy_replica(row, 0)
        assert not table.destroy_replica(row, 0)

    def test_row_and_slot_growth(self):
        table = self.build()
        for i in range(1100):  # crosses the initial row capacity
            table.append(f"b{i}", 0.25, 2)
        assert table.num_blocks == 1100
        big = BlockTable([f"s{i}" for i in range(10)], ["t"] * 10)
        row = big.append("wide", 0.25, 10)
        for server in range(10):  # crosses the initial slot width
            big.add_replica(row, server, 0.0)
        assert big.healthy_servers_of(row).tolist() == list(range(10))

    def test_views_are_live_and_compare_by_row(self):
        table = self.build()
        row = table.append("b1", 0.25, 2)
        table.add_replica(row, 0, 0.0)
        view = table.view(row)
        assert isinstance(view, BlockView)
        assert view.healthy_count == 1
        table.add_replica(row, 1, 1.0)
        assert view.healthy_count == 2  # live, not a snapshot
        assert view == table.view(row)
        assert view.replicas["s-b"].tenant_id == "t1"
        assert view.servers_with_healthy_replicas() == ["s-a", "s-b"]

    def test_destroy_server_matches_per_replica_destroys(self):
        servers = [f"s{i}" for i in range(5)]
        tables = [BlockTable(servers, ["t"] * 5) for _ in range(2)]
        for table in tables:
            for i in range(12):
                row = table.append(f"b{i}", 0.25, 3)
                for server in (i % 5, (i + 1) % 5, (i + 3) % 5):
                    table.append_replica(row, server, float(i))
            table.destroy_replica(0, 3)  # already destroyed: not hit again
            for server in (0, 1):
                table.destroy_replica(5, server)  # one replica left on 3
        batched, scalar = tables
        rows, newly_lost = batched.destroy_server(3)
        expected_rows = [
            row for row in range(12) if scalar.destroy_replica(row, 3)
        ]
        assert sorted(rows.tolist()) == expected_rows
        assert rows[newly_lost].tolist() == [5]
        for name, column in batched.to_arrays().items():
            assert np.array_equal(column, scalar.to_arrays()[name]), name
        assert len(batched.destroy_server(3)[0]) == 0  # the index was cleared

    def test_append_replicas_matches_sequential_appends(self):
        servers = [f"s{i}" for i in range(12)]
        batched, sequential = (BlockTable(servers, ["t"] * 12) for _ in range(2))
        for table in (batched, sequential):
            for i in range(6):
                row = table.append(f"b{i}", 0.25, 3)
                table.append_replica(row, i, 0.0)
            table.destroy_replica(2, 2)

        def apply(rows, targets, time):
            batched.append_replicas(np.array(rows), np.array(targets), time)
            for row, server in zip(rows, targets):
                sequential.append_replica(row, server, time)

        def assert_same():
            for name, column in sequential.to_arrays().items():
                assert np.array_equal(batched.to_arrays()[name], column), name
            assert batched._healthy_on == sequential._healthy_on

        # Row 1 gets two replicas in one batch; row 2 regains one after a loss.
        apply([1, 3, 1, 2], [7, 8, 9, 10], 5.0)
        assert_same()
        assert sequential.healthy_servers_of(1).tolist() == [1, 7, 9]
        # The rebuilt table continues like the original, through a batch
        # that widens the slots (row 0 takes ten more replicas in one go).
        batched = BlockTable.from_arrays(batched.to_arrays())
        assert_same()
        width = batched.replica_servers.shape[1]
        apply([0] * 10 + [5], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 9.0)
        assert batched.replica_servers.shape[1] > width
        assert_same()
        assert int(batched.slots_used[0]) == 11

    def test_sorted_server_order_is_lexicographic(self):
        table = BlockTable(["s-10", "s-2", "s-1"], ["t", "t", "t"])
        ordered = [table.server_ids[i] for i in table.sorted_server_order]
        assert ordered == ["s-1", "s-10", "s-2"]
        ranks = table.sorted_server_rank
        assert [int(ranks[i]) for i in table.sorted_server_order] == [0, 1, 2]


class TestNamespace:
    def test_mapping_behaviour(self):
        namenode = build_namenode()
        first = namenode.create_block(0.0).block
        second = namenode.create_block(0.0).block
        blocks = namenode.blocks
        assert len(blocks) == 2
        assert list(blocks) == [first.block_id, second.block_id]
        assert blocks[first.block_id] == first
        assert first.block_id in blocks
        assert "missing" not in blocks
        assert blocks.get("missing") is None
        assert [b.block_id for b in blocks.values()] == [
            first.block_id,
            second.block_id,
        ]
