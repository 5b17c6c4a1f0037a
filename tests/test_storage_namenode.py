"""Tests for the NameNode: placement, access, reimages, and recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import TenantPlacementStats
from repro.simulation.random import RandomSource
from repro.storage.datanode import DataNode
from repro.storage.namenode import AccessResult, NameNode
from repro.storage.placement_policies import (
    HistoryPlacementPolicy,
    StockPlacementPolicy,
)
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import (
    SAMPLE_INTERVAL_SECONDS,
    UtilizationPattern,
    UtilizationTrace,
)


def make_tenant(
    tenant_id: str,
    utilization: float | list[float],
    num_servers: int,
    environment: str | None = None,
) -> PrimaryTenant:
    """A tenant at a constant ``utilization``, or following a list of samples."""
    values = (
        np.asarray(utilization, dtype=float)
        if isinstance(utilization, list)
        else np.full(100, utilization)
    )
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=environment or f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(values, UtilizationPattern.CONSTANT),
        pattern=UtilizationPattern.CONSTANT,
    )
    for index in range(num_servers):
        tenant.servers.append(
            Server(
                server_id=f"{tenant_id}-s{index}",
                tenant_id=tenant_id,
                rack=f"rack-{index % 3}",
                harvestable_disk_gb=16.0,
            )
        )
    return tenant


def build_cluster(
    utilizations: dict[str, float],
    policy: str = "stock",
    primary_aware: bool = True,
    replication: int = 3,
    servers_per_tenant: int = 3,
) -> tuple[NameNode, list[PrimaryTenant]]:
    tenants = [
        make_tenant(tenant_id, util, servers_per_tenant)
        for tenant_id, util in utilizations.items()
    ]
    datanodes = [
        DataNode(server=s, tenant=t, primary_aware=primary_aware)
        for t in tenants
        for s in t.servers
    ]
    if policy == "history":
        placement = HistoryPlacementPolicy(rng=RandomSource(1))
        stats = [
            TenantPlacementStats(
                tenant_id=t.tenant_id,
                environment=t.environment,
                reimage_rate=t.reimage_profile.rate_per_server_month,
                peak_utilization=t.peak_utilization(),
                available_space_gb=t.harvestable_disk_gb,
                server_ids=[s.server_id for s in t.servers],
                racks_by_server={s.server_id: s.rack for s in t.servers},
            )
            for t in tenants
        ]
        placement.update_clustering(stats)
    else:
        placement = StockPlacementPolicy(rng=RandomSource(1))
    namenode = NameNode(
        datanodes,
        placement,
        primary_aware=primary_aware,
        default_replication=replication,
        rng=RandomSource(2),
    )
    return namenode, tenants


UTILIZATIONS = {f"t{i}": 0.1 + 0.05 * i for i in range(9)}


class TestCreation:
    def test_block_created_with_full_replication(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        creator = tenants[0].servers[0].server_id
        result = namenode.create_block(0.0, creating_server_id=creator)
        assert result.fully_replicated
        assert result.block is not None
        assert result.block.healthy_count == 3

    def test_stock_placement_uses_creating_server(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        creator = tenants[0].servers[0].server_id
        result = namenode.create_block(0.0, creating_server_id=creator)
        assert creator in result.block.servers_with_healthy_replicas()

    def test_history_placement_spreads_over_tenants(self):
        namenode, tenants = build_cluster(UTILIZATIONS, policy="history")
        result = namenode.create_block(
            0.0, creating_server_id=tenants[0].servers[0].server_id
        )
        assert result.block is not None
        assert len(set(result.block.tenants_with_healthy_replicas())) == 3

    def test_creation_fails_when_no_space(self):
        namenode, tenants = build_cluster({"t0": 0.1}, servers_per_tenant=1)
        # Fill the single server (16 GB harvestable, 0.25 GB blocks).
        for _ in range(64):
            namenode.create_block(0.0)
        result = namenode.create_block(0.0)
        assert result.block is None
        assert namenode.metrics.counter_value("block_creations_failed") == 1

    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(UTILIZATIONS, replication=0)

    def test_namenode_requires_datanodes(self):
        with pytest.raises(ValueError):
            NameNode([], StockPlacementPolicy())


class TestAccess:
    def test_access_served_when_replicas_idle(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block = namenode.create_block(0.0).block
        assert namenode.access_block(block.block_id, 0.0) is AccessResult.SERVED

    def test_access_unavailable_when_all_replicas_busy(self):
        # Every tenant idles through the first half of its trace and is busy
        # through the second: the block is placed while all servers are idle
        # and read once all of them are busy.
        idle_then_busy = [0.1] * 50 + [0.9] * 50
        busy_time = 60 * SAMPLE_INTERVAL_SECONDS
        tenants = {f"t{i}": idle_then_busy for i in range(4)}
        namenode, _ = build_cluster(tenants)
        block = namenode.create_block(0.0).block
        assert block is not None and block.healthy_count == 3
        assert namenode.access_block(block.block_id, 0.0) is AccessResult.SERVED
        outcome = namenode.access_block(block.block_id, busy_time)
        assert outcome is AccessResult.UNAVAILABLE
        assert namenode.metrics.counter_value("accesses_failed") == 1

        # A primary-oblivious NameNode serves the same read regardless.
        oblivious, _ = build_cluster(tenants, primary_aware=False)
        block = oblivious.create_block(0.0).block
        assert oblivious.access_block(block.block_id, busy_time) is (
            AccessResult.SERVED
        )

    def test_unknown_block_raises(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        with pytest.raises(KeyError):
            namenode.access_block("missing", 0.0)

    def test_lost_block_reported(self):
        namenode, tenants = build_cluster(UTILIZATIONS)
        block = namenode.create_block(0.0).block
        for server_id in list(block.servers_with_healthy_replicas()):
            namenode.handle_reimage(server_id, 1.0)
        assert namenode.access_block(block.block_id, 2.0) is AccessResult.LOST


class TestReimageAndRecovery:
    def test_reimage_destroys_replicas_and_queues_recovery(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block = namenode.create_block(0.0).block
        victim = block.servers_with_healthy_replicas()[0]
        lost = namenode.handle_reimage(victim, 10.0)
        assert lost == []
        assert block.healthy_count == 2
        assert namenode.under_replicated_blocks() == [block]

    def test_recovery_restores_replication(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block = namenode.create_block(0.0).block
        victim = block.servers_with_healthy_replicas()[0]
        namenode.handle_reimage(victim, 10.0)
        restored = namenode.run_replication(10.0 + 3600.0)
        assert restored >= 1
        assert block.healthy_count == 3
        assert namenode.under_replicated_blocks() == []

    def test_simultaneous_reimage_of_all_replicas_loses_block(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        block = namenode.create_block(0.0).block
        newly_lost = []
        for server_id in list(block.servers_with_healthy_replicas()):
            newly_lost.extend(namenode.handle_reimage(server_id, 10.0))
        assert block.block_id in newly_lost
        assert namenode.lost_blocks() == [block]
        assert namenode.lost_block_fraction() == pytest.approx(1.0)
        # Lost blocks are not recovered.
        namenode.run_replication(20_000.0)
        assert block.lost

    def test_recovery_never_targets_a_former_holder(self):
        """Recovery excludes every server that ever held the block.

        A reimaged server comes back empty, yet stays ineligible for the
        blocks it once held.  Cycling reimages through one block's holders
        piles up far more than 8 historical holders (two slot-width
        doublings); no pick may land on any of them, and once every server
        has held the block, recovery has nowhere left to go.
        """
        namenode, _ = build_cluster(UTILIZATIONS)  # 27 idle servers
        block = namenode.create_block(0.0).block
        everyone = set(namenode.datanodes)
        time = 0.0
        while set(block.replicas) != everyone:
            former = set(block.replicas)
            healthy_before = set(block.servers_with_healthy_replicas())
            namenode.handle_reimage(sorted(healthy_before)[0], time)
            time += 3600.0
            assert namenode.run_replication(time) == 1
            healthy_after = set(block.servers_with_healthy_replicas())
            (target,) = healthy_after - healthy_before
            assert target not in former
            assert block.healthy_count == 3
        assert len(block.replicas) == len(everyone) > 8

        namenode.handle_reimage(block.servers_with_healthy_replicas()[0], time)
        assert namenode.run_replication(time + 3600.0) == 0
        assert block.healthy_count == 2
        assert namenode.under_replicated_blocks() == [block]

    def test_reimage_of_unknown_server_is_noop(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        assert namenode.handle_reimage("missing", 0.0) == []

    def test_used_space_tracks_replicas(self):
        namenode, _ = build_cluster(UTILIZATIONS)
        namenode.create_block(0.0)
        assert namenode.total_used_space_gb() == pytest.approx(3 * 0.25)
