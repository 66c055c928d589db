"""Golden test: ``Monitor.snapshot()`` key names are a compatibility
contract.

Dashboards, the Prometheus exporter and the bench-trajectory artifacts
all address metrics by these names.  Renaming one is an intentional,
reviewed act: update the golden set here *and* grep the docs
(docs/OBSERVABILITY.md) in the same change.
"""

import re

from repro.core import H2CloudFS
from repro.simcloud import SwiftCluster

#: every fixed (non-per-op) snapshot key, exactly
GOLDEN_KEYS = frozenset(
    {
        "fd_cache.size",
        "fd_cache.hits",
        "fd_cache.misses",
        "fd_cache.hit_rate",
        "fd_cache.evictions",
        "fd_cache.maintenance_skips",
        "maintenance.patches_submitted",
        "maintenance.merges",
        "maintenance.merge_steps",
        "maintenance.patches_applied",
        "maintenance.merge_blocked",
        "store.puts",
        "store.gets",
        "store.heads",
        "store.deletes",
        "store.copies",
        "store.bytes_in",
        "store.bytes_out",
        "store.background_ms",
        "clock.now_ms",
        "resilience.retries",
        "resilience.backoff_ms",
        "resilience.timeouts",
        "resilience.io_errors",
        "resilience.fast_failures",
        "resilience.repaired_replicas",
        "resilience.breaker_trips",
        "resilience.breakers_open",
        "integrity.corrupt_replicas",
        "integrity.read_repairs",
        "integrity.scrub_repairs",
        "integrity.quarantined_replicas",
        "integrity.unrecoverable_objects",
        "degraded.serves",
        "degraded.stale_rings",
        "traffic.negative_hits",
        "traffic.revalidations",
        "traffic.group_commits",
        "traffic.patches_coalesced",
        "traffic.put_elisions",
        "traffic.digest_skips",
        "membership.epoch",
        "membership.transitions",
        "membership.pending_moves",
        "membership.partitions_moved",
        "membership.bytes_migrated",
        "membership.dual_reads",
        "membership.write_throughs",
        "membership.handoffs",
        "membership.handoff_p50_ms",
        "membership.handoff_p99_ms",
        "partition.active_cuts",
        "partition.cuts_applied",
        "partition.heals",
        "partition.blocked_requests",
        "partition.blocked_rumors",
        "gc.passes",
        "gc.swept",
        "gc.reclaimed_bytes",
        "gc.compacted_rings",
        "trace.spans",
        "trace.dropped",
    }
)

GOSSIP_KEYS = frozenset(
    {
        "gossip.rumors_sent",
        "gossip.rumors_delivered",
        "gossip.single_deliveries",
        "gossip.anti_entropy_rounds",
        "gossip.in_flight",
        "traffic.rumors_coalesced",
    }
)

#: present only when hinted handoff is armed (enable_hinted_handoff)
HINT_KEYS = frozenset(
    {
        "traffic.hints_sloppy_writes",
        "traffic.hints_stored",
        "traffic.hints_delivered",
        "traffic.hints_superseded",
        "traffic.hints_dropped",
        "traffic.hints_unverified",
        "traffic.hints_outstanding",
    }
)

#: per-op keys follow exactly these two shapes
_OP_KEY = re.compile(
    r"^op\.[a-z_]+\.(count|mean_ms|min_ms|max_ms|p50_ms|p95_ms|p99_ms|errors)$"
)


def snapshot_for(middlewares: int) -> dict:
    fs = H2CloudFS(
        SwiftCluster.rack_scale(), account="gold", middlewares=middlewares
    )
    fs.mkdir("/d")
    fs.write("/d/f", b"x")
    fs.listdir("/d")
    fs.pump()
    fs.gc()
    return fs.middlewares[0].monitor.snapshot()


class TestGoldenKeys:
    def test_single_middleware_key_set(self):
        snapshot = snapshot_for(middlewares=1)
        fixed = {k for k in snapshot if not k.startswith("op.")}
        assert fixed == GOLDEN_KEYS

    def test_gossip_deployment_adds_exactly_gossip_keys(self):
        snapshot = snapshot_for(middlewares=2)
        fixed = {k for k in snapshot if not k.startswith("op.")}
        assert fixed == GOLDEN_KEYS | GOSSIP_KEYS

    def test_hinted_handoff_adds_exactly_hint_keys(self):
        cluster = SwiftCluster.rack_scale()
        cluster.enable_hinted_handoff()
        fs = H2CloudFS(cluster, account="gold", middlewares=1)
        fs.mkdir("/d")
        fs.pump()
        snapshot = fs.middlewares[0].monitor.snapshot()
        fixed = {k for k in snapshot if not k.startswith("op.")}
        assert fixed == GOLDEN_KEYS | HINT_KEYS

    def test_op_keys_follow_the_contract(self):
        snapshot = snapshot_for(middlewares=1)
        op_keys = [k for k in snapshot if k.startswith("op.")]
        assert op_keys, "instrumented ops must appear in the snapshot"
        for key in op_keys:
            assert _OP_KEY.match(key), key
        # the canned session exercised these ops; all seven stats exist
        for op in ("mkdir", "write", "list"):
            for stat in (
                "count", "mean_ms", "min_ms", "max_ms",
                "p50_ms", "p95_ms", "p99_ms",
            ):
                assert f"op.{op}.{stat}" in snapshot

    def test_values_are_numbers(self):
        snapshot = snapshot_for(middlewares=2)
        for key, value in snapshot.items():
            assert isinstance(value, (int, float)), key
