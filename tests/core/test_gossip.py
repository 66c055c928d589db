"""Gossip protocol tests: propagation, loopback avoidance, convergence.

These exercise the paper's §3.3.2 Phase 2 step 2 across multiple
H2Middlewares sharing one object cloud, including convergence under
message loss (anti-entropy backstop) and the hypothesis-driven
"any operation schedule converges" property.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GossipNetwork, H2CloudFS, H2Config, Namespace, Rumor
from repro.simcloud import MessageLoss, SwiftCluster


def multi_fs(n: int = 3, loss: float = 0.0, fanout: int = 2) -> H2CloudFS:
    return H2CloudFS(
        SwiftCluster.fast(),
        account="alice",
        middlewares=n,
        gossip_fanout=fanout,
        message_loss=MessageLoss(loss, seed=5) if loss else None,
    )


def ring_views(fs: H2CloudFS, path: str = "/") -> list[list[str]]:
    """Each middleware's local view of a directory's live children."""
    views = []
    for mw in fs.middlewares:
        ns = mw.lookup.resolve_dir(fs.account, path)
        fd = mw.load_ring(ns, use_cache=True)
        views.append(fd.ring.live_names())
    return views


class TestNetworkMechanics:
    def test_fanout_validated(self):
        with pytest.raises(ValueError):
            GossipNetwork(fanout=0)

    def test_duplicate_join_rejected(self):
        fs = multi_fs(2)
        with pytest.raises(ValueError):
            fs.network.join(fs.middlewares[0])

    def test_peers_of_excludes_self(self):
        fs = multi_fs(3)
        assert fs.network.peers_of(1) == [2, 3]

    def test_announce_queues_fanout_rumors(self):
        fs = multi_fs(3, fanout=2)
        rumor = Rumor(
            ns=Namespace("1.1.1"),
            origin=1,
            ts=fs.store.timestamps.next(),
        )
        before = fs.network.in_flight
        fs.network.announce(1, rumor)
        assert fs.network.in_flight == before + 2

    def test_single_member_network_sends_nothing(self):
        cluster = SwiftCluster.fast()
        fs = H2CloudFS(cluster, middlewares=2)
        # Only 1 peer exists for each sender; fanout 2 clips to 1.
        fs.mkdir("/d")
        fs.network.run_until_quiet()


class TestPropagation:
    def test_update_visible_on_other_middleware_after_pump(self):
        fs = multi_fs(2)
        mw1, mw2 = fs.middlewares
        mw1.mkdir("alice", "/fromnode1")
        fs.network.run_until_quiet()
        names = mw2.list_dir("alice", "/")
        assert [e.name for e in names] == ["fromnode1"]

    def test_loopback_avoidance_stops_storm(self):
        """Rumors die once every node is up to date (quiescence)."""
        fs = multi_fs(4)
        fs.middlewares[0].mkdir("alice", "/d")
        rounds = fs.network.run_until_quiet(max_rounds=100)
        assert rounds < 20

    def test_stale_rumor_not_forwarded(self):
        fs = multi_fs(2)
        mw1, mw2 = fs.middlewares
        mw1.mkdir("alice", "/d")
        fs.network.run_until_quiet()
        ns = Namespace.root("alice")
        old = Rumor(ns=ns, origin=1, ts=mw2.fd_cache.get_or_create(ns).local_version)
        assert mw2.on_gossip(old) is False

    def test_concurrent_updates_from_different_nodes_union(self):
        fs = multi_fs(2)
        mw1, mw2 = fs.middlewares
        mw1.mkdir("alice", "/from1")
        mw2.mkdir("alice", "/from2")
        fs.pump()
        assert ring_views(fs) == [["from1", "from2"], ["from1", "from2"]]

    def test_delete_propagates(self):
        fs = multi_fs(2)
        mw1, mw2 = fs.middlewares
        mw1.write_file("alice", "/f", b"x")
        fs.pump()
        mw2.delete_file("alice", "/f")
        fs.pump()
        assert ring_views(fs) == [[], []]

    def test_gossip_work_is_background_accounted(self):
        fs = multi_fs(3)
        fs.middlewares[0].mkdir("alice", "/d")
        before = fs.clock.now_us
        bg_before = fs.store.ledger.background_us
        fs.network.run_until_quiet()
        assert fs.clock.now_us == before  # zero-latency cluster anyway
        assert fs.store.ledger.background_us >= bg_before


class TestConvergenceUnderLoss:
    def test_rumor_loss_healed_by_anti_entropy(self):
        fs = multi_fs(4, loss=0.6)
        mw1 = fs.middlewares[0]
        for i in range(10):
            mw1.write_file("alice", f"/f{i}", b"x")
        fs.network.converge()
        views = ring_views(fs)
        assert all(v == views[0] for v in views)
        assert len(views[0]) == 10

    def test_total_loss_still_converges(self):
        fs = multi_fs(3, loss=1.0)
        fs.middlewares[0].mkdir("alice", "/only-antientropy")
        fs.network.converge()
        views = ring_views(fs)
        assert all(v == ["only-antientropy"] for v in views)


class TestMaintenanceRespectsTheCache:
    """Rumors and anti-entropy use spare cache room but never evict."""

    CAPACITY = 4

    def small_cache_fs(self, n: int) -> H2CloudFS:
        return H2CloudFS(
            SwiftCluster.fast(),
            account="alice",
            middlewares=n,
            config=H2Config(fd_cache_capacity=self.CAPACITY),
        )

    def test_holder_cycle_skips_a_full_non_holder(self):
        """Ring /d is held by mw1 and mw3, not by mw2 (full of other
        rings).  With every rumor lost, one converge() must still bring
        mw3's write into mw1's *cached* ring: mw1 pulls /d from its next
        holder, mw3, past the successor that never admits it."""
        fs = self.small_cache_fs(3)
        mw1, mw2, mw3 = fs.middlewares
        for name in ("d", "o1", "o2", "o3"):
            mw1.mkdir("alice", f"/{name}")
        fs.pump()
        fs.drop_caches()
        mw1.list_dir("alice", "/d")
        mw3.list_dir("alice", "/d")
        for name in ("o1", "o2", "o3"):
            mw2.list_dir("alice", f"/{name}")
        d = mw1.lookup.resolve_dir("alice", "/d")
        assert d in mw1.fd_cache and d in mw3.fd_cache
        assert d not in mw2.fd_cache
        assert len(mw2.fd_cache) == self.CAPACITY
        held = mw1.fd_cache.peek(d)
        misses = mw1.fd_cache.stats.misses

        fs.network.loss = MessageLoss(1.0)
        mw3.write_file("alice", "/d/f", b"x")
        fs.network.converge()

        cached = mw1.fd_cache.peek(d)
        assert cached is held  # merged in place, never evicted/reloaded
        assert "f" in cached.ring.live_names()
        assert mw1.fd_cache.stats.misses == misses
        assert d not in mw2.fd_cache
        assert mw2.fd_cache.stats.maintenance_skips > 0

    def test_drain_into_full_cache_keeps_client_descriptors(self):
        """A peer's churn in rings this node never served must not push
        the node's client working set out of its full cache."""
        fs = self.small_cache_fs(2)
        mw1, mw2 = fs.middlewares
        for name in ("a1", "a2", "a3", "b1", "b2", "b3"):
            mw1.mkdir("alice", f"/{name}")
        fs.pump()
        fs.drop_caches()
        for name in ("a1", "a2", "a3"):
            mw1.list_dir("alice", f"/{name}")
        working_set = [fd.ns for fd in mw1.fd_cache.descriptors()]
        assert len(working_set) == self.CAPACITY
        evictions = mw1.fd_cache.stats.evictions

        for name in ("b1", "b2", "b3"):
            for i in range(3):
                mw2.write_file("alice", f"/{name}/f{i}", b"x")
        fs.pump()

        assert [fd.ns for fd in mw1.fd_cache.descriptors()] == working_set
        assert mw1.fd_cache.stats.evictions == evictions
        assert mw1.fd_cache.stats.maintenance_skips > 0
        # The refused rings are not lost: a cold load reads the store.
        names = [e.name for e in mw1.list_dir("alice", "/b2")]
        assert names == ["f0", "f1", "f2"]


class TestConvergenceProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 2),  # which middleware
                st.sampled_from(["mkdir", "write", "delete"]),
                st.sampled_from(["a", "b", "c", "d"]),
            ),
            max_size=25,
        ),
        loss=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_schedule_converges_to_identical_views(self, ops, loss):
        """Eventual consistency: after convergence every middleware's
        view of '/' is identical, whatever ops ran wherever."""
        fs = multi_fs(3, loss=loss)
        for mw_idx, op, name in ops:
            mw = fs.middlewares[mw_idx]
            try:
                if op == "mkdir":
                    mw.mkdir("alice", f"/{name}")
                elif op == "write":
                    mw.write_file("alice", f"/{name}", b"data")
                else:
                    mw.delete_file("alice", f"/{name}")
            except Exception:
                # AlreadyExists / PathNotFound / IsADirectory races are
                # application-level outcomes; convergence must hold anyway.
                pass
        fs.network.converge()
        views = ring_views(fs)
        assert all(v == views[0] for v in views)
