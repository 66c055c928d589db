"""Tests for the H2 Lookup module: O(d) walks, caching, error paths."""

import pytest

from repro.core import H2CloudFS
from repro.simcloud import IsADirectory, NotADirectory, PathNotFound, SwiftCluster


@pytest.fixture
def fs() -> H2CloudFS:
    fs = H2CloudFS(SwiftCluster.rack_scale(), account="alice")
    fs.makedirs("/a/b/c/d")
    fs.write("/a/b/c/d/leaf", b"x")
    fs.write("/top", b"y")
    fs.pump()
    return fs


def mw(fs):
    return fs.middlewares[0]


class TestResolution:
    def test_root_resolution(self, fs):
        resolution = mw(fs).lookup.resolve("alice", "/")
        assert resolution.is_root
        assert resolution.is_dir
        assert resolution.dir_ns.is_root

    def test_chain_length_matches_depth(self, fs):
        resolution = mw(fs).lookup.resolve("alice", "/a/b/c/d/leaf")
        assert len(resolution.ns_chain) == 5  # root, a, b, c, d

    def test_file_resolution(self, fs):
        resolution = mw(fs).lookup.resolve("alice", "/top")
        assert not resolution.is_dir
        assert resolution.child.kind == "file"

    def test_dir_ns_of_file_rejected(self, fs):
        resolution = mw(fs).lookup.resolve("alice", "/top")
        with pytest.raises(NotADirectory):
            resolution.dir_ns

    def test_missing_leaf(self, fs):
        with pytest.raises(PathNotFound) as err:
            mw(fs).lookup.resolve("alice", "/a/b/ghost")
        assert err.value.path == "/a/b/ghost"

    def test_missing_intermediate_reports_prefix(self, fs):
        with pytest.raises(PathNotFound) as err:
            mw(fs).lookup.resolve("alice", "/a/ghost/leaf")
        assert err.value.path == "/a/ghost"

    def test_file_as_intermediate(self, fs):
        with pytest.raises(NotADirectory) as err:
            mw(fs).lookup.resolve("alice", "/top/below")
        assert err.value.path == "/top"

    def test_try_resolve(self, fs):
        assert mw(fs).lookup.try_resolve("alice", "/a/b") is not None
        assert mw(fs).lookup.try_resolve("alice", "/zz") is None

    def test_resolve_parent_at_root(self, fs):
        parent_ns, base = mw(fs).lookup.resolve_parent("alice", "/top")
        assert parent_ns.is_root
        assert base == "top"


class TestLookupCosts:
    def test_cold_lookup_linear_in_depth(self, fs):
        """Paper Fig 13: the regular access method is O(d)."""
        clock = fs.clock
        costs = {}
        for path, depth in [("/top", 1), ("/a/b/c/d/leaf", 5)]:
            fs.drop_caches()
            _, cost = clock.measure(lambda p=path: fs.stat(p))
            costs[depth] = cost
        assert costs[5] > costs[1] * 3  # ~5x the ring loads

    def test_warm_lookup_much_cheaper(self, fs):
        fs.drop_caches()
        _, cold = fs.clock.measure(lambda: fs.stat("/a/b/c/d/leaf"))
        _, warm = fs.clock.measure(lambda: fs.stat("/a/b/c/d/leaf"))
        assert warm == 0  # every ring served from the descriptor cache

    def test_quick_access_constant_in_depth(self, fs):
        """Paper §3.2: relative-path access is O(1) -- one object GET."""
        rel_deep = fs.relative_path_of("/a/b/c/d/leaf")
        rel_shallow = fs.relative_path_of("/top")
        fs.drop_caches()
        _, deep = fs.clock.measure(lambda: fs.read_relative(rel_deep))
        _, shallow = fs.clock.measure(lambda: fs.read_relative(rel_shallow))
        assert abs(deep - shallow) < max(deep, shallow) * 0.5

    def test_cache_hit_rate_reported(self, fs):
        fs.stat("/a/b/c/d/leaf")
        fs.stat("/a/b/c/d/leaf")
        assert mw(fs).fd_cache.stats.hits > 0


class TestReadBesideParentRingLoad:
    """A read whose parent ring misses sends its data GET with the ring GET."""

    def cold_parent(self, fs):
        """Every ring but the leaf file's parent (``/a/b/c/d``) cached."""
        fs.drop_caches()
        fs.stat("/a/b/c/d")

    def test_costs_one_round_trip_not_two(self, fs):
        self.cold_parent(fs)
        _, ring = fs.clock.measure(lambda: fs.stat("/a/b/c/d/leaf"))
        _, data = fs.clock.measure(lambda: fs.read("/a/b/c/d/leaf"))  # all cached
        self.cold_parent(fs)
        gets = fs.store.ledger.gets
        value, both = fs.clock.measure(lambda: fs.read("/a/b/c/d/leaf"))
        assert value == b"x"
        assert ring > 0 and data > 0
        # Disk costs vary a little between runs of the same request, so
        # compare with the sequential sum rather than for equality.
        assert both < 0.6 * (ring + data)
        assert fs.store.ledger.gets - gets == 2  # the ring, then the file

    def test_missing_name_raises_lookup_error(self, fs):
        """The lookup's error wins over the early GET's ObjectNotFound."""
        self.cold_parent(fs)
        with pytest.raises(PathNotFound) as err:
            fs.read("/a/b/c/d/ghost")
        assert err.value.path == "/a/b/c/d/ghost"

    def test_directory_raises_is_a_directory(self, fs):
        fs.drop_caches()
        fs.stat("/a/b")
        with pytest.raises(IsADirectory):
            fs.read("/a/b/c")

    def test_ranged_read(self, fs):
        fs.write("/a/b/c/d/big", b"0123456789")
        fs.pump()
        self.cold_parent(fs)
        assert bytes(fs.read_range("/a/b/c/d/big", 2, 5)) == b"23456"

    def test_cached_parent_reads_after_lookup(self, fs):
        fs.read("/a/b/c/d/leaf")
        resolution = mw(fs).lookup.resolve(
            "alice", "/a/b/c/d/leaf", fetch=lambda ns, name: (ns, name)
        )
        assert resolution.prefetched is None  # nothing issued early
        assert resolution.fetch(lambda ns, name: name) == "leaf"
