"""Tests for file descriptors and the LRU descriptor cache (paper §4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Child,
    FileDescriptor,
    FileDescriptorCache,
    KIND_FILE,
    NameRing,
    Namespace,
    Patch,
)
from repro.simcloud import Timestamp


def ns(i: int) -> Namespace:
    return Namespace(f"{i}.1.0")


def dirty(fd: FileDescriptor) -> None:
    child = Child(name="x", timestamp=Timestamp(1, 1, 0), kind=KIND_FILE)
    fd.chain.append(
        Patch(
            target_ns=fd.ns,
            node_id=1,
            patch_seq=len(fd.chain.patches),
            payload=NameRing(children={"x": child}),
        )
    )


class TestFileDescriptor:
    def test_fresh_descriptor_clean_and_unloaded(self):
        fd = FileDescriptor(ns=ns(1))
        assert not fd.dirty
        assert not fd.loaded
        assert fd.local_version == Timestamp.ZERO

    def test_dirty_tracks_chain(self):
        fd = FileDescriptor(ns=ns(1))
        dirty(fd)
        assert fd.dirty
        fd.chain.clear()
        assert not fd.dirty

    def test_chain_bound_to_namespace(self):
        fd = FileDescriptor(ns=ns(7))
        assert fd.chain.target_ns == ns(7)


class TestCache:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FileDescriptorCache(capacity=0)

    def test_miss_then_hit(self):
        cache = FileDescriptorCache(capacity=4)
        assert cache.lookup(ns(1)) is None
        fd = cache.get_or_create(ns(1))
        assert cache.lookup(ns(1)) is fd
        assert cache.stats.misses == 2  # lookup + get_or_create's probe
        assert cache.stats.hits == 1

    def test_lru_eviction_order(self):
        cache = FileDescriptorCache(capacity=2)
        a = cache.get_or_create(ns(1))
        cache.get_or_create(ns(2))
        cache.lookup(ns(1))  # touch a: now 2 is LRU
        cache.get_or_create(ns(3))  # evicts 2
        assert ns(2) not in cache
        assert cache.lookup(ns(1)) is a
        assert cache.stats.evictions == 1

    def test_dirty_descriptors_pinned(self):
        cache = FileDescriptorCache(capacity=2)
        fd1 = cache.get_or_create(ns(1))
        dirty(fd1)
        cache.get_or_create(ns(2))
        cache.get_or_create(ns(3))  # would evict fd1, but it's dirty
        assert ns(1) in cache
        assert ns(2) not in cache  # the clean one went instead

    def test_invalidate_skips_dirty(self):
        cache = FileDescriptorCache(capacity=4)
        fd = cache.get_or_create(ns(1))
        dirty(fd)
        cache.invalidate(ns(1))
        assert ns(1) in cache
        fd.chain.clear()
        cache.invalidate(ns(1))
        assert ns(1) not in cache

    def test_drop_clean_keeps_dirty(self):
        cache = FileDescriptorCache(capacity=8)
        fd1 = cache.get_or_create(ns(1))
        dirty(fd1)
        cache.get_or_create(ns(2))
        cache.get_or_create(ns(3))
        dropped = cache.drop_clean()
        assert dropped == 2
        assert len(cache) == 1
        assert ns(1) in cache

    def test_dirty_descriptors_listing(self):
        cache = FileDescriptorCache(capacity=8)
        fd1 = cache.get_or_create(ns(1))
        cache.get_or_create(ns(2))
        dirty(fd1)
        assert cache.dirty_descriptors() == [fd1]

    def test_hit_rate(self):
        cache = FileDescriptorCache(capacity=4)
        cache.get_or_create(ns(1))
        cache.lookup(ns(1))
        cache.lookup(ns(1))
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert FileDescriptorCache().stats.hit_rate == 0.0


class TestMaintenanceAdmission:
    def test_held_ring_not_promoted_or_counted(self):
        cache = FileDescriptorCache(capacity=2)
        a = cache.get_or_create(ns(1))
        cache.get_or_create(ns(2))
        hits, misses = cache.stats.hits, cache.stats.misses
        assert cache.admit_for_maintenance(ns(1)) is a
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
        cache.get_or_create(ns(3))  # 1 is still the LRU entry
        assert ns(1) not in cache

    def test_spare_room_inserts_at_cold_end(self):
        cache = FileDescriptorCache(capacity=3)
        cache.get_or_create(ns(1))
        cache.get_or_create(ns(2))
        fd = cache.admit_for_maintenance(ns(9))
        assert fd is not None and not fd.loaded
        assert [d.ns for d in cache.descriptors()] == [ns(9), ns(1), ns(2)]
        cache.get_or_create(ns(3))  # the admitted ring goes first
        assert ns(9) not in cache
        assert ns(1) in cache and ns(2) in cache

    def test_full_cache_refuses_and_counts(self):
        cache = FileDescriptorCache(capacity=2)
        cache.get_or_create(ns(1))
        cache.get_or_create(ns(2))
        assert cache.admit_for_maintenance(ns(9)) is None
        assert ns(9) not in cache
        assert len(cache) == 2
        assert cache.stats.maintenance_skips == 1
        assert cache.stats.evictions == 0


class ReferenceLRU:
    """The eviction spec, spelled out: an ordered list, LRU first; an
    insert past capacity removes the oldest *clean* keys until the size
    fits or only dirty keys remain."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.order: list[int] = []
        self.dirty: set[int] = set()
        self.evictions = 0

    def touch(self, key: int) -> None:
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)

    def insert(self, key: int) -> None:
        if key in self.order:
            self.touch(key)
            return
        self.order.append(key)
        while len(self.order) > self.capacity:
            clean = [k for k in self.order if k not in self.dirty]
            if not clean:
                break
            self.order.remove(clean[0])
            self.evictions += 1

    def admit(self, key: int) -> None:
        if key not in self.order and len(self.order) < self.capacity:
            self.order.insert(0, key)


class TestEvictionModel:
    @given(
        capacity=st.integers(1, 4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "lookup", "dirty", "clean", "admit"]),
                st.integers(0, 7),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_evicts_like_reference_lru_with_dirty_pinned(self, capacity, ops):
        cache = FileDescriptorCache(capacity=capacity)
        ref = ReferenceLRU(capacity)
        for op, key in ops:
            fd = cache.peek(ns(key))
            if op == "insert":
                cache.get_or_create(ns(key))
                ref.insert(key)
            elif op == "lookup":
                cache.lookup(ns(key))
                ref.touch(key)
            elif op == "dirty" and fd is not None:
                dirty(fd)
                ref.dirty.add(key)
            elif op == "clean" and fd is not None:
                fd.chain.clear()
                ref.dirty.discard(key)
            elif op == "admit":
                cache.admit_for_maintenance(ns(key))
                ref.admit(key)
            assert [d.ns for d in cache.descriptors()] == [
                ns(k) for k in ref.order
            ]
            assert cache.stats.evictions == ref.evictions
