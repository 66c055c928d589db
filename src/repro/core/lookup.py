"""The H2 Lookup module (paper §3.2, §4.2).

H2 offers two file-access methods:

* **quick** -- given a namespace-decorated relative path like
  ``N02::file1``, hash it and fetch the object directly: O(1);
* **regular** -- given a full path ``/home/ubuntu/file1`` of depth d,
  hash each directory name level by level, walking d NameRings: O(d).

The walk goes through the middleware's File Descriptor Cache, so hot
directories resolve without touching the store; the Fig 13 benchmark
drops caches between measurements to expose the cold O(d) behaviour.
A cold walk through a *sharded* directory (``nr:`` holds a manifest,
see :mod:`repro.core.shards`) fans the shard GETs out in parallel
lanes, so resolution latency stays one round-trip deep per level even
at 500k children.

A walk that ends in a data read (:meth:`H2Lookup.resolve` with
``fetch``) issues the final object's GET as soon as the parent
directory's namespace is known -- from the grandparent's ring -- so
when the parent's own ring must come from the store, the two GETs go
out together and the read waits one round trip instead of two.  The
fetched object is handed back only once the parent's ring confirms the
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..simcloud.errors import NotADirectory, PathNotFound
from .namering import KIND_DIR, Child
from .namespace import Namespace, parent_and_base, split_path


@dataclass(frozen=True)
class Resolution:
    """The result of resolving a full path level by level."""

    path: str
    ns_chain: tuple[Namespace, ...]  # namespaces of every ancestor dir
    child: Child | None  # None when the path is the account root
    #: outcome of a ``fetch`` issued beside the parent ring's GET:
    #: ``(value, None)`` or ``(None, error)``; None when not issued
    prefetched: tuple[Any, BaseException | None] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def parent_ns(self) -> Namespace:
        return self.ns_chain[-1]

    @property
    def is_root(self) -> bool:
        return self.child is None

    @property
    def is_dir(self) -> bool:
        return self.child is None or self.child.kind == KIND_DIR

    @property
    def dir_ns(self) -> Namespace:
        """The namespace of the resolved directory itself."""
        if self.child is None:
            return self.ns_chain[-1]
        if self.child.kind != KIND_DIR or self.child.ns is None:
            raise NotADirectory(self.path)
        return Namespace(self.child.ns)

    def fetch(self, fetch: Callable[[Namespace, str], Any]) -> Any:
        """``fetch(parent_ns, name)`` for the final component.

        Returns (or raises) the outcome the walk already has when it
        issued the fetch beside the parent ring's GET; otherwise calls
        ``fetch`` now.
        """
        if self.prefetched is None:
            return fetch(self.parent_ns, self.child.name)
        value, error = self.prefetched
        if error is not None:
            raise error
        return value


class H2Lookup:
    """Level-by-level resolution over a middleware's NameRings."""

    def __init__(self, middleware):
        self._mw = middleware

    def resolve(
        self,
        account: str,
        path: str,
        use_cache: bool = True,
        fetch: Callable[[Namespace, str], Any] | None = None,
    ) -> Resolution:
        """Resolve a full path to its parent chain and final child.

        Raises :class:`PathNotFound` if any component is missing (or
        fake-deleted) and :class:`NotADirectory` if a non-final
        component is a file.  Cost: one NameRing load per level that
        misses the descriptor cache.

        ``fetch(parent_ns, name)`` is the data read the caller will make
        for the final component.  When the parent's ring is not cached,
        it is issued in parallel with that ring's GET and its outcome
        kept in :attr:`Resolution.prefetched`; a failed lookup raises
        its own error and the outcome is dropped.  Otherwise the walk
        leaves it to :meth:`Resolution.fetch`.
        """
        components = split_path(path)
        ns = Namespace.root(account)
        chain = [ns]
        child: Child | None = None
        prefetched = None
        last = len(components) - 1
        for i, name in enumerate(components):
            if fetch is not None and i == last and not self._ring_cached(ns, use_cache):
                hop, prefetched = self._mw.store.parallel(
                    [
                        _captured(self._hop, components, i, name, ns, chain, use_cache),
                        _captured(fetch, ns, name),
                    ]
                )
                result, error = hop
                if error is not None:
                    raise error
                child, ns = result
                continue
            child, ns = self._hop(components, i, name, ns, chain, use_cache)
        return Resolution(
            path=path, ns_chain=tuple(chain), child=child, prefetched=prefetched
        )

    def _ring_cached(self, ns: Namespace, use_cache: bool) -> bool:
        """Would :meth:`H2Middleware.load_ring` serve ``ns`` from the cache?"""
        fd = self._mw.fd_cache.peek(ns)
        return use_cache and fd is not None and fd.loaded and not fd.stale

    def _hop(
        self,
        components: list[str],
        i: int,
        name: str,
        ns: Namespace,
        chain: list[Namespace],
        use_cache: bool,
    ) -> tuple[Child, Namespace]:
        tracer = self._mw.tracer
        if tracer.noop:
            return self._resolve_level(components, i, name, ns, chain, use_cache)
        with tracer.span(
            "lookup.hop",
            tags={"node": self._mw.node_id, "name": name, "depth": i},
        ):
            return self._resolve_level(components, i, name, ns, chain, use_cache)

    def _resolve_level(
        self,
        components: list[str],
        i: int,
        name: str,
        ns: Namespace,
        chain: list[Namespace],
        use_cache: bool,
    ) -> tuple[Child, Namespace]:
        """One NameRing hop of the O(d) walk; appends to ``chain``."""
        mw = self._mw
        fd = mw.load_ring(ns, use_cache=use_cache)
        child = fd.view().get(name)
        if child is None and use_cache and fd.loaded:
            if mw.config.negative_cache and name in fd.negative:
                # A store revalidation already confirmed this miss and
                # nothing has invalidated it since (no local write, no
                # absorbed remote state): skip the double-GET.
                mw._negative_hits.inc()
            else:
                # Revalidate on miss: the cached ring may predate an
                # update another middleware merged into the store.
                # Only failed lookups pay this extra GET; positive
                # cache hits stay free (eventual consistency with
                # read-repair on the miss path).  ``load_ring`` merges
                # the reload back into the cached descriptor, so the
                # GET is paid once per staleness, not once per miss.
                mw._revalidations.inc()
                fd = mw.load_ring(ns, use_cache=False)
                child = fd.view().get(name)
                if (
                    child is None
                    and mw.config.negative_cache
                    and not fd.stale
                ):
                    # The store itself just said "absent": remember it.
                    # (Never on a degraded serve -- stale rings carry no
                    # authority about absence.)
                    fd.negative.add(name)
        if child is None:
            raise PathNotFound("/" + "/".join(components[: i + 1]))
        if i != len(components) - 1:
            if child.kind != KIND_DIR or child.ns is None:
                raise NotADirectory("/" + "/".join(components[: i + 1]))
            ns = Namespace(child.ns)
            chain.append(ns)
        return child, ns

    def resolve_dir(
        self, account: str, path: str, use_cache: bool = True
    ) -> Namespace:
        """Resolve a path that must be a directory; returns its namespace."""
        resolution = self.resolve(account, path, use_cache=use_cache)
        return resolution.dir_ns

    def resolve_parent(
        self, account: str, path: str, use_cache: bool = True
    ) -> tuple[Namespace, str]:
        """Resolve everything but the last component: (parent_ns, base)."""
        parent, base = parent_and_base(path)
        if parent == "/":
            return Namespace.root(account), base
        return self.resolve_dir(account, parent, use_cache=use_cache), base

    def try_resolve(
        self, account: str, path: str, use_cache: bool = True
    ) -> Resolution | None:
        """Resolution or None -- for existence probes."""
        try:
            return self.resolve(account, path, use_cache=use_cache)
        except (PathNotFound, NotADirectory):
            return None


def _captured(fn: Callable[..., Any], *args: Any) -> Callable[[], tuple]:
    """A parallel-batch thunk returning ``(value, None)`` or ``(None, error)``.

    A lane must not raise: :meth:`SimClock.run_isolated` rewinds the
    clock only when the thunk returns.
    """

    def run() -> tuple:
        try:
            return fn(*args), None
        except Exception as exc:  # handed back to the caller, who raises it
            return None, exc

    return run
