"""Reference model of the filesystem and the checker built on it.

The model is a plain in-memory tree per account, updated with every
generated op.  It never looks at the program: the expected answer to
every read, stat and LIST comes from the model alone, and the checker
compares the program's answer to it.

Consistency the checker assumes (the system's real guarantee with the
default configuration: inline merge on the serving middleware, gossip
and anti-entropy at the maintenance drain):

* a middleware sees its own writes at once;
* after a drain, every middleware sees every write made before it;
* between drains, a middleware may or may not see another
  middleware's newer writes.

So an entry is *exact* for a viewing middleware unless another
middleware changed it since the last drain; then any state it held
since that drain is allowed.  Every workload gives each entry one
mutating middleware, and directories are only ever changed by the
middleware that serves their tenant, so only leaf entries can be
inexact.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

FILE, DIR = "file", "dir"


def etag_of(data) -> str:
    """The object etag: MD5 of the content (a sparse payload's content
    is its identity string)."""
    if isinstance(data, bytes):
        return hashlib.md5(data).hexdigest()
    return hashlib.md5(data.identity().encode()).hexdigest()


class File:
    __slots__ = ("data", "size", "etag")

    def __init__(self, data):
        self.data = data
        self.size = len(data)
        self.etag = etag_of(data)

    def view(self) -> tuple:
        return (FILE, self.size, self.etag)


class Dir:
    __slots__ = ("children", "_sorted")

    def __init__(self):
        self.children: dict[str, File | Dir] = {}
        self._sorted: list[str] | None = None

    def view(self) -> tuple:
        return (DIR, 0, "")

    def sorted_names(self) -> list[str]:
        if self._sorted is None:
            self._sorted = sorted(self.children)
        return self._sorted

    def set(self, name: str, entry) -> None:
        if name not in self.children:
            self._sorted = None
        self.children[name] = entry

    def pop(self, name: str):
        self._sorted = None
        return self.children.pop(name)


class IndexedSet:
    """Insertion-ordered set with O(1) add/remove and indexable picks."""

    __slots__ = ("items", "_pos")

    def __init__(self):
        self.items: list[str] = []
        self._pos: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: str) -> bool:
        return item in self._pos

    def add(self, item: str) -> None:
        if item not in self._pos:
            self._pos[item] = len(self.items)
            self.items.append(item)

    def remove(self, item: str) -> None:
        idx = self._pos.pop(item)
        last = self.items.pop()
        if idx < len(self.items):
            self.items[idx] = last
            self._pos[last] = idx


def split(path: str) -> list[str]:
    return [c for c in path.split("/") if c]


def parent_and_name(path: str) -> tuple[str, str]:
    parts = split(path)
    return "/" + "/".join(parts[:-1]), parts[-1]


def join(parent: str, name: str) -> str:
    return (parent.rstrip("/") or "") + "/" + name


def view_of(entry) -> tuple | None:
    return None if entry is None else entry.view()


def same_payload(a, b) -> bool:
    return type(a) is type(b) and a == b


def describe(data) -> str:
    if isinstance(data, bytes):
        return f"{len(data)} bytes md5={hashlib.md5(data).hexdigest()[:8]}"
    return repr(data)


class ModelError(Exception):
    """The generator emitted an op the model cannot decide or apply."""


class Model:
    """Every account's tree, plus what changed since the last drain."""

    def __init__(self):
        self.roots: dict[str, Dir] = {}
        self.files: dict[str, IndexedSet] = {}  # account -> file paths
        self.dirs: dict[str, IndexedSet] = {}  # account -> dir paths
        self.user_bytes = 0
        # (account, parent, name) -> (states since the drain, mutators)
        self._unsettled: dict[tuple[str, str, str], tuple[list, set]] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def entry(self, account: str, path: str):
        node = self.roots.get(account)
        for name in split(path):
            if not isinstance(node, Dir):
                return None
            node = node.children.get(name)
        return node

    def dir(self, account: str, path: str) -> Dir:
        node = self.entry(account, path)
        if not isinstance(node, Dir):
            raise ModelError(f"{account}:{path} is not a directory")
        return node

    def subtree_size(self, entry) -> int:
        if not isinstance(entry, Dir):
            return 1
        return 1 + sum(self.subtree_size(c) for c in entry.children.values())

    def inside(self, path: str, ancestor: str) -> bool:
        return path == ancestor or path.startswith(ancestor.rstrip("/") + "/")

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def apply(self, op) -> None:
        kind, account = op.kind, op.account
        if kind == "account":
            self.roots[account] = Dir()
            self.files[account] = IndexedSet()
            self.dirs[account] = IndexedSet()
            self.dirs[account].add("/")
        elif kind in ("write", "mkdir"):
            parent, name = parent_and_name(op.path)
            entry = File(op.arg) if kind == "write" else Dir()
            self._place(op.mw, account, parent, name, entry)
        elif kind == "write_many":
            for name, data in op.arg:
                self._place(op.mw, account, op.path, name, File(data))
        elif kind in ("delete", "rmdir"):
            parent, name = parent_and_name(op.path)
            self._place(op.mw, account, parent, name, None)
        elif kind in ("move", "rename"):
            parent, name = parent_and_name(op.path)
            moved = self.dir(account, parent).children[name]
            self._place(op.mw, account, parent, name, None)
            dparent, dname = parent_and_name(op.arg)
            self._place(op.mw, account, dparent, dname, moved)
        elif kind == "copy":
            dparent, dname = parent_and_name(op.arg)
            copied = self._clone(self.entry(account, op.path))
            self._place(op.mw, account, dparent, dname, copied)
        elif kind not in ("read", "stat", "list"):
            raise ModelError(f"unknown op kind {kind!r}")

    def _clone(self, entry):
        if isinstance(entry, File):
            return entry  # immutable: share
        copy = Dir()
        for name, child in entry.children.items():
            copy.set(name, self._clone(child))
        return copy

    def _place(self, mw: int, account: str, parent: str, name: str, entry) -> None:
        """Set (or with ``entry=None`` remove) one directory entry."""
        pdir = self.dir(account, parent)
        old = pdir.children.get(name)
        if old is None and entry is None:
            raise ModelError(f"{account}:{join(parent, name)} does not exist")
        key = (account, parent, name)
        record = self._unsettled.get(key)
        if record is None:
            record = ([old], set())
            self._unsettled[key] = record
        record[0].append(entry)
        record[1].add(mw)
        path = join(parent, name)
        if old is not None:
            self._index(account, path, old, add=False)
        if entry is None:
            pdir.pop(name)
        else:
            pdir.set(name, entry)
            self._index(account, path, entry, add=True)

    def _index(self, account: str, path: str, entry, add: bool) -> None:
        if isinstance(entry, File):
            (self.files[account].add if add else self.files[account].remove)(path)
            self.user_bytes += entry.size if add else -entry.size
            return
        (self.dirs[account].add if add else self.dirs[account].remove)(path)
        for name, child in entry.children.items():
            self._index(account, join(path, name), child, add)

    def settle(self) -> None:
        """A drain happened: every middleware now sees the current state."""
        self._unsettled.clear()

    # ------------------------------------------------------------------
    # what a middleware may observe
    # ------------------------------------------------------------------
    def certain(self, viewer: int, account: str, parent: str, name: str) -> bool:
        """Must ``viewer`` see exactly the entry's current state?"""
        record = self._unsettled.get((account, parent, name))
        return record is None or record[1] == {viewer}

    def require_settled_dir(self, viewer: int, account: str, path: str) -> None:
        """Fail loudly if ``viewer`` may not see the path to ``path``."""
        if not self._unsettled:
            return
        parts = split(path)
        for i in range(len(parts)):
            if not self.certain(viewer, account, "/" + "/".join(parts[:i]), parts[i]):
                raise ModelError(f"{account}:{path} is not settled for mw{viewer}")

    def allowed(
        self, viewer: int, account: str, parent: str, name: str, pdir=None
    ) -> list:
        """Every state of one entry ``viewer`` may legitimately observe.

        ``pdir`` (the parent's :class:`Dir`, when the caller has it)
        saves walking the path again.
        """
        if self.certain(viewer, account, parent, name):
            if pdir is None:
                pdir = self.entry(account, parent)
            return [pdir.children.get(name) if isinstance(pdir, Dir) else None]
        return self._unsettled[(account, parent, name)][0]


class Checker:
    """Compares the program's answers with the model; collects errors."""

    def __init__(self, model: Model, keep: int = 20):
        self.model = model
        self.errors: list[str] = []
        self.error_count = 0
        self._keep = keep

    def fail(self, message: str) -> None:
        self.error_count += 1
        if len(self.errors) < self._keep:
            self.errors.append(message)

    def check_read(self, viewer: int, account: str, path: str, got) -> bool:
        parent, name = parent_and_name(path)
        self.model.require_settled_dir(viewer, account, parent)
        states = self.model.allowed(viewer, account, parent, name)
        for state in states:
            if isinstance(state, File) and same_payload(state.data, got):
                return True
        expected = [describe(s.data) if isinstance(s, File) else view_of(s) for s in states]
        self.fail(
            f"read {account}:{path} on mw{viewer}: got {describe(got)}, "
            f"expected one of {expected}"
        )
        return False

    def check_stat(self, viewer: int, account: str, path: str, got: tuple) -> bool:
        """``got`` is the stat's (kind, size, etag)."""
        if path == "/":
            states = [self.model.roots.get(account)]
        else:
            parent, name = parent_and_name(path)
            self.model.require_settled_dir(viewer, account, parent)
            states = self.model.allowed(viewer, account, parent, name)
        views = [view_of(s) for s in states]
        if got in views:
            return True
        self.fail(f"stat {account}:{path} on mw{viewer}: got {got}, expected one of {views}")
        return False

    def check_list(
        self,
        viewer: int,
        account: str,
        path: str,
        marker: str | None,
        limit: int | None,
        got: list[tuple],
    ) -> bool:
        """``got`` is the page as (name, kind, size, etag) tuples."""
        before = self.error_count

        def fail(what: str) -> None:
            self.fail(
                f"list {account}:{path} marker={marker!r} limit={limit} "
                f"on mw{viewer}: {what}"
            )

        if limit is not None and len(got) > limit:
            fail(f"{len(got)} entries exceed the limit")
        prev = marker
        for name, *_ in got:
            if prev is not None and name <= prev:
                fail(f"entry {name!r} " + ("at or before the marker" if prev == marker else "out of order"))
            prev = name
        model = self.model
        model.require_settled_dir(viewer, account, path)
        pdir = model.dir(account, path)
        for name, *meta in got:
            views = [view_of(s) for s in model.allowed(viewer, account, path, name, pdir)]
            if tuple(meta) not in views:
                fail(f"entry {name!r} {tuple(meta)} not in {views}")
        names = pdir.sorted_names()
        lo = bisect_right(names, marker) if marker is not None else 0
        if limit is not None and len(got) >= limit:
            hi = bisect_right(names, got[-1][0]) if got else lo
        else:
            hi = len(names)
        returned = {name for name, *_ in got}
        for name in names[lo:hi]:
            if name not in returned and model.certain(viewer, account, path, name):
                fail(f"live entry {name!r} missing")
        return self.error_count == before
