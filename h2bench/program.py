"""The program under test, loaded from ``src/`` and driven through its
public API.

``repro/__init__.py`` eagerly imports every subpackage, including
``repro.workloads`` and ``repro.testing``.  The benchmark owns its own
input generator and reference model, so it registers ``repro`` as a
bare package and imports only the subpackages it drives
(``repro.core``, ``repro.simcloud``, ``repro.tools.fsck``): a change to
the repository's workload generators or test oracle can then neither
change what is measured nor how it is checked.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _load():
    if not (SRC / "repro" / "core" / "__init__.py").is_file():
        raise SystemExit(f"h2bench: program sources not found under {SRC}")
    if "repro" not in sys.modules:
        pkg = types.ModuleType("repro")
        pkg.__path__ = [str(SRC / "repro")]
        sys.modules["repro"] = pkg


_load()

from repro.core import H2CloudFS, H2Config  # noqa: E402
from repro.core.namespace import Namespace  # noqa: E402
from repro.simcloud.cluster import SwiftCluster  # noqa: E402
from repro.simcloud.sparse import SparseData  # noqa: E402
from repro.tools.fsck import H2Fsck  # noqa: E402

__all__ = ["Deployment", "SparseData", "execute", "READ", "LIST", "MUTATE", "op_class"]

READ, LIST, MUTATE = "read", "list", "mutate"
_CLASS = {
    "read": READ,
    "stat": READ,
    "list": LIST,
    "write": MUTATE,
    "delete": MUTATE,
    "mkdir": MUTATE,
    "rmdir": MUTATE,
    "move": MUTATE,
    "rename": MUTATE,
    "copy": MUTATE,
}


def op_class(kind: str) -> str | None:
    """read/list/mutate for client ops; None for set-up-only ops."""
    return _CLASS.get(kind)


class Deployment:
    """Default-config H2Cloud over the rack-scale cluster, ``n`` middlewares."""

    def __init__(self, middlewares: int, first_account: str):
        self.fs = H2CloudFS(
            SwiftCluster.rack_scale(),
            account=first_account,
            middlewares=middlewares,
            config=H2Config(),
        )
        self.mws = self.fs.middlewares
        self.clock = self.fs.cluster.clock
        self.store = self.fs.cluster.store

    def drain(self) -> None:
        """The maintenance drain: mergers, then gossip to convergence."""
        self.fs.pump()

    def gc(self):
        return self.fs.gc()

    def fsck(self):
        return H2Fsck(self.mws[0]).check()

    def stored_bytes(self) -> int:
        """Bytes held on every storage node, replicas included."""
        return sum(used for _, used in self.fs.cluster.storage_stats().values())

    def counters(self) -> dict[str, float]:
        """The program's public counters, summed over the deployment."""
        ledger = self.store.ledger
        out = {k: float(v) for k, v in ledger.snapshot().items()}
        out["hits"] = float(sum(mw.fd_cache.stats.hits for mw in self.mws))
        out["misses"] = float(sum(mw.fd_cache.stats.misses for mw in self.mws))
        out["evictions"] = float(sum(mw.fd_cache.stats.evictions for mw in self.mws))
        out["merges"] = float(sum(mw.merger.merges for mw in self.mws))
        out["patches_applied"] = float(sum(mw.merger.patches_applied for mw in self.mws))
        net = self.fs.network
        out["rumors_sent"] = float(net.rumors_sent if net else 0)
        out["rumors_delivered"] = float(net.rumors_delivered if net else 0)
        nodes = self.fs.cluster.nodes.values()
        out["replica_reads"] = float(sum(n.stats.reads for n in nodes))
        out["replica_writes"] = float(sum(n.stats.writes for n in nodes))
        return out

    def cached_listing(self, viewer: int, account: str, ns_uuid: str | None):
        """A middleware's cached view of one ring, or None if not cached.

        Uses the side-effect-free cache probe, so an audit neither
        counts as a hit nor reorders the LRU.
        """
        ns = Namespace.root(account) if ns_uuid is None else Namespace(ns_uuid)
        fd = self.mws[viewer].fd_cache.peek(ns)
        if fd is None or not fd.loaded or fd.stale:
            return None
        return fd.view().live_children()


def execute(dep: Deployment, op):
    """Run one generated op; returns what the checker compares."""
    mw = dep.mws[op.mw]
    kind, account, path = op.kind, op.account, op.path
    if kind == "read":
        return mw.read_file(account, path)
    if kind == "stat":
        return mw.stat(account, path).child
    if kind == "list":
        marker, limit = op.arg
        # Detailed, as in the paper's LIST experiments: names from the
        # NameRing, then one HEAD per entry for sizes and etags.
        return mw.list_dir(account, path, detailed=True, marker=marker, limit=limit)
    if kind == "write":
        return mw.write_file(account, path, op.arg)
    if kind == "delete":
        return mw.delete_file(account, path)
    if kind == "mkdir":
        return mw.mkdir(account, path)
    if kind == "rmdir":
        return mw.rmdir(account, path)
    if kind == "move":
        return mw.move(account, path, op.arg)
    if kind == "rename":
        return mw.rename(account, path, op.arg)
    if kind == "copy":
        return mw.copy(account, path, op.arg)
    if kind == "account":
        return mw.create_account(account)
    if kind == "write_many":
        return mw.write_files(account, path, op.arg)
    raise ValueError(f"unknown op kind {kind!r}")
