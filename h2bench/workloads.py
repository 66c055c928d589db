"""The benchmark's own input generators.

Every workload is a pure function of its seed: a list of set-up ops
and then an endless stream of client ops, each valid in the reference
model at the moment it is emitted (the generator reads the model the
harness keeps up to date).  The program only ever receives these ops.

Sizes and mixes, and why each workload exists, are documented in
``h2bench/README.md``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate

from .model import Model, join
from .program import SparseData

#: One generated op.  ``arg`` is the payload (write), the destination
#: path (move/rename/copy), ``(marker, limit)`` (list) or the
#: ``[(name, payload), ...]`` batch of a set-up bulk write.
Op = namedtuple("Op", "kind mw account path arg")


class Zipf:
    """Rank sampler with P(rank k) proportional to 1 / (k + 1) ** s."""

    def __init__(self, n: int, s: float):
        self._cum = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))

    def rank(self, rng: random.Random) -> int:
        return bisect_left(self._cum, rng.random() * self._cum[-1])


def _pick(rng: random.Random, weights: dict[str, float]) -> str:
    return rng.choices(list(weights), weights=list(weights.values()))[0]


class Workload:
    """Base: names, fleet size, drain period and the two op sources."""

    name = ""
    middlewares = 1
    drain_every = 100  # client ops between maintenance drains
    warmup_ops = 100
    setups = 3  # deployments built per run to time set-up

    def __init__(self, seed: int):
        self.rng = random.Random(seed * 1_000_003 + 17)
        self.setup_rng = random.Random(seed * 1_000_003 + 5)
        self._fresh = 0

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh:06d}"

    def small_bytes(self, rng: random.Random, lo: int, hi: int) -> bytes:
        return rng.randbytes(rng.randint(lo, hi))

    def setup_ops(self) -> list[Op]:
        raise NotImplementedError

    def next_op(self, model: Model) -> Op:
        raise NotImplementedError


# ----------------------------------------------------------------------
# deep-read
# ----------------------------------------------------------------------
class DeepRead(Workload):
    """Read-mostly traffic over many tenants' deep trees, Zipf files.

    Directories total well above the two middlewares' descriptor
    caches (2 x 4096), so path walks miss the cache.
    """

    name = "deep-read"
    middlewares = 2
    drain_every = 5000
    warmup_ops = 2500
    setups = 1  # one build takes ~15 s; three would not fit a run
    tenants = 36
    dirs_per_tenant = 256
    mix = {"read": 0.48, "stat": 0.25, "list": 0.15, "write": 0.12}

    def __init__(self, seed: int):
        super().__init__(seed)
        self._files: list[tuple[str, str]] = []  # (account, path)
        self._dirs: list[tuple[str, str]] = []

    def tenant_mw(self, account: str) -> int:
        return int(account[1:]) % self.middlewares

    def setup_ops(self) -> list[Op]:
        rng = self.setup_rng
        ops: list[Op] = []
        for t in range(self.tenants):
            account = f"t{t:03d}"
            mw = t % self.middlewares
            ops.append(Op("account", mw, account, "/", None))
            dirs = [("/", 0)]
            shallow = [("/", 0)]
            while len(dirs) < self.dirs_per_tenant:
                # A chain from a shallow directory down to depth 4..12.
                path, depth = rng.choice(shallow)
                target = rng.randint(4, 12)
                while depth < target and len(dirs) < self.dirs_per_tenant:
                    path, depth = join(path, f"d{len(dirs)}"), depth + 1
                    ops.append(Op("mkdir", mw, account, path, None))
                    dirs.append((path, depth))
                    if depth <= 3:
                        shallow.append((path, depth))
            # Files in every other directory: half the bulk writes of
            # one file per directory, for the same 1.5 files per dir.
            for path, _ in dirs[1::2]:
                items = [(f"f{k}", self.small_bytes(rng, 32, 512)) for k in range(3)]
                ops.append(Op("write_many", mw, account, path, items))
                self._files.extend((account, join(path, n)) for n, _ in items)
            self._dirs.extend((account, p) for p, _ in dirs)
        # Popularity: a seeded permutation assigns Zipf ranks.
        rng.shuffle(self._files)
        rng.shuffle(self._dirs)
        self._file_rank = Zipf(len(self._files), 1.0)
        self._dir_rank = Zipf(len(self._dirs), 1.0)
        return ops

    def next_op(self, model: Model) -> Op:
        rng = self.rng
        kind = _pick(rng, self.mix)
        if kind == "list" or (kind == "stat" and rng.random() < 0.2):
            account, path = self._dirs[self._dir_rank.rank(rng)]
            arg = (None, None) if kind == "list" else None
            return Op(kind, self.tenant_mw(account), account, path, arg)
        account, path = self._files[self._file_rank.rank(rng)]
        arg = self.small_bytes(rng, 32, 512) if kind == "write" else None
        return Op(kind, self.tenant_mw(account), account, path, arg)


# ----------------------------------------------------------------------
# hotdir-churn
# ----------------------------------------------------------------------
class HotdirChurn(Workload):
    """Three middlewares churn the same few ~1000-entry directories.

    Each middleware creates, deletes and renames only names it owns
    (``m<k>-...``); everybody reads the read-only ``r...`` names.
    Creates and deletes alternate around a fixed count, so the
    directory size m stays level.
    """

    name = "hotdir-churn"
    middlewares = 3
    drain_every = 100
    warmup_ops = 150
    setups = 9  # a build takes ~0.3 s: a median of 3 spread 0.19 over ten seeds
    account = "hot"
    hot_dirs = 3
    read_only = 160  # per directory
    owned = 80  # per middleware per directory
    mix = {
        "write": 0.13,  # creates
        "delete": 0.13,
        "rename": 0.08,
        "list": 0.33,
        "read": 0.22,
        "stat": 0.11,
    }
    page_limit = 50

    def __init__(self, seed: int):
        super().__init__(seed)
        self._dirs = [f"/hot{h}" for h in range(self.hot_dirs)]
        # (mw, dir) -> owned live names, kept by the generator itself
        self._owned: dict[tuple[int, str], list[str]] = {}

    def setup_ops(self) -> list[Op]:
        rng = self.setup_rng
        ops = [Op("account", 0, self.account, "/", None)]
        for d in self._dirs:
            ops.append(Op("mkdir", 0, self.account, d, None))
        for d in self._dirs:
            ro = [(f"r{i:04d}", self.small_bytes(rng, 32, 256)) for i in range(self.read_only)]
            ops.append(Op("write_many", 0, self.account, d, ro))
            for mw in range(self.middlewares):
                names = [self.fresh(f"m{mw}-") for _ in range(self.owned)]
                self._owned[(mw, d)] = names
                items = [(n, self.small_bytes(rng, 32, 256)) for n in names]
                ops.append(Op("write_many", mw, self.account, d, items))
        return ops

    def next_op(self, model: Model) -> Op:
        rng = self.rng
        kind = _pick(rng, self.mix)
        mw = rng.randrange(self.middlewares)
        d = rng.choice(self._dirs)
        owned = self._owned[(mw, d)]
        if kind == "list":
            names = model.dir(self.account, d).sorted_names()
            marker = None if rng.random() < 0.2 else rng.choice(names)
            return Op("list", mw, self.account, d, (marker, self.page_limit))
        if kind in ("read", "stat"):
            if rng.random() < 0.5 and owned:
                name = rng.choice(owned)
            else:
                name = f"r{rng.randrange(self.read_only):04d}"
            return Op(kind, mw, self.account, join(d, name), None)
        if kind == "rename":
            i = rng.randrange(len(owned))
            new = self.fresh(f"m{mw}-")
            old, owned[i] = owned[i], new
            return Op("rename", mw, self.account, join(d, old), join(d, new))
        # Creates and deletes hold the owned count at its target.
        if len(owned) < self.owned:
            name = self.fresh(f"m{mw}-")
            owned.append(name)
            return Op("write", mw, self.account, join(d, name), self.small_bytes(rng, 32, 256))
        name = owned.pop(rng.randrange(len(owned)))
        return Op("delete", mw, self.account, join(d, name), None)


# ----------------------------------------------------------------------
# paper-mix
# ----------------------------------------------------------------------
class PaperMix(Workload):
    """The paper's full op vocabulary over light and heavy tenants.

    Small files carry real bytes; large ones are sparse (size without
    bytes).  All tenants together fit the descriptor caches.
    """

    name = "paper-mix"
    middlewares = 3
    drain_every = 250
    warmup_ops = 600
    setups = 5  # a build takes ~1.2 s: a median of 3 spread 0.17 over ten seeds
    light_tenants = 45
    heavy_tenants = 3
    mix = {
        "read": 0.38,
        "write": 0.22,
        "list": 0.16,
        "stat": 0.10,
        "mkdir": 0.04,
        "delete": 0.04,
        "move": 0.02,
        "copy": 0.02,
        "rename": 0.015,
        "rmdir": 0.005,
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        self._accounts = [f"h{t}" for t in range(self.heavy_tenants)] + [
            f"l{t:02d}" for t in range(self.light_tenants)
        ]
        self._tenant_rank = Zipf(len(self._accounts), 1.0)
        self._mw_of = {a: i % self.middlewares for i, a in enumerate(self._accounts)}
        self._payloads = 0

    def tenant_mw(self, account: str) -> int:
        return self._mw_of[account]

    def payload(self, rng: random.Random):
        # Every third payload is large, so each tenant's share of large
        # files (and with it bytes per op) does not swing with the seed,
        # and moves of large files -- the slowest common mutation -- are
        # about 2 % of mutations: the mutate p99 falls inside that mode
        # instead of on its edge.
        self._payloads += 1
        if self._payloads % 3:
            return self.small_bytes(rng, 64, 2048)
        return SparseData(size=1 << 20, tag=self.fresh("blob"))

    def setup_ops(self) -> list[Op]:
        rng = self.setup_rng
        ops: list[Op] = []
        for account in self._accounts:
            heavy = account.startswith("h")
            mw = self.tenant_mw(account)
            ops.append(Op("account", mw, account, "/", None))
            dirs = [("/", 0)]
            for _ in range(120 if heavy else 4):
                parent, depth = rng.choice([d for d in dirs if d[1] < (6 if heavy else 3)])
                path = join(parent, self.fresh("d"))
                ops.append(Op("mkdir", mw, account, path, None))
                dirs.append((path, depth + 1))
            for path, _ in dirs:
                count = 4 if heavy else 3
                items = [(self.fresh("f"), self.payload(rng)) for _ in range(count)]
                ops.append(Op("write_many", mw, account, path, items))
        return ops

    def next_op(self, model: Model) -> Op:
        rng = self.rng
        account = self._accounts[self._tenant_rank.rank(rng)]
        mw = self.tenant_mw(account)
        files, dirs = model.files[account], model.dirs[account]
        kind = _pick(rng, self.mix)
        if kind in ("read", "delete") and not files:
            kind = "write"
        if kind in ("read", "delete"):
            return Op(kind, mw, account, rng.choice(files.items), None)
        if kind == "write":
            if files and rng.random() < 0.5:
                path = rng.choice(files.items)
            else:
                path = join(rng.choice(dirs.items), self.fresh("f"))
            return Op("write", mw, account, path, self.payload(rng))
        if kind == "list":
            path = rng.choice(dirs.items)
            marker = limit = None
            if rng.random() < 0.25:
                names = model.dir(account, path).sorted_names()
                marker = rng.choice(names) if names else None
                limit = rng.randint(1, 8)
            return Op("list", mw, account, path, (marker, limit))
        if kind == "stat":
            pool = files if files and rng.random() < 0.7 else dirs
            return Op("stat", mw, account, rng.choice(pool.items), None)
        if kind == "mkdir":
            parent = rng.choice(dirs.items)
            if parent.count("/") >= 8:
                parent = "/"
            return Op("mkdir", mw, account, join(parent, self.fresh("d")), None)
        # move / copy / rename / rmdir need a non-root source
        src = self._source(model, account, kind)
        if src is None:
            return Op("mkdir", mw, account, join("/", self.fresh("d")), None)
        if kind == "rmdir":
            return Op("rmdir", mw, account, src, None)
        if kind == "rename":
            parent = src.rsplit("/", 1)[0] or "/"
        else:
            candidates = [d for d in dirs.items if not model.inside(d, src)]
            parent = rng.choice(candidates)
        return Op(kind, mw, account, src, join(parent, self.fresh("n")))

    def _source(self, model: Model, account: str, kind: str) -> str | None:
        """A small subtree (or a file) to move, copy, rename or rmdir."""
        rng = self.rng
        files, dirs = model.files[account], model.dirs[account]
        # Directory copies are O(subtree); kept rare so the mutate p99
        # does not sit on the boundary between them and file ops.
        want_dir = kind == "rmdir" or rng.random() < (0.05 if kind == "copy" else 0.2)
        if not want_dir and files:
            return rng.choice(files.items)
        limit = 20 if kind == "copy" else 60
        for _ in range(8):
            path = rng.choice(dirs.items)
            if path != "/" and model.subtree_size(model.entry(account, path)) <= limit:
                return path
        return None


WORKLOADS = {w.name: w for w in (DeepRead, HotdirChurn, PaperMix)}
