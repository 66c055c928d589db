"""One benchmark run: set-up, warm-up, timed phase, final checks.

A closed loop with one client on one thread: each op is sent only
after the previous one has returned.  Every ``drain_every`` ops the
maintenance drain (``H2CloudFS.pump``) runs; its wall time counts in
throughput but in no op's latency.  After each drain the model is
settled and every middleware's cached tree is compared with it.

With a :class:`~h2bench.speed.SpeedProbe`, the probe samples the
host's speed while program code runs (ops and drains), its own time
is taken out of every timed span, and ``setup_s`` and ``ops_per_s``
are stated at the probe's reference speed (see ``speed.py``).
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from time import perf_counter, perf_counter_ns

from .model import DIR, Checker, Model, etag_of, join
from .program import LIST, MUTATE, READ, Deployment, execute, op_class
from .workloads import WORKLOADS, Op

#: samples a class needs before its p99 is reported (ten beyond it)
MIN_P99_SAMPLES = 1000
#: the timed phase may run past --seconds until every class has
#: MIN_P99_SAMPLES, but never longer than this
MAX_TIMED_S = 90.0
#: set-up drains this often: a backlog of one rumor per created
#: directory, absorbed only at the end, costs minutes on deep-read
SETUP_DRAIN_EVERY = 4000
CLASSES = (READ, LIST, MUTATE)


def percentile(sorted_values: list, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Run:
    def __init__(
        self, workload: str, seed: int, setups: int | None = None, tracer=None, probe=None
    ):
        self.workload = WORKLOADS[workload](seed)
        self.setups = setups or self.workload.setups
        self.tracer = tracer
        self.probe = probe
        self.model = Model()
        self.checker = Checker(self.model)
        self.failed = 0
        self.failures: list[str] = []
        self.dep: Deployment | None = None
        self.serving: dict[str, set[int]] = {}  # account -> middlewares used

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def _spent(self) -> int:
        return 0 if self.probe is None else self.probe.spent_ns

    def setup(self) -> float:
        """Build the deployment ``setups`` times; returns the median time,
        at reference speed when there is a probe."""
        ops = self.workload.setup_ops()
        for op in ops:
            self.model.apply(op)
            self.serving.setdefault(op.account, set()).add(op.mw)
        self.model.settle()
        times = []
        for _ in range(self.setups):
            self.dep = None
            gc.collect()
            spent = self._spent()
            mark = self.probe.mark() if self.probe is not None else 0
            start = perf_counter()
            dep = Deployment(self.workload.middlewares, ops[0].account)
            if self.tracer is not None:
                self.tracer.bind(dep.clock, dep.store.ledger)
            for i, op in enumerate(ops, 1):
                if op.kind == "account" and op.account == ops[0].account:
                    continue  # the deployment created it
                self._call(dep, op)
                if i % SETUP_DRAIN_EVERY == 0:
                    self._drain(dep)
            self._drain(dep)
            took = perf_counter() - start - (self._spent() - spent) / 1e9
            if self.probe is not None:
                took *= self.probe.factor(mark)
            times.append(took)
            self.dep = dep
        self.audit_caches()
        return statistics.median(times)

    # ------------------------------------------------------------------
    # one op
    # ------------------------------------------------------------------
    def _drain(self, dep: Deployment) -> None:
        probe = self.probe
        if probe is not None:
            probe.counting = True
        try:
            dep.drain()
        finally:
            if probe is not None:
                probe.counting = False

    def _call(self, dep: Deployment, op):
        probe = self.probe
        if probe is not None:
            probe.counting = True
        try:
            return True, execute(dep, op)
        except Exception as exc:  # any raise is a failed op; keep going
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(
                    f"{op.kind} {op.account}:{op.path} on mw{op.mw}: {exc!r}\n"
                    + traceback.format_exc(limit=4)
                )
            return False, None
        finally:
            if probe is not None:
                probe.counting = False

    def step(self, op) -> tuple[int, int]:
        """Execute, check and model one op; returns (wall ns, sim us)."""
        dep = self.dep
        clock = dep.clock
        sim0 = clock.now_us
        spent = self._spent()
        t0 = perf_counter_ns()
        ok, result = self._call(dep, op)
        wall = perf_counter_ns() - t0 - (self._spent() - spent)
        sim = clock.now_us - sim0
        tracer = self.tracer
        if tracer is not None:
            tracer.on = False
        if ok:
            self._check(op, result)
        self.model.apply(op)
        self.serving[op.account].add(op.mw)
        return wall, sim

    def _check(self, op, result) -> None:
        check, kind = self.checker, op.kind
        if kind == "read":
            check.check_read(op.mw, op.account, op.path, result)
        elif kind == "stat":
            got = (DIR, 0, "") if result is None else (result.kind, result.size, result.etag)
            check.check_stat(op.mw, op.account, op.path, got)
        elif kind == "list":
            marker, limit = op.arg
            got = [(e.name, e.kind, e.size, e.etag) for e in result]
            check.check_list(op.mw, op.account, op.path, marker, limit, got)
        elif kind == "write":
            expected = (len(op.arg), etag_of(op.arg))
            if (result.size, result.etag) != expected:
                check.fail(f"write {op.account}:{op.path}: acked {result} for {expected}")
        elif kind == "copy":
            expected = self.model.subtree_size(self.model.entry(op.account, op.path))
            if result != expected:
                check.fail(f"copy {op.account}:{op.path}: {result} objects, expected {expected}")

    # ------------------------------------------------------------------
    # drains and audits
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Drain maintenance; settle the model; audit the caches.
        Returns the drain's wall time (the audit is not timed)."""
        spent = self._spent()
        t0 = perf_counter_ns()
        self._drain(self.dep)
        wall = perf_counter_ns() - t0 - (self._spent() - spent)
        if self.tracer is not None:
            self.tracer.on = False
        self.model.settle()
        self.audit_caches()
        return wall

    def audit_caches(self) -> None:
        """Compare each middleware's cached tree with the model."""
        model, dep = self.model, self.dep
        for viewer in range(len(dep.mws)):
            for account in model.roots:
                stack = [("/", None)]
                while stack:
                    path, ns = stack.pop()
                    children = dep.cached_listing(viewer, account, ns)
                    if children is None:
                        continue
                    got = [(c.name, c.kind, c.size, c.etag) for c in children]
                    self.checker.check_list(viewer, account, path, None, None, got)
                    for c in children:
                        sub = join(path, c.name)
                        if c.kind == DIR and sub in model.dirs[account]:
                            stack.append((sub, c.ns))

    def walk_all(self) -> None:
        """Full-tree LIST walk of every account through every middleware
        that served it."""
        model, dep = self.model, self.dep
        for account, viewers in self.serving.items():
            for viewer in sorted(viewers):
                for path in sorted(model.dirs[account].items):
                    _, entries = self._call(
                        dep, Op("list", viewer, account, path, (None, None))
                    )
                    if entries is not None:
                        got = [(e.name, e.kind, e.size, e.etag) for e in entries]
                        self.checker.check_list(viewer, account, path, None, None, got)

    # ------------------------------------------------------------------
    # the phases
    # ------------------------------------------------------------------
    def warmup(self) -> None:
        wl = self.workload
        for i in range(1, wl.warmup_ops + 1):
            self.step(wl.next_op(self.model))
            if i % wl.drain_every == 0:
                self.drain()
        self.drain()

    def timed(self, seconds: float, fixed_ops: int | None = None, floor: bool = True) -> dict:
        """The measured phase: ``fixed_ops`` ops, or at least ``seconds``
        and, with ``floor``, until every class has its p99 samples."""
        wl, dep, tracer = self.workload, self.dep, self.tracer
        walls: list[int] = []
        sims: dict[str, list[int]] = {c: [] for c in CLASSES}
        drain_ns = 0
        before = dep.counters()
        # Park the deployment built so far outside the collector's
        # generations: a full collection scanning it would land a
        # pause of tens of ms on whichever op happened to trigger it.
        gc.collect()
        gc.freeze()
        mark = self.probe.mark() if self.probe is not None else 0
        start = perf_counter()
        deadline = start + seconds
        hard = start + max(seconds, MAX_TIMED_S)
        n = 0
        while True:
            # Stop only on a drain boundary, so every run measures whole
            # drain windows and ends with its maintenance drained.
            if fixed_ops is not None:
                if n >= fixed_ops:
                    break
            elif n % wl.drain_every == 0:
                now = perf_counter()
                if now >= hard or (
                    now >= deadline
                    and (not floor or all(len(sims[c]) >= MIN_P99_SAMPLES for c in CLASSES))
                ):
                    break
            op = wl.next_op(self.model)
            if tracer is not None:
                tracer.op = n
                tracer.on = True
            wall, sim = self.step(op)
            walls.append(wall)
            sims[op_class(op.kind)].append(sim)
            n += 1
            if n % wl.drain_every == 0 or n == fixed_ops:
                if tracer is not None:
                    tracer.op = -1
                    tracer.on = True
                drain_ns += self.drain()
        elapsed = perf_counter() - start
        speed = self.probe.factor(mark) if self.probe is not None else 1.0
        gc.unfreeze()
        after = dep.counters()
        delta = {k: after[k] - before[k] for k in after}
        return {
            "ops": n,
            "walls": walls,
            "sims": sims,
            "program_s": (sum(walls) + drain_ns) / 1e9,
            "speed": speed,
            "elapsed_s": elapsed,
            "delta": delta,
        }

    def finish(self) -> dict:
        """Final GC, storage census, full walk and fsck."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = -2
            tracer.on = True
        report = self.dep.gc()
        if tracer is not None:
            tracer.on = False
        stored = self.dep.stored_bytes()
        self.walk_all()
        fsck = self.dep.fsck()
        for err in fsck.errors:
            self.checker.fail(f"fsck: {err}")
        return {
            "gc_swept": report.swept,
            "stored_bytes": stored,
            "user_bytes": self.model.user_bytes,
            "fsck": fsck.summary(),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def wall_percentiles(timed: dict) -> dict:
    """Per-op wall time p50/p99 in us (printed, not gated: see README)."""
    walls = sorted(w / 1000.0 for w in timed["walls"])
    out = {"wall_p50_us": percentile(walls, 0.5)}
    if len(walls) >= MIN_P99_SAMPLES:
        out["wall_p99_us"] = percentile(walls, 0.99)
    return out


def end_to_end(timed: dict, setup_s: float, final: dict) -> dict:
    """The end-to-end metrics, as {name: (value, unit)}."""
    n = timed["ops"]
    delta = timed["delta"]
    sims = {c: sorted(v) for c, v in timed["sims"].items()}
    metrics: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    put("ops_per_s", n / (timed["program_s"] * timed["speed"]), "1/s")
    for cls, p50, p99 in (
        (READ, "sim_read_p50_ms", "sim_read_p99_ms"),
        (LIST, None, "sim_list_p99_ms"),
        (MUTATE, "sim_mutate_p50_ms", "sim_mutate_p99_ms"),
    ):
        values = sims[cls]
        if p50 and len(values) >= 20:
            put(p50, percentile(values, 0.5) / 1000.0, "ms")
        if len(values) >= MIN_P99_SAMPLES:
            put(p99, percentile(values, 0.99) / 1000.0, "ms")
    requests = sum(delta[k] for k in ("puts", "gets", "heads", "deletes", "copies"))
    put("store_requests_per_op", requests / n, "count")
    put("store_bytes_per_op", (delta["bytes_in"] + delta["bytes_out"]) / n, "B")
    put("background_sim_ms_per_op", delta["background_us"] / n / 1000.0, "ms")
    put("stored_bytes_per_user_byte", final["stored_bytes"] / final["user_bytes"], "ratio")
    put("setup_s", setup_s, "s")
    put("peak_rss_mb", peak_rss_mb(), "MB")
    return metrics
