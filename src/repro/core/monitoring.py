"""System monitoring (paper Fig 6: "a few other modules ... for
inter-communications and system monitoring").

:class:`Monitor` is one middleware's window into the unified
:class:`~repro.obs.metrics.MetricsRegistry`: per-operation latency
histograms (recorded automatically by the middleware's instrumented
Inbound API), descriptor-cache efficiency, maintenance-protocol
throughput (patches, merges, gossip), fault-masking cost and the
underlying store's request mix -- flattened into a stable
``snapshot()`` whose key names are a compatibility contract (see
``tests/obs/test_metric_names.py``).

Every :class:`~repro.core.middleware.H2Middleware` owns one persistent
``Monitor`` from construction (``mw.monitor``); constructing
``Monitor(mw)`` by hand binds to the same registry, so ad-hoc monitors
see the same history instead of the empty histograms the seed's
throwaway instances reported.

:func:`deployment_report` rolls every middleware of a deployment into
one text block, used by the examples and handy at a REPL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry

#: histogram suffixes emitted per instrumented operation
_OP_STATS = ("count", "mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms")


@dataclass
class LatencyHistogram:
    """A tiny fixed-bucket latency histogram (microseconds).

    Kept for the text report's bucket labels; exact distributions live
    in :class:`repro.obs.metrics.Histogram`.  ``percentile(q)`` answers
    with a linearly interpolated value inside the bucket the quantile
    falls in, which is as much as bucket counts can support.
    """

    BOUNDS = (1_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000)

    counts: list[int] = field(default_factory=lambda: [0] * 8)
    total_us: int = 0
    max_us: int = 0
    samples: int = 0

    def observe(self, us: int) -> None:
        self.samples += 1
        self.total_us += us
        self.max_us = max(self.max_us, us)
        for i, bound in enumerate(self.BOUNDS):
            if us <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean_us(self) -> float:
        return self.total_us / self.samples if self.samples else 0.0

    def _rank(self, q: float) -> int:
        """Nearest-rank index (1-based) of quantile ``q``.

        ``ceil(q * samples)`` computed with a guard against float
        noise: ``0.3 * 10`` is ``3.0000000000000004`` in binary
        floating point, and without the epsilon the rank would come out
        one too high at exactly those boundaries (and ``q=1.0`` must
        land on the last sample, never past it).
        """
        return min(self.samples, max(1, math.ceil(q * self.samples - 1e-9)))

    def percentile_bucket(self, q: float) -> str:
        """The bucket label containing quantile ``q`` (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not self.samples:
            return "n/a"
        want = self._rank(q)
        seen = 0
        labels = [f"<={b // 1000}ms" for b in self.BOUNDS] + [">10s"]
        for count, label in zip(self.counts, labels):
            seen += count
            if seen >= want:
                return label
        return labels[-1]

    def percentile(self, q: float) -> float:
        """Interpolated quantile ``q`` in microseconds.

        Linear interpolation across the winning bucket's range,
        clamped to ``max_us`` (the histogram knows its true maximum, so
        the open-ended overflow bucket stays finite).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not self.samples:
            return 0.0
        want = self._rank(q)
        seen = 0
        lower = 0
        for count, upper in zip(self.counts, self.BOUNDS):
            if seen + count >= want:
                frac = (want - seen) / count
                return min(float(self.max_us), lower + (upper - lower) * frac)
            seen += count
            lower = upper
        return float(self.max_us)


class Monitor:
    """Observes one middleware; snapshots the unified metrics registry."""

    def __init__(self, middleware):
        self._mw = middleware
        registry = getattr(middleware, "metrics", None)
        self.registry: MetricsRegistry = (
            registry if registry is not None else MetricsRegistry()
        )
        # Pull gauges: integrity state lives on the store, not in event
        # counters, so exporters read the current level at scrape time.
        # ``gauge`` is get-or-create -- re-binding an ad-hoc Monitor to
        # the shared registry reuses the instruments already wired to
        # the (same) store.
        store = middleware.store
        self.registry.gauge(
            "integrity.quarantined_replicas",
            lambda: store.quarantined_replica_count,
        )
        self.registry.gauge(
            "integrity.unrecoverable_objects",
            lambda: len(store.unrecoverable),
        )

    def timed(self, op_name: str, thunk):
        """Run an operation under observation; returns its result.

        Failures are counted (``op.<name>.errors``) but excluded from
        the latency distribution -- a refused mkdir says nothing about
        how long a successful one takes.
        """
        clock = self._mw.clock
        start = clock.now_us
        try:
            result = thunk()
        except BaseException:
            self.registry.counter(f"op.{op_name}.errors").inc()
            raise
        self.registry.histogram(f"op.{op_name}").observe(clock.now_us - start)
        return result

    @property
    def ops(self) -> dict[str, object]:
        """Per-op latency histograms recorded so far, keyed by op name."""
        return {
            h.name[len("op."):]: h
            for h in self.registry.histograms()
            if h.name.startswith("op.")
        }

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat metrics for scraping -- counter/gauge names are stable."""
        mw = self._mw
        cache = mw.fd_cache.stats
        ledger = mw.store.ledger
        metrics: dict[str, float] = {
            "fd_cache.size": len(mw.fd_cache),
            "fd_cache.hits": cache.hits,
            "fd_cache.misses": cache.misses,
            "fd_cache.hit_rate": cache.hit_rate,
            "fd_cache.evictions": cache.evictions,
            "fd_cache.maintenance_skips": cache.maintenance_skips,
            "maintenance.patches_submitted": mw.patches_submitted,
            "maintenance.merges": mw.merger.merges,
            "maintenance.merge_steps": mw.merger.single_steps,
            "maintenance.patches_applied": mw.merger.patches_applied,
            "maintenance.merge_blocked": int(mw.merge_blocked),
            "store.puts": ledger.puts,
            "store.gets": ledger.gets,
            "store.heads": ledger.heads,
            "store.deletes": ledger.deletes,
            "store.copies": ledger.copies,
            "store.bytes_in": ledger.bytes_in,
            "store.bytes_out": ledger.bytes_out,
            "store.background_ms": ledger.background_us / 1000.0,
            "clock.now_ms": mw.clock.now_ms,
        }
        resilience = mw.store.resilience
        breakers = mw.store.breakers.values()
        now_us = mw.clock.now_us
        metrics.update(
            {
                "resilience.retries": resilience.retries,
                "resilience.backoff_ms": resilience.backoff_us / 1000.0,
                "resilience.timeouts": resilience.timeouts,
                "resilience.io_errors": resilience.io_errors,
                "resilience.fast_failures": resilience.fast_failures,
                "resilience.repaired_replicas": resilience.repaired_replicas,
                "resilience.breaker_trips": sum(b.trips for b in breakers),
                "resilience.breakers_open": sum(
                    1 for b in breakers if b.is_quarantined(now_us)
                ),
                "integrity.corrupt_replicas": resilience.corrupt_replicas,
                "integrity.read_repairs": resilience.read_repairs,
                "integrity.scrub_repairs": resilience.scrub_repairs,
                "integrity.quarantined_replicas": (
                    mw.store.quarantined_replica_count
                ),
                "integrity.unrecoverable_objects": len(mw.store.unrecoverable),
                "degraded.serves": mw.degraded_serves,
                "degraded.stale_rings": sum(
                    1 for fd in mw.fd_cache.descriptors() if fd.stale
                ),
                "traffic.negative_hits": mw.metrics.counter(
                    "traffic.negative_hits"
                ).value,
                "traffic.revalidations": mw.metrics.counter(
                    "traffic.revalidations"
                ).value,
                "traffic.group_commits": mw.metrics.counter(
                    "traffic.group_commits"
                ).value,
                "traffic.patches_coalesced": mw.metrics.counter(
                    "traffic.patches_coalesced"
                ).value,
                "traffic.put_elisions": mw.metrics.counter(
                    "traffic.put_elisions"
                ).value,
                "traffic.digest_skips": mw.metrics.counter(
                    "traffic.digest_skips"
                ).value,
                "gc.passes": mw.metrics.counter("gc.passes").value,
                "gc.swept": mw.metrics.counter("gc.swept").value,
                "gc.reclaimed_bytes": mw.metrics.counter("gc.reclaimed_bytes").value,
                "gc.compacted_rings": mw.metrics.counter("gc.compacted_rings").value,
                "trace.spans": len(mw.tracer.spans),
                "trace.dropped": mw.tracer.dropped,
            }
        )
        membership = getattr(mw.store, "membership", None)
        if membership is not None:
            handoff = LatencyHistogram()
            for us in membership.handoff_us:
                handoff.observe(us)
            metrics.update(
                {
                    "membership.epoch": membership.epoch,
                    "membership.transitions": membership.transitions,
                    "membership.pending_moves": membership.pending_moves,
                    "membership.partitions_moved": membership.partitions_moved,
                    "membership.bytes_migrated": membership.bytes_migrated,
                    "membership.dual_reads": membership.dual_reads,
                    "membership.write_throughs": membership.write_throughs,
                    "membership.handoffs": handoff.samples,
                    "membership.handoff_p50_ms": (
                        handoff.percentile(0.50) / 1000.0
                    ),
                    "membership.handoff_p99_ms": (
                        handoff.percentile(0.99) / 1000.0
                    ),
                }
            )
        partitions = getattr(mw.store, "partitions", None)
        if partitions is not None:
            metrics.update(
                {
                    "partition.active_cuts": len(partitions.active),
                    "partition.cuts_applied": partitions.cuts_applied,
                    "partition.heals": partitions.heals,
                    "partition.blocked_requests": partitions.blocked_requests,
                    "partition.blocked_rumors": partitions.blocked_rumors,
                }
            )
        hints = getattr(mw.store, "hints", None)
        if hints is not None:
            for key, value in hints.snapshot().items():
                metrics[f"traffic.hints_{key}"] = value
        if mw.network is not None:
            metrics["gossip.rumors_sent"] = mw.network.rumors_sent
            metrics["gossip.rumors_delivered"] = mw.network.rumors_delivered
            metrics["gossip.single_deliveries"] = mw.network.single_deliveries
            metrics["gossip.anti_entropy_rounds"] = mw.network.anti_entropy_rounds
            metrics["gossip.in_flight"] = mw.network.in_flight
            metrics["traffic.rumors_coalesced"] = mw.network.rumors_coalesced
        for op_name, histogram in sorted(self.ops.items()):
            metrics[f"op.{op_name}.count"] = histogram.samples
            metrics[f"op.{op_name}.mean_ms"] = histogram.mean / 1000.0
            # Extrema are None until the first observation (snapshot
            # values must stay numeric, so empty reports 0.0).
            metrics[f"op.{op_name}.min_ms"] = (histogram.min or 0) / 1000.0
            metrics[f"op.{op_name}.max_ms"] = (histogram.max or 0) / 1000.0
            metrics[f"op.{op_name}.p50_ms"] = histogram.percentile(0.50) / 1000.0
            metrics[f"op.{op_name}.p95_ms"] = histogram.percentile(0.95) / 1000.0
            metrics[f"op.{op_name}.p99_ms"] = histogram.percentile(0.99) / 1000.0
        for counter in self.registry.counters():
            if counter.name.startswith("op.") and counter.name.endswith(".errors"):
                metrics[counter.name] = counter.value
        return metrics


def deployment_report(fs) -> str:
    """One text block summarising an H2Cloud deployment's health."""
    lines = ["== H2Cloud deployment report =="]
    count, nbytes = fs.store.census()
    lines.append(
        f"objects: {count}  logical bytes: {nbytes:,}  "
        f"accounts: {sorted(fs.store.accounts)}"
    )
    for mw in fs.middlewares:
        metrics = mw.monitor.snapshot()
        lines.append(
            f"middleware {mw.node_id}: "
            f"fd-cache {int(metrics['fd_cache.size'])} entries "
            f"(hit rate {metrics['fd_cache.hit_rate']:.0%}), "
            f"{int(metrics['maintenance.patches_submitted'])} patches, "
            f"{int(metrics['maintenance.merges'])} merges"
        )
        ops = [
            (name, hist)
            for name, hist in sorted(mw.monitor.ops.items())
            if hist.samples
        ]
        if ops:
            lines.append(
                "  ops: "
                + "  ".join(
                    f"{name} n={hist.samples} "
                    f"p50={hist.percentile(0.5) / 1000.0:.1f}ms "
                    f"p99={hist.percentile(0.99) / 1000.0:.1f}ms"
                    for name, hist in ops
                )
            )
    store = fs.store
    trips = sum(b.trips for b in store.breakers.values())
    degraded = sum(mw.degraded_serves for mw in fs.middlewares)
    lines.append(
        f"fault-tolerance: {store.resilience.retries} retries "
        f"({store.resilience.io_errors} io-errors, "
        f"{store.resilience.timeouts} timeouts masked), "
        f"{trips} breaker trips, {degraded} degraded serves, "
        f"{store.resilience.repaired_replicas} replicas repaired"
    )
    lines.append(
        f"integrity: {store.resilience.corrupt_replicas} corrupt replicas "
        f"detected, {store.resilience.read_repairs} read-repairs, "
        f"{store.resilience.scrub_repairs} scrub repairs, "
        f"{store.quarantined_replica_count} quarantined, "
        f"{len(store.unrecoverable)} unrecoverable"
    )
    for node_id, (replicas, used) in fs.cluster.storage_stats().items():
        lines.append(f"node {node_id}: {replicas} replicas, {used:,} B")
    return "\n".join(lines)
