"""Outside-in per-layer tracing of the program's modules.

For the traced run, :class:`LayerTracer` wraps the public functions of
each layer's module (module-level functions and the public methods of
its classes) and puts the originals back when it is closed; the
program's sources stay unchanged.  A call records a span when it
crosses into another layer -- a call into the layer that is already
innermost is part of that span.  Each span keeps its layer, wall start
and end, parent span and op id; spans are kept in memory and written
out at the end of the run.

A layer's self time is the span's duration minus what its child spans
cover.  Work handed to another layer as a callable (``SimClock.
run_isolated``, ``ObjectStore.parallel``, ``Monitor.timed``, ...) is
charged back to the layer that defined the callable, so a merge run
through ``H2Middleware.background`` counts as merger time.

The wrappers also count a few things where the work happens (bytes
checksummed, encodes and decodes, ring merges, path resolutions, hash
ring lookups, clock advances, useful gossip deliveries) and the
simulated time spent inside each layer: the foreground clock's advance
plus the background time the ledger books.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter_ns

#: layer -> (module, classes whose public methods belong to the layer,
#: whether the module's public functions belong to it too)
LAYERS: dict[str, list[tuple[str, tuple[str, ...], bool]]] = {
    "middleware": [("repro.core.middleware", ("H2Middleware",), False)],
    "lookup": [("repro.core.lookup", ("H2Lookup",), False)],
    "descriptor": [("repro.core.descriptor", ("FileDescriptorCache",), False)],
    "formatter": [("repro.core.formatter", (), True)],
    "namering": [("repro.core.namering", ("NameRing", "Child"), True)],
    "merger": [("repro.core.merger", ("BackgroundMerger",), False)],
    "gossip": [("repro.core.gossip", ("GossipNetwork",), False)],
    "gc": [("repro.core.gc", ("GarbageCollector",), True)],
    "object_store": [("repro.simcloud.object_store", ("ObjectStore",), False)],
    "integrity": [("repro.simcloud.integrity", (), True)],
    "hashring": [("repro.simcloud.hashring", ("HashRing",), True)],
    "node": [("repro.simcloud.node", ("StorageNode",), False)],
    "clock": [("repro.simcloud.clock", ("SimClock", "TimestampFactory"), True)],
    "obs": [
        ("repro.obs.metrics", ("Counter", "Gauge", "Histogram", "MetricsRegistry"), True),
        ("repro.core.monitoring", ("Monitor.timed",), False),
    ],
}
LAYER_NAMES = list(LAYERS)

#: functions that receive callables run on the caller's behalf
_THUNK_TAKERS = {
    ("SimClock", "measure"),
    ("SimClock", "run_isolated"),
    ("SimClock", "parallel"),
    ("ObjectStore", "parallel"),
    ("Monitor", "timed"),
}

# frame slots of an open span
_LAYER, _ID, _START, _CHILD = range(4)


class LayerTracer:
    """Installs the wrappers; accumulates spans, self times and counts."""

    def __init__(self, max_spans: int = 3_000_000):
        self.on = False
        self.op = -1
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.max_spans = max_spans
        n = len(LAYER_NAMES)
        self.self_ns = [0] * n
        self.sim_us = [0] * n
        self.depth = [0] * n
        self.counts: dict[str, int] = {}
        self.fg_store_sim_us = 0
        self.bg_depth = 0
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._layer_of_file: dict[str, int] = {}
        self._clock = None
        self._ledger = None

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def install(self) -> None:
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, entries in LAYERS.items():
            idx = LAYER_NAMES.index(layer)
            for module_name, classes, functions in entries:
                module = sys.modules[module_name]
                if functions:
                    self._layer_of_file[module.__file__] = idx
                    for name, fn in vars(module).copy().items():
                        if (
                            inspect.isfunction(fn)
                            and not name.startswith("_")
                            and fn.__module__ == module_name
                        ):
                            replaced[id(fn)] = self._wrap(idx, name, fn, None)
                for spec in classes:
                    cls_name, _, only = spec.partition(".")
                    cls = getattr(module, cls_name)
                    if not only:
                        self._layer_of_file[module.__file__] = idx
                    for name, fn in list(vars(cls).items()):
                        if only and name != only:
                            continue
                        if not inspect.isfunction(fn) or name.startswith("_"):
                            continue
                        wrapper = self._wrap(idx, name, fn, cls_name)
                        self._restore.append((cls, name, fn))
                        setattr(cls, name, wrapper)
        # Module-level functions may be bound under their name in other
        # modules too (``from .integrity import crc32c``): replace every
        # binding of the same function object.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in vars(module).copy().items():
                wrapper = replaced.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)

    def close(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.on = False

    def bind(self, clock, ledger) -> None:
        """The deployment whose simulated time spans should read."""
        self._clock, self._ledger = clock, ledger

    def _sim(self) -> int:
        return self._clock.now_us + self._ledger.background_us

    # ------------------------------------------------------------------
    # the wrapper
    # ------------------------------------------------------------------
    def _wrap(self, layer: int, name: str, fn, cls_name: str | None):
        hook = _HOOKS.get((cls_name, name))
        takes_thunks = (cls_name, name) in _THUNK_TAKERS
        is_store = LAYER_NAMES[layer] == "object_store"
        is_background = cls_name == "H2Middleware" and name == "background"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if is_background:
                tracer.bg_depth += 1
            try:
                stack = tracer.stack
                if stack and stack[-1][_LAYER] == layer:
                    result = fn(*args, **kwargs)
                else:
                    if takes_thunks:
                        args = tracer._charge_thunks(args)
                    result = tracer.enter(layer, fn, args, kwargs, is_store)
            finally:
                if is_background:
                    tracer.bg_depth -= 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def enter(self, layer: int, fn, args, kwargs, is_store: bool = False):
        """Run ``fn`` inside a new span of ``layer``."""
        stack = self.stack
        parent = stack[-1][_ID] if stack else -1
        self._next_id += 1
        sid = self._next_id
        sim0 = self._sim()
        now0 = self._clock.now_us
        self.depth[layer] += 1
        frame = [layer, sid, perf_counter_ns(), 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.depth[layer] -= 1
            duration = end - frame[_START]
            self.self_ns[layer] += duration - frame[_CHILD]
            if stack:
                stack[-1][_CHILD] += duration
            sim = self._sim() - sim0
            if self.depth[layer] == 0:
                self.sim_us[layer] += sim
                if is_store and self.bg_depth == 0 and self.op >= 0:
                    self.fg_store_sim_us += self._clock.now_us - now0
            if len(self.spans) < self.max_spans:
                self.spans.append((sid, parent, layer, frame[_START], end, self.op, sim))
            else:
                self.dropped += 1

    def _charge_thunks(self, args):
        """Re-wrap callables so they run as their defining layer."""
        out = []
        for arg in args:
            if callable(arg) and (hasattr(arg, "__code__") or hasattr(arg, "__func__")):
                out.append(self._as_layer(arg))
            elif isinstance(arg, (list, tuple)) and arg and all(callable(a) for a in arg):
                out.append([self._as_layer(a) for a in arg])
            else:
                out.append(arg)
        return tuple(out)

    def _as_layer(self, thunk):
        code = getattr(thunk, "__code__", None) or thunk.__func__.__code__
        layer = self._layer_of_file.get(code.co_filename)
        if layer is None:
            return thunk

        def run(*a, **k):
            stack = self.stack
            if stack and stack[-1][_LAYER] == layer:
                return thunk(*a, **k)
            return self.enter(layer, thunk, a, k)

        return run

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Accumulated self time, simulated time and counts so far."""
        return {
            "self_ns": dict(zip(LAYER_NAMES, self.self_ns)),
            "sim_us": dict(zip(LAYER_NAMES, self.sim_us)),
            "counts": dict(self.counts),
            "fg_store_sim_us": self.fg_store_sim_us,
        }

    def write(self, path) -> None:
        """Write every recorded span: [id, parent, layer, start_ns,
        end_ns, op, sim_us]; op -1 is a drain, -2 the final GC."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            json.dump(
                {"layers": LAYER_NAMES, "dropped": self.dropped, "spans": self.spans},
                out,
                separators=(",", ":"),
            )


def self_times(spans: list, layers: int) -> list[int]:
    """Per-layer self time recomputed from written spans alone."""
    child = {}
    for sid, parent, _layer, start, end, _op, _sim in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (end - start)
    out = [0] * layers
    for sid, _parent, layer, start, end, _op, _sim in spans:
        out[layer] += (end - start) - child.get(sid, 0)
    return out


# ----------------------------------------------------------------------
# counts taken at the wrappers (every call, not only span openers)
# ----------------------------------------------------------------------
def _add(counts: dict, key: str, amount: int = 1) -> None:
    counts[key] = counts.get(key, 0) + amount


def _crc(counts, args, result):
    _add(counts, "crc_bytes", len(args[0]))


def _encode(counts, args, result):
    _add(counts, "encodes")
    _add(counts, "bytes_encoded", len(result))


def _decode(counts, args, result):
    _add(counts, "decodes")
    _add(counts, "bytes_decoded", len(args[0]))


def _merge(counts, args, result):
    _add(counts, "ring_merges")
    _add(counts, "entries_merged", len(args[1].children))


def _resolve(counts, args, result):
    _add(counts, "resolves")
    _add(counts, "levels", len(result.ns_chain) - 1 + (result.child is not None))


def _hashring(counts, args, result):
    _add(counts, "hashring_lookups")


def _advance(counts, args, result):
    _add(counts, "clock_advances")


def _gossip(counts, args, result):
    _add(counts, "gossip_useful", bool(result))


# Base encoders/decoders only: the patch and shard spellings call
# dumps_ring/loads_ring themselves and would count twice.
_HOOKS = {
    (None, "crc32c"): _crc,
    (None, "dumps_ring"): _encode,
    (None, "dumps_manifest"): _encode,
    (None, "dumps_directory"): _encode,
    (None, "loads_ring"): _decode,
    (None, "loads_manifest"): _decode,
    (None, "loads_directory"): _decode,
    ("NameRing", "merge_changes"): _merge,
    ("H2Lookup", "resolve"): _resolve,
    ("HashRing", "nodes_for"): _hashring,
    ("HashRing", "primary_for"): _hashring,
    ("HashRing", "fallbacks_for"): _hashring,
    ("SimClock", "advance"): _advance,
    ("H2Middleware", "on_gossip"): _gossip,
}


def per_layer(timed: dict, at_timed_end: dict, at_end: dict, final: dict, overhead: float) -> dict:
    """The per-layer metrics of a traced run, as {name: (value, unit)}.

    Counts and times cover the timed phase (client ops and drains) and
    are divided by its op count; the gc metrics cover the final GC.
    """
    n = timed["ops"]
    delta = timed["delta"]
    counts = at_timed_end["counts"]
    self_ns = at_timed_end["self_ns"]
    sim_us = at_timed_end["sim_us"]

    def count(key: str) -> float:
        return counts.get(key, 0) / n

    def self_us(layer: str) -> float:
        return self_ns[layer] / 1e3 / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    resolves = counts.get("resolves", 0)
    hits, misses = delta["hits"], delta["misses"]
    m = {
        "integrity.bytes_checksummed_per_op": (count("crc_bytes"), "B"),
        "integrity.self_us_per_op": (self_us("integrity"), "us"),
        "formatter.encodes_per_op": (count("encodes"), "count"),
        "formatter.decodes_per_op": (count("decodes"), "count"),
        "formatter.bytes_encoded_per_op": (count("bytes_encoded"), "B"),
        "formatter.bytes_decoded_per_op": (count("bytes_decoded"), "B"),
        "formatter.self_us_per_op": (self_us("formatter"), "us"),
        "namering.merges_per_op": (count("ring_merges"), "count"),
        "namering.entries_merged_per_op": (count("entries_merged"), "count"),
        "namering.self_us_per_op": (self_us("namering"), "us"),
        "lookup.resolves_per_op": (count("resolves"), "count"),
        "lookup.levels_per_resolve": (ratio(counts.get("levels", 0), resolves), "count"),
        "lookup.sim_ms_per_resolve": (ratio(sim_us["lookup"] / 1e3, resolves), "ms"),
        "lookup.self_us_per_op": (self_us("lookup"), "us"),
        "descriptor.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "descriptor.misses_per_op": (misses / n, "count"),
        "descriptor.evictions_per_op": (delta["evictions"] / n, "count"),
        "merger.merges_per_op": (delta["merges"] / n, "count"),
        "merger.patches_per_merge": (ratio(delta["patches_applied"], delta["merges"]), "count"),
        "merger.sim_ms_per_op": (sim_us["merger"] / 1e3 / n, "ms"),
        "merger.self_us_per_op": (self_us("merger"), "us"),
        "gossip.rumors_sent_per_op": (delta["rumors_sent"] / n, "count"),
        "gossip.rumors_delivered_per_op": (delta["rumors_delivered"] / n, "count"),
        "gossip.useful_ratio": (
            ratio(counts.get("gossip_useful", 0), delta["rumors_delivered"]),
            "ratio",
        ),
        "gossip.sim_ms_per_op": (sim_us["gossip"] / 1e3 / n, "ms"),
        "gossip.self_us_per_op": (self_us("gossip"), "us"),
    }
    for kind in ("gets", "puts", "heads", "deletes", "copies"):
        m[f"object_store.{kind}_per_op"] = (delta[kind] / n, "count")
    m["object_store.bytes_in_per_op"] = (delta["bytes_in"] / n, "B")
    m["object_store.bytes_out_per_op"] = (delta["bytes_out"] / n, "B")
    m["object_store.fg_sim_ms_per_op"] = (at_timed_end["fg_store_sim_us"] / 1e3 / n, "ms")
    m["object_store.self_us_per_op"] = (self_us("object_store"), "us")
    m["node.replica_reads_per_op"] = (delta["replica_reads"] / n, "count")
    m["node.replica_writes_per_op"] = (delta["replica_writes"] / n, "count")
    m["hashring.lookups_per_op"] = (count("hashring_lookups"), "count")
    m["hashring.self_us_per_op"] = (self_us("hashring"), "us")
    m["clock.advances_per_op"] = (count("clock_advances"), "count")
    m["clock.self_us_per_op"] = (self_us("clock"), "us")
    m["obs.self_us_per_op"] = (self_us("obs"), "us")
    m["middleware.self_us_per_op"] = (self_us("middleware"), "us")
    m["gc.objects_swept"] = (float(final["gc_swept"]), "count")
    m["gc.self_ms"] = ((at_end["self_ns"]["gc"] - self_ns["gc"]) / 1e6, "ms")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return {k: (float(v), u) for k, (v, u) in m.items()}
