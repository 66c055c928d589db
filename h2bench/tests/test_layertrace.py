"""The outside-in tracer: spans nest, self times add up, originals return."""

import h2bench.program  # noqa: F401  (loads the program)
from h2bench.layertrace import LAYER_NAMES, LayerTracer, self_times
from h2bench.program import Deployment
from repro.core.middleware import H2Middleware
from repro.simcloud import integrity


def test_spans_self_times_and_restore():
    original_read = H2Middleware.read_file
    original_crc = integrity.crc32c
    tracer = LayerTracer()
    tracer.install()
    try:
        assert H2Middleware.read_file is not original_read
        assert integrity.crc32c is not original_crc
        dep = Deployment(2, "a")
        tracer.bind(dep.clock, dep.store.ledger)
        tracer.on = True
        tracer.op = 0
        dep.mws[0].mkdir("a", "/d")
        dep.mws[0].write_file("a", "/d/f", b"hello")
        assert dep.mws[0].read_file("a", "/d/f") == b"hello"
        tracer.op = -1
        dep.drain()
        tracer.on = False
    finally:
        tracer.close()
    assert H2Middleware.read_file is original_read
    assert integrity.crc32c is original_crc
    layers = {LAYER_NAMES[s[2]] for s in tracer.spans}
    assert {"middleware", "lookup", "object_store", "integrity", "formatter", "gossip"} <= layers
    assert self_times(tracer.spans, len(LAYER_NAMES)) == tracer.self_ns
    assert tracer.counts["crc_bytes"] >= len(b"hello")
    assert tracer.counts["resolves"] == 2  # write and read; mkdir at the root resolves nothing
    assert tracer.stack == []
