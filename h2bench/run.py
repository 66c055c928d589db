#!/usr/bin/env python3
"""Run one H2Cloud benchmark workload and print its metrics.

    python3 h2bench/run.py --workload deep-read --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, with wall times stated
at reference host speed (``speed.py``).  ``--trace 1`` first runs the
same workload untraced in a child process (for the tracing overhead),
then a traced run with the same seed, without the speed probe, that
reports the per-layer metrics and writes its spans under
``h2bench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--ops N`` fixes the timed phase at N ops instead
of ``--seconds`` (the determinism test uses it); ``--setups`` is how
many times the deployment is built to time set-up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the printed, ungated timed-phase throughput in wall (not reference) time
WALL_RATE = "wall_ops_per_s"
sys.path.insert(0, str(ROOT))


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--setups", type=int, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or any(v is not None and v < 1 for v in (args.setups, args.ops)):
        parser.error("--seconds, --setups and --ops must be positive")
    return args


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def report(run, timed: dict) -> bool:
    """Print the run's summary and errors; returns correctness."""
    n = timed["ops"]
    print(
        f"{run.workload.name}: {n} ops in {timed['elapsed_s']:.2f} s "
        f"({timed['program_s']:.2f} s in the program), drain every "
        f"{run.workload.drain_every} ops, {run.workload.middlewares} middlewares"
    )
    print(f"{WALL_RATE} {n / timed['program_s']!r} 1/s (not gated)")
    counts = {c: len(v) for c, v in timed["sims"].items()}
    print("samples " + " ".join(f"{c}={k}" for c, k in counts.items()))
    print(f"failed_op_ratio {run.failed / max(1, n)} ratio")
    for message in run.failures + run.checker.errors:
        print("ERROR " + message.rstrip(), file=sys.stderr)
    correct = run.failed == 0 and run.checker.error_count == 0
    if not correct:
        print(
            f"INCORRECT: {run.failed} failed ops, {run.checker.error_count} check errors",
            file=sys.stderr,
        )
    return correct


def untraced(args) -> str:
    from h2bench.harness import Run, end_to_end, wall_percentiles
    from h2bench.speed import SpeedProbe

    probe = SpeedProbe()
    run = Run(args.workload, args.seed, setups=args.setups, probe=probe)
    probe.start()
    try:
        setup_s = run.setup()
        run.warmup()
        timed = run.timed(args.seconds, args.ops)
    finally:
        probe.stop()
    print(
        f"host speed: reference kernel sampled {len(probe.samples)} times; "
        f"timed-phase wall time x {timed['speed']:.4f} = time at reference speed"
    )
    final = run.finish()
    metrics = end_to_end(timed, setup_s, final)
    correct = report(run, timed)
    print(final["fsck"])
    for name, value in wall_percentiles(timed).items():
        print(f"{name} {value!r} us (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return result_line(correct, timed["ops"], run.failed, metrics)


def traced(args) -> str:
    from h2bench.harness import Run
    from h2bench.layertrace import LAYER_NAMES, LayerTracer, per_layer

    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--setups", "1",
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"h2bench: untraced run exited with {child.returncode}")
    lines = child.stdout.strip().splitlines()
    baseline = json.loads(lines[-1])
    baseline_rate = next(float(ln.split()[1]) for ln in lines if ln.startswith(WALL_RATE + " "))

    tracer = LayerTracer()
    tracer.install()
    try:
        run = Run(args.workload, args.seed, setups=1, tracer=tracer)
        run.setup()
        run.warmup()
        timed = run.timed(args.seconds, args.ops, floor=False)
        at_timed_end = tracer.totals()
        final = run.finish()
        at_end = tracer.totals()
    finally:
        tracer.close()
    out_dir = ROOT / "h2bench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)

    correct = report(run, timed) and baseline["correct"]
    overhead = baseline_rate / (timed["ops"] / timed["program_s"])
    metrics = per_layer(timed, at_timed_end, at_end, final, overhead)
    program_ns = timed["program_s"] * 1e9
    print(f"spans {len(tracer.spans)} (dropped {tracer.dropped}) written to {spans_path}")
    print("self time per layer in the timed phase (share of time in the program):")
    for layer in sorted(LAYER_NAMES, key=lambda name: -at_timed_end["self_ns"][name]):
        ns = at_timed_end["self_ns"][layer]
        print(f"  {layer:<13} {ns / 1e3 / timed['ops']:10.1f} us/op {100 * ns / program_ns:6.1f} %")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return result_line(correct, timed["ops"], run.failed, metrics)


def main(argv=None) -> int:
    args = parse(argv)
    from h2bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"h2bench: unknown workload {args.workload!r}; try {sorted(WORKLOADS)}")
    line = traced(args) if args.trace else untraced(args)
    sys.stdout.flush()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
