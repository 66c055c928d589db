"""Host-speed probe: wall times stated at a fixed reference speed.

On a shared cloud host the speed of a core is not constant: the same
pure-Python loop takes 1.5-2x longer in some seconds than in others,
and the level changes every second or so.  A wall time measured over
a run then carries the host's speed over that run as much as the
program's cost.

``SpeedProbe`` samples the host's speed while the program runs: a
``SIGALRM`` timer runs a fixed reference kernel every ``interval_s``
seconds of wall time while the caller has set ``counting`` (that is,
while the program runs).  The kernel's work never changes, so its
duration tracks the host's speed.  A span of wall time ``w`` during
which the kernel took ``d1 .. dn`` is stated at reference speed as
``w * mean(REF_NS / di)``: the time it would have taken on a host on
which the kernel takes ``REF_NS``.  The probe's own time is counted
in ``spent_ns``, so callers take it out of what they time.

The kernel does two things the program spends its time on: a
byte-table checksum loop (CRC-32C, all in cache) and lookups of
random string keys in a 200 000-entry dict (about 27 MB, beyond the
per-core cache, like the program's heap).  Of the kernels tried, these
two tracked the program's speed best from run to run; string
formatting and small-object allocation tracked it worst.  The dict
adds about 27 MB to the process's resident set.  The kernel
allocates nothing the cyclic collector tracks.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter_ns

#: kernel duration that defines reference speed (about its median on
#: the 2-vCPU cloud VM the benchmark was tuned on)
REF_NS = 450_000

_POLY = 0x82F63B78
_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ _POLY if _c & 1 else _c >> 1
    _TABLE.append(_c)
_TABLE = tuple(_TABLE)
_BYTES = bytes((i * 73 + 11) & 0xFF for i in range(384))
_WORDS: dict[str, int] = {}
_KEYS: list[str] = []
_PICKS: list[int] = []


def _build() -> None:
    if not _WORDS:
        _WORDS.update((f"key{i:07d}", i) for i in range(200_000))
        _KEYS.extend(_WORDS)
        rng = random.Random(5)
        _PICKS.extend(rng.randrange(len(_KEYS)) for _ in range(300))


def kernel() -> int:
    """The fixed reference work; returns a checksum so it is not idle."""
    crc = 0xFFFFFFFF
    table = _TABLE
    for byte in _BYTES:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    words, keys = _WORDS, _KEYS
    acc = 0
    for j in _PICKS:
        acc += words[keys[j]]
    return crc ^ acc


class SpeedProbe:
    """Runs :func:`kernel` on a wall-clock timer and keeps its durations."""

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.samples: list[int] = []  # kernel durations, ns
        self.spent_ns = 0  # all time spent in the handler
        self.counting = False  # sample only while the program runs
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if not self.counting:
            return
        t0 = perf_counter_ns()
        kernel()
        d = perf_counter_ns() - t0
        self.samples.append(d)
        self.spent_ns += perf_counter_ns() - t0

    def start(self) -> None:
        _build()
        kernel()  # warm the kernel's code and data before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """A position in the samples, for :meth:`factor` later."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Mean reference-over-measured speed of the samples since a mark.

        Multiplying a wall time by it states the time at reference
        speed.  Every interval between samples is the same length of
        wall time, so the plain mean weights each moment of the
        program's run equally.
        """
        recent = self.samples[since:]
        if not recent:
            raise RuntimeError("no speed sample in the span; it is shorter than the interval")
        return sum(REF_NS / d for d in recent) / len(recent)
