"""Machine-speed sampler: the yardstick that reported times are scaled by.

On a shared machine the speed of a CPU changes by tens of percent from
one tenth of a second to the next, as other tenants' load comes and goes,
so raw wall times of identical runs spread too widely to compare two
commits. The run therefore times a small reference task, owned by the
benchmark and independent of ``shortbasket``, from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time while a timed block runs. The samples
taken inside a block say how fast the machine was during that very block.
A block's time is its wall time minus the time spent in the handler,
scaled by ``NOMINAL_S / trimmed mean(samples in the block)``: it reads as
it would on a machine that runs the reference task in ``NOMINAL_S``.

The trimmed mean drops the samples that a pause of the whole process
stretched to many times their usual length. The task mixes what the
program spends its time on: CSV parsing, float parsing and ``repr``,
validated frozen dataclasses, dict grouping and exact summation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

NOMINAL_S = 0.0025
INTERVAL_S = 0.05
TRIM = 0.1  # share of samples dropped at each end before averaging


@dataclass(frozen=True)
class _Record:
    key: str
    x: float
    y: float

    def __post_init__(self) -> None:
        if self.x < 0 or self.y < 0:
            raise ValueError("negative value")


_LINES = "\n".join(f"K{i % 97},{(i * 7919) % 10007 / 13.0!r},{(i * 104729) % 1009 / 7.0!r}" for i in range(400))


def reference_task() -> int:
    records = [_Record(key, float(x), float(y)) for key, x, y in csv.reader(io.StringIO(_LINES))]
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.key, []).append(r.x * r.y)
    total = math.fsum(math.fsum(v) / len(v) for v in groups.values())
    buf = io.StringIO()
    csv.writer(buf).writerows([r.key, repr(r.x), repr(r.y), repr(total)] for r in records)
    return len(buf.getvalue())


def trimmed_mean(values: list[float]) -> float:
    cut = int(TRIM * len(values))
    return statistics.fmean(sorted(values)[cut: len(values) - cut])


@dataclass
class Block:
    """One timed block: wall seconds net of sampling, and the samples taken in it."""

    wall_s: float = 0.0
    samples: list[float] = field(default_factory=list)

    def scaled_s(self, fallback_reference_s: float) -> float:
        """Reference-scaled seconds; a block too short to be sampled uses the fallback."""
        reference_s = trimmed_mean(self.samples) if self.samples else fallback_reference_s
        return self.wall_s * NOMINAL_S / reference_s


class Sampler:
    """Samples the reference task inside timed blocks. Create it once, on the main thread."""

    def __init__(self) -> None:
        self._taken: list[tuple[float, float]] = []  # (start, seconds) of every sample
        self.samples: list[float] = []  # the samples taken inside blocks
        self._busy = False
        # Installed for the whole run: a signal still pending when a block
        # disarms the timer must find this handler, not the default one,
        # which would end the process.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        # A sample that outlasts the interval would otherwise be interrupted
        # by the next one, and the inner sample's time counted twice.
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        reference_task()
        self._taken.append((start, perf_counter() - start))
        self._busy = False

    @contextlib.contextmanager
    def timed(self, sample: bool = True, since: float | None = None) -> Iterator[Block]:
        """Time the ``with`` body (from ``since``, if given), sampling unless ``sample`` is false.

        A sample counts for the block, and its time is taken out of the
        block's wall time, exactly when it starts inside the block.
        """
        block = Block()
        first = len(self._taken)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = perf_counter() if since is None else since
        try:
            yield block
        finally:
            end = perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            block.samples = [s for t, s in self._taken[first:] if start <= t < end]
            block.wall_s = end - start - math.fsum(block.samples)
            self.samples += block.samples

    def reference_s(self) -> float:
        """The run's reference time: trimmed mean of every sample taken in a block."""
        return trimmed_mean(self.samples)
