"""Timings scaled by the speed of a fixed reference computation.

The machines this benchmark runs on share their cores. Over tens of seconds
the same pqgen call takes anywhere from 1.0x to 1.8x its fastest time, and
the medians of 20-second stretches of the same work differ by up to 45%.
A fixed computation of the same kind (small numpy ops driven from the
interpreter, plus pure-Python dict work) slows down with it. So while a
`Clock` runs, a timer signal interrupts the benchmark every SAMPLE_EVERY_S and
times that reference computation, and each stretch of work between two
samples is scaled by REF_S over the samples' mean duration. A scaled figure
reads as the time the work would take on a machine where the reference takes
REF_S. Sample time itself is taken out of every figure, scaled or raw.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

REF_S = 0.0013          # the reference's fastest time on the 2.1 GHz Xeon of README.md
SAMPLE_EVERY_S = 0.05

_rng = np.random.default_rng(12345)
_A = _rng.normal(size=(12, 32))
_B = _rng.normal(size=(32, 32)) / 6.0
_ROW = _rng.normal(size=256)


def reference() -> None:
    """The reference computation: a chain of small numpy ops, and sorts keyed
    on numpy scalars, the two idioms pqgen's own time goes to."""
    x = _A
    for _ in range(50):
        y = x @ _B
        y = y - y.mean(axis=-1, keepdims=True)
        e = np.exp(y - y.max(axis=1, keepdims=True))
        x = e / e.sum(axis=1, keepdims=True)
    for _ in range(6):
        sorted(range(len(_ROW)), key=lambda v: (-_ROW[v], v))


class Clock:
    """Maps perf_counter timestamps taken while it ran to scaled and to raw
    work time; both leave out the time spent in samples."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def sample(self, *_):
        if self._busy:          # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.ends.append(perf_counter())
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _timeline(self, scaled: bool):
        s, e = np.array(self.starts), np.array(self.ends)
        d = e - s
        # The work between samples k-1 and k runs at the mean speed of both.
        rate = REF_S / ((d[:-1] + d[1:]) / 2.0) if scaled else np.ones(len(d) - 1)
        work = (s[1:] - e[:-1]) * rate
        acc = np.concatenate([[0.0], np.cumsum(work)])
        times = np.empty(2 * len(s))
        times[0::2], times[1::2] = s, e
        return times, np.repeat(acc, 2)

    def scaled(self, t) -> np.ndarray:
        """Scaled work time elapsed from the first sample to each timestamp."""
        return np.interp(np.asarray(t, dtype=np.float64), *self._timeline(True))

    def raw(self, t) -> np.ndarray:
        """Unscaled work time elapsed from the first sample to each timestamp."""
        return np.interp(np.asarray(t, dtype=np.float64), *self._timeline(False))

    def durations(self, spans, scaled: bool = True) -> np.ndarray:
        """Work time of each (start, end) pair."""
        ts = np.asarray(spans, dtype=np.float64).reshape(-1, 2)
        f = self.scaled if scaled else self.raw
        return f(ts[:, 1]) - f(ts[:, 0])
