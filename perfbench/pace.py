"""Wall time rescaled to a fixed host speed, from probes taken during the work.

The benchmark runs on CPUs shared with other tenants.  Their load slows this
process by up to a factor of two, in phases that last from a second to
minutes, whatever the process itself is doing.  Medians over a 30 s run do
not average that out, so the plain wall time of the same code spreads by 20 %
or more between runs.

A ``Pacer`` interrupts the process every ``INTERVAL_S`` with ``SIGALRM`` and
times one of two fixed probes, in turn:

* ``memory``: a memchr over an 8 MB buffer, more than the per-core caches
  hold; its speed follows the load on the shared cache and memory, which
  bounds the wide-grid numpy work
* ``compute``: a short pure-Python loop; its speed follows the load on the
  core, which bounds interpreter-heavy work

Each probe runs once untimed and once timed, so that what the program left
in the caches does not change its time.  A span of work is reported as

* ``wall_s``: its wall time, less the time spent in probes
* ``speed``: the geometric mean over the two probes of
  ``REFERENCE_S[probe] / mean(probe times)``
* ``scaled_s``: ``wall_s * speed``, the wall time the span would have taken
  on a host where the probes run in ``REFERENCE_S``

The probes cost about 2 % of the work they interrupt.  A Python signal handler
runs between bytecodes, so a long call into compiled code delays the next
probe; both probes are also taken at each end of a span, so a span always has
samples of both.  The probes need only the standard library (no ``math`` or
``statistics`` either), so a set-up span can time the import of numpy and
everything else.  The probe buffer is resident for the whole process;
``PROBE_BYTES`` is taken off the peak resident set that the benchmark reports.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
PROBE_BYTES = 8 * 1024 * 1024
# typical probe times inside a pass on the baseline host (README.md, "Host speed")
REFERENCE_S = {"memory": 0.0008, "compute": 0.0002}

# written out, not bytes(n): untouched zero pages would all map one page
_BUFFER = b"\x02" * PROBE_BYTES


def _memory() -> int:
    return _BUFFER.find(b"\x01")  # not there, so every byte is read


_SLOTS = [0.0] * 64


def _compute() -> float:
    total = 0.0
    for i in range(800):  # allocates no object the garbage collector tracks
        _SLOTS[i & 63] = total
        total += (i + 1.0) ** 0.5 * 0.5 + _SLOTS[(i + 7) & 63] * 1e-9
    return total


PROBES = {"memory": _memory, "compute": _compute}


class Pacer:
    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in PROBES}
        self.spent = 0.0  # seconds inside probes, timed and untimed
        self._ticks = 0

    def _take(self, name: str) -> None:
        run = PROBES[name]
        t0 = time.perf_counter()
        run()
        t1 = time.perf_counter()
        run()
        t2 = time.perf_counter()
        self.samples[name].append(t2 - t1)
        self.spent += t2 - t0

    def _tick(self, *_) -> None:
        self._ticks += 1
        self._take("memory" if self._ticks % 2 else "compute")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> tuple[float, dict[str, int], float]:
        for name in PROBES:
            self._take(name)
        first = {name: len(s) - 1 for name, s in self.samples.items()}
        return time.perf_counter(), first, self.spent

    def end(self, mark: tuple[float, dict[str, int], float]) -> dict:
        """``wall_s``, ``speed``, ``scaled_s``, mean ``probe_s`` and probe count since ``begin``."""
        t0, first, spent0 = mark
        for name in PROBES:
            self._take(name)
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        means, probes = {}, 0
        for name, samples in self.samples.items():
            taken = samples[first[name]:]
            means[name] = sum(taken) / len(taken)
            probes += len(taken)
        speed = 1.0
        for name, mean in means.items():
            speed *= REFERENCE_S[name] / mean
        speed **= 1.0 / len(PROBES)
        return {"wall_s": wall, "speed": speed, "scaled_s": wall * speed, "probe_s": means, "probes": probes}
