"""Timing at reference speed: a fixed loop measures how fast the machine is now.

On a shared host the CPU speed one process gets swings by up to 2x over tens
of seconds, and the swings last longer than a run, so raw wall times from two
sets of runs of the same code disagree by more than any useful bound.  Every
timed section is therefore bracketed by a fixed pure-Python loop, and a
section that took ``t`` seconds while the loop took ``t_ref`` is reported as
``t * T_REF / t_ref``: its time at the speed where the loop takes ``T_REF``.
The loop uses nothing from ``dta``, so a change to the program moves the
scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import gc
import statistics
import time
from hashlib import blake2b

# The loop's time on the 2-core shared VM the README's figures come from, when
# unloaded; it only sets the scale, so scaled figures read as seconds there.
T_REF = 0.0065


def _loop() -> int:
    table = {}
    acc = 0
    for i in range(6000):
        key = i.to_bytes(8, "big")
        table[key] = blake2b(key, digest_size=8).digest()
        acc += int.from_bytes(table[key][:4], "little") % 7
    pairs = [(i, str(i)) for i in range(6000)]
    return acc + len(pairs)


def _samples(n: int) -> list[float]:
    """``n`` timings of the loop, with the collector off: the loop's time must
    not depend on how much the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for _ in range(n):
            start = time.perf_counter()
            _loop()
            out.append(time.perf_counter() - start)
        return out
    finally:
        if enabled:
            gc.enable()


def reference_seconds() -> float:
    """The loop's current time: median of five timings."""
    return statistics.median(_samples(5))


def timed(fn, *args, **kwargs):
    """Run ``fn`` once: (result, its seconds at reference speed).

    The loop's time is the median of three timings before the call and three
    after; the median follows the machine's typical speed across the call
    better than the fastest timing does.
    """
    before = _samples(3)
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    ref = statistics.median(before + _samples(3))
    return result, seconds * T_REF / ref
