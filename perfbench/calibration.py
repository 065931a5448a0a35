"""A fixed reference task that gauges the machine's speed during a run.

The machine the benchmark was written on shares its host, and its speed
for pure-Python code drifts by 30% or more between stretches of a minute
or more (see ``perfbench/README.md``, "Machine speed").  Each run times
this task a few times before every round, and ``run.py`` scales the
run's timings by ``REF_MS`` over the task's best time in that run.  The
task is pure Python and uses none of the program's code, so a change to
the program cannot change it.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import List, Tuple

#: the task's best time (ms) on a fast stretch of that machine; timings
#: are reported as they would read when the task takes this long
REF_MS = 3.5
#: timings of the task before each round; the best one counts
REPS = 5


def _task() -> List[Tuple[str, int]]:
    """Generate text, count its words and rank them: string building,
    dict updates and sorting, the interpreter work the program does
    most."""
    rng = random.Random(0)
    text = " ".join(f"w{rng.randrange(400)}" for _ in range(6000))
    counts: dict = {}
    for word in text.split():
        counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(w, n) for w, n in ranked if n > 1]


def measure() -> float:
    """The task's best time (ms) over ``REPS`` back-to-back runs."""
    best = float("inf")
    for _ in range(REPS):
        t0 = perf_counter()
        _task()
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def scale(calib_ms: List[float]) -> float:
    """The factor that turns a run's timings into reference-speed
    timings: ``REF_MS`` over the task's best time in the run."""
    return REF_MS / min(calib_ms)
