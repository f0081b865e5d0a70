"""A fixed pure-Python job, timed between measurements to follow the speed
of the machine.

On a shared machine the same chart can take up to twice as long from one
minute to the next, because other tenants load the cores. The job does the
kind of work a chart does (frozen-dataclass copies, float formatting,
string joins), so it slows down alike. The benchmark runs the job before
every chart and reports times at reference speed: measured value x
REFERENCE_MS / job time (run.py's at_reference_speed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

# Job time on an unloaded core of the machine the bounds were set on; a
# scale only, the same on every commit.
REFERENCE_MS = 2.2


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def job_ms() -> float:
    t0 = time.perf_counter_ns()
    point = _Point(0.0, 0.0)
    parts = []
    for i in range(800):
        point = replace(point, x=min(max(i * 0.731, 0.0), 999.0), y=i * 1.37)
        parts.append(f'<circle cx="{point.x:.2f}" cy="{point.y:.2f}"/>')
    "\n".join(parts)
    return (time.perf_counter_ns() - t0) / 1e6
