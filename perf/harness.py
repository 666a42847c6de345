"""Timing primitives shared by the benchmark: the timed window, robust
summaries, memory high-water marks, provenance, and span self-times.

Nothing here imports ``repro`` at module level, so ``run.py`` can import
it before pinning the BLAS thread environment and adding ``src/`` to the
path.
"""

from __future__ import annotations

import datetime
import gc
import json
import os
import pathlib
import platform
import resource
import subprocess
import time
from statistics import median
from typing import Callable, Dict, Iterable, List, Sequence

#: Set to "1" before numpy is imported; forked workers inherit them.
#: Measured on this 2-vCPU box (tuned backend, N=512): OpenBLAS at its
#: default thread count gave 221 steps/s and p95 73 ms, one thread 531
#: steps/s and p95 18 ms — two BLAS threads fight the driver for cores.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

def pin_threads() -> None:
    for var in THREAD_ENV:
        os.environ[var] = "1"


def quantile(ordered: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile of a non-empty *sorted* sample."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_calls(fn: Callable[[], object], calls: int) -> List[float]:
    """Wall seconds of ``calls`` consecutive ``fn()`` calls, GC off."""
    out = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(calls):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return out


def median_ms(fn: Callable[[], object], calls: int) -> float:
    return median(timed_calls(fn, calls)) * 1e3


def median_us(fn: Callable[[], object], calls: int) -> float:
    return median(timed_calls(fn, calls)) * 1e6


#: A segment is *quiet* when the host probe read at both of its ends is
#: within this factor of the quietest reading of the run.  The probe reads
#: within 10-15 % of its own minimum while the shared host is undisturbed and
#: 35-65 % above it while a neighbour disturbs the host (README, *Harness
#: rules*), so 1.15 separates the two.
QUIET_FACTOR = 1.15
#: Below this many quiet segments the run had no quiet state to speak of
#: and every segment is summarised (the result says so).
MIN_QUIET_SEGMENTS = 3


class HostProbe:
    """A fixed piece of interpreter and numpy work that never touches the
    program under test, timed at every segment boundary of the timed
    window.  Its reading tells which state the shared host was in during
    a segment whatever the program did there, so segments can be told
    apart by the host's state and not by their own outcome.

    ``clock`` is ``time.perf_counter`` with the time spent probing taken
    out; the workload and the window's marks read it, so a probe between
    two units is in neither a unit's nor a request's time.
    """

    REPEATS = 5  # best of: one reading is ~0.4 ms of work

    def __init__(self):
        import numpy as np

        self._a = np.random.default_rng(0).standard_normal((96, 96))
        self._tanh = np.tanh
        self.readings: List[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def read(self) -> None:
        entered = time.perf_counter()
        best = float("inf")
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            b = self._a
            for _ in range(4):
                b = self._tanh(b @ self._a * 0.01)
            total = 0
            for i in range(4000):
                total += i * i
            best = min(best, time.perf_counter() - t0)
        self.readings.append(best)
        self.paused += time.perf_counter() - entered


def run_units(workload, first: int, count: int, marks=None, probe=None) -> List[float]:
    """Run units ``first .. first+count-1`` back to back with the
    collector off; returns the ``count + 1`` boundary timestamps on the
    workload's clock.  They are appended to ``marks`` when given, so a
    caller that catches an error keeps the boundaries of the units that
    completed.  With a ``probe`` the host is probed before the first
    unit and after every ``workload.segment_units`` units."""
    marks = [] if marks is None else marks
    clock = workload.clock
    gc.collect()
    gc.disable()
    try:
        if probe is not None:
            probe.read()
        marks.append(clock())
        for k in range(count):
            workload.run_unit(first + k)
            marks.append(clock())
            if probe is not None and (k + 1) % workload.segment_units == 0:
                probe.read()
    finally:
        gc.enable()
    return marks


def segment_median(values: Sequence[float], segment: int) -> float:
    """Cut ``values`` (one per call, in call order) into consecutive
    equal-work segments of ``segment`` calls and take the median over all
    segments of each segment's median (the per-layer run's rule: it has
    no bound to meet and no host probe)."""
    return median(
        median(values[a:a + segment])
        for a in range(0, len(values) - segment + 1, segment)
    )


def quiet_segments(readings: Sequence[float], segments: int) -> List[bool]:
    """Which of the ``segments`` segments ran on a quiet host: segment
    ``k`` lies between probe readings ``k`` and ``k + 1``."""
    limit = QUIET_FACTOR * min(readings)
    return [max(readings[k], readings[k + 1]) <= limit for k in range(segments)]


def window_summary(
    marks: Sequence[float],
    steps: Sequence[int],
    samples: Sequence[int],
    latencies: Sequence[float],
    segment_units: int,
    readings: Sequence[float],
) -> Dict[str, object]:
    """Throughput and latency quantiles of the timed window: the
    benchmark's one noise rule.

    The window is cut into segments of ``segment_units`` units (equal
    work: for the serving workloads one segment is one period of the
    occupancy wave).  ``steps[k]`` / ``samples[k]`` are the cumulative
    session-steps / latency samples after unit ``k``.  Each segment
    gives a rate (steps / wall) and the p50 and p95 of the latency
    samples that completed inside it; each reported number is the median
    of that value over the segments the host probe found *quiet*
    (:func:`quiet_segments`).

    Why: a neighbour on the shared reference box slows everything by
    30-60 % for seconds to minutes at a time, so a figure over the whole
    window, or a median over all segments, reads how much of the window
    the neighbour took (the driver's A/A of the all-segments median
    spread 20-29 % between identical runs).  Which segments count is
    decided by the probe alone: a slowdown of the program, uniform or
    not, does not move the probe, so the segments it slows stay in.
    The all-segments and whole-window figures are returned beside the
    reported ones.  A run with fewer than ``MIN_QUIET_SEGMENTS`` quiet
    segments, or one cut short by an error, is summarised over every
    segment (below one segment, the units) that completed.
    """
    units = len(marks) - 1
    segment_units = min(segment_units, units)
    rates, p50s, p95s = [], [], []
    for a in range(0, units - segment_units + 1, segment_units):
        b = a + segment_units
        done = steps[b - 1] - (steps[a - 1] if a else 0)
        rates.append(done / (marks[b] - marks[a]))
        lat = sorted(latencies[(samples[a - 1] if a else 0):samples[b - 1]])
        # A segment no request completed in has no quantiles of its own.
        p50s.append(1e3 * quantile(lat, 0.50) if lat else None)
        p95s.append(1e3 * quantile(lat, 0.95) if lat else None)
    everything = [True] * len(rates)
    quiet = [False] * len(rates)
    if len(readings) > len(rates):
        quiet = quiet_segments(readings, len(rates))
    used = quiet if sum(quiet) >= MIN_QUIET_SEGMENTS else everything

    def over(values, keep):
        return median(v for v, k in zip(values, keep) if k and v is not None)

    whole = sorted(latencies)
    return {
        "steps_per_s": over(rates, used),
        "latency_ms_p50": over(p50s, used),
        "latency_ms_p95": over(p95s, used),
        "latency_samples": len(whole),
        "segments": len(rates),
        "quiet_segments": sum(quiet),
        "summarised_over": "quiet segments" if used is quiet else "all segments",
        "segment_quiet": quiet,
        "segment_rates": rates,
        "probe_ms": [1e3 * r for r in readings],
        "all_segments": {
            "steps_per_s": over(rates, everything),
            "latency_ms_p50": over(p50s, everything),
            "latency_ms_p95": over(p95s, everything),
        },
        "whole_window": {
            "seconds": marks[-1] - marks[0],
            "steps_per_s": steps[units - 1] / (marks[-1] - marks[0]),
            "latency_ms_p50": 1e3 * quantile(whole, 0.50),
            "latency_ms_p95": 1e3 * quantile(whole, 0.95),
        },
    }


def peak_rss_mb(worker_pids: Iterable[int] = ()) -> float:
    """``ru_maxrss`` of this process plus ``VmHWM`` of each live worker."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            status = open(f"/proc/{pid}/status")
        except OSError:  # the worker died (a run that ends in ServeError)
            continue
        with status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def provenance(seed: int, params: Dict[str, object]) -> Dict[str, object]:
    """Where, on what and with which settings a result was measured."""
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "seed": seed,
        "params": params,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def self_times(records: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds, and *self* seconds.

    Self time is the span's duration minus the part of its interval its
    direct children cover (overlapping children are merged first, and
    clipped to the parent).
    """
    children: Dict[int, List[tuple]] = {}
    for r in records:
        if r["parent_id"] is not None:
            children.setdefault(r["parent_id"], []).append(
                (r["t_start"], r["t_end"])
            )
    out: Dict[str, Dict[str, float]] = {}
    for r in records:
        t0, t1 = r["t_start"], r["t_end"]
        covered, edge = 0.0, t0
        for c0, c1 in sorted(children.get(r["span_id"], ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        entry = out.setdefault(
            r["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - covered
    return out


def write_json(path: pathlib.Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
