#!/usr/bin/env python3
"""One repeatable benchmark for the engine and the serving stack.

    python perf/run.py                         # all 5 workloads, end to end
    python perf/run.py --trace                 # ... plus the per-layer run
    python perf/run.py --workload W --seed S --seconds N --trace 0|1
    python perf/run.py --quick                 # ~1 s windows (smoke)
    python perf/run.py --check-determinism     # counts repeat for a seed
    python perf/run.py --aa 5 [--workload W]   # A/A noise table

With ``--workload`` the workload runs in this process (one workload per
fresh process) and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``RESULT``, carries the same numbers with provenance, counts
and sample sizes, and ends with ``"claim": null``.  Without
``--workload`` each workload is run in its own child process.  The exit
code is non-zero when outputs fail verification or an operation failed.

See ``perf/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import argparse
import json
import os
import subprocess
import sys

import harness

harness.pin_threads()  # before numpy is imported anywhere
sys.path.insert(0, str(harness.REPO_ROOT / "src"))

WORKLOAD_NAMES = (
    "offline_dnc", "offline_dncd", "resident_sparse", "serve_inproc",
    "serve_procs",
)
#: name -> (unit, better, regression bound); same five for every workload.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "steps_per_s": ("1/s", "higher", 0.12),
    "latency_ms_p50": ("ms", "lower", 0.12),
    "latency_ms_p95": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.05),
}
DEFAULT_SECONDS = 15.0
QUICK_SECONDS = 1.0


def measure_end_to_end(cls, seed, units, corrupt):
    """The untraced run: set-up, the timed window, memory high-water
    mark, then verification outside every metric."""
    from repro.errors import ServeError

    workload = cls(seed, units)
    probe = harness.HostProbe()
    workload.clock = probe.clock
    marks = []
    try:
        warm = cls.warmup_units(units)
        harness.run_units(workload, 0, warm)
        workload.begin_timed()
        setup_s = time.perf_counter() - T_ENTRY
        try:
            harness.run_units(workload, warm, units, marks, probe)
        except ServeError as error:
            # Counted, not fatal: the run is reported over the units that
            # completed and fails as a whole (no result without any).
            if not workload.latencies:
                raise
            workload.failed += 1
            correct, detail = False, f"ServeError in the timed window: {error}"
        rss_mb = harness.peak_rss_mb(workload.worker_pids())
        if len(marks) == units + 1:
            if corrupt:
                workload.corrupt_output()
            correct, detail = workload.verify()
    finally:
        workload.close()
    extra = harness.window_summary(
        marks, workload.steps, workload.samples, workload.latencies,
        cls.segment_units, probe.readings,
    )
    metrics = {
        "setup_s": setup_s,
        "steps_per_s": extra.pop("steps_per_s"),
        "latency_ms_p50": extra.pop("latency_ms_p50"),
        "latency_ms_p95": extra.pop("latency_ms_p95"),
        "peak_rss_mb": rss_mb,
    }
    return metrics, extra, workload, correct, detail


def run_workload(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    units = cls.units_for(args.seconds)
    if cls.one_cpu:
        # The last CPU: the VM's device interrupts land on the first.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.trace:
        import layers

        values, extra, counts, params = layers.measure_per_layer(
            cls, args.seed, units, args.quick
        )
        units_of = layers.PER_LAYER
        correct, detail = True, "per-layer run (outputs verified in the untraced run)"
        attempted, failed = counts.pop("attempted"), counts.pop("failed")
    else:
        values, extra, workload, correct, detail = measure_end_to_end(
            cls, args.seed, units, args.corrupt
        )
        attempted = max(1, workload.attempted)
        # A failed verification (or a ServeError) fails every operation.
        failed = workload.failed if correct else attempted
        counts, params = workload.counts(), workload.params()
        units_of = {name: spec[0] for name, spec in END_TO_END.items()}

    print(f"workload {args.workload}  seed {args.seed}  units {units}  "
          f"trace {int(args.trace)}")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units_of[name]}")
    if not args.trace:
        whole = extra["whole_window"]
        every = extra["all_segments"]
        print(f"  latency samples: {extra['latency_samples']} in "
              f"{extra['segments']} segments, {extra['quiet_segments']} of "
              f"them on a quiet host (probe {min(extra['probe_ms']):.3f} ms "
              f"at its quietest); timings are medians over the "
              f"{extra['summarised_over']}")
        for label, figures in (("all segments", every), (
                f"whole window of {whole['seconds']:.2f} s", whole)):
            print(f"  {label}: {figures['steps_per_s']:.6g} 1/s, "
                  f"p50 {figures['latency_ms_p50']:.6g} ms, "
                  f"p95 {figures['latency_ms_p95']:.6g} ms")
    print(f"  verification: {'ok' if correct else 'FAILED'} — {detail}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    metrics = {
        name: {"value": value, "unit": units_of[name]}
        for name, value in values.items()
    }
    full = {
        "workload": args.workload,
        "trace": int(args.trace),
        "provenance": harness.provenance(args.seed, params),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "verification": detail,
        "counts": counts,
        "metrics": metrics,
        "detail": extra,
        "claim": None,
    }
    harness.write_json(
        harness.OUT_DIR
        / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json",
        full,
    )
    print("RESULT " + json.dumps(full))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


# ---------------------------------------------------------------------------
# Multi-run modes: every run is a fresh child process.
# ---------------------------------------------------------------------------


def child(workload, seed, seconds, trace, quick=False, echo=True):
    """Run one workload in a child process; returns (exit code, RESULT)."""
    cmd = [
        sys.executable, __file__, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    full = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            full = json.loads(line[len("RESULT "):])
        elif echo and not line.startswith("{"):
            print(line)
    if proc.returncode != 0 and echo:
        sys.stdout.write(proc.stderr)
    return proc.returncode, full


def run_all(args) -> int:
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        for trace in ([0, 1] if args.trace else [0]):
            code, full = child(name, args.seed, args.seconds, trace, args.quick)
            status |= code
            if full is not None:
                entry = results.setdefault(name, {"provenance": full["provenance"]})
                entry["per_layer" if trace else "end_to_end"] = {
                    "metrics": {k: v["value"] for k, v in full["metrics"].items()},
                    **{k: full[k] for k in ("correct", "attempted", "failed", "counts")},
                }
    print("SUMMARY " + json.dumps({"workloads": results, "claim": None}))
    return status


def check_determinism(args) -> int:
    """Same seed twice, untraced and traced: every count must repeat."""
    import layers

    bad = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            runs = [
                child(name, args.seed, QUICK_SECONDS, trace, quick=True,
                      echo=False)[1]
                for _ in range(2)
            ]
            if runs[0] is None or runs[1] is None:
                print(f"{name} trace={trace}: run failed")
                bad += 1
                continue
            pairs = [
                (key, runs[0]["counts"][key], runs[1]["counts"].get(key))
                for key in runs[0]["counts"]
            ] + [(key, runs[0][key], runs[1][key]) for key in ("attempted", "failed")]
            if trace:
                pairs += [
                    (key, runs[0]["metrics"][key]["value"],
                     runs[1]["metrics"][key]["value"])
                    for key in layers.COUNT_METRICS
                ]
            differ = [(k, a, b) for k, a, b in pairs if a != b]
            print(f"{name} trace={trace}: {len(pairs)} counts, "
                  f"{len(differ)} differ")
            for key, a, b in differ:
                print(f"  {key}: {a} != {b}")
            bad += len(differ)
    print("determinism: " + ("ok" if not bad else f"{bad} problems"))
    return 1 if bad else 0


def aa(args) -> int:
    """Two interleaved sets of N runs (ABBA), run k of each set on seed
    ``seed + k``: per workload x metric each set's median, quartiles and
    spread, and the two medians' relative disagreement against the
    bound.  Also writes ``out/baseline.json``: the per-metric medians
    over all 2N runs plus the per-layer metrics of one traced run, which
    is what ``perf/baseline.json`` records."""
    import statistics

    n = args.aa
    status = 0
    raw, baseline = {}, {}
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] "
          "| spread A / B | B vs A | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        sets = {"A": [], "B": []}
        for k in range(n):
            for label in ("AB" if k % 2 == 0 else "BA"):
                code, full = child(name, args.seed + k, args.seconds, 0,
                                   args.quick, echo=False)
                if full is not None:
                    raw.setdefault(name, []).append({"set": label, **full})
                if code != 0 or full is None:
                    print(f"{name} seed {args.seed + k}: run failed")
                    status = 1
                    continue
                sets[label].append(full["metrics"])
        if min(len(sets["A"]), len(sets["B"])) < 2:
            print(f"{name}: fewer than two good runs per set, no row")
            status = 1
            continue
        baseline[name] = {
            "provenance": raw[name][0]["provenance"],
            "runs": len(sets["A"]) + len(sets["B"]),
            "latency_samples": raw[name][0]["detail"]["latency_samples"],
            "counts": raw[name][0]["counts"],
            "end_to_end": {},
        }
        # One traced run, so the layers have a recorded "before" as well.
        code, traced = child(name, args.seed, args.seconds, 1, args.quick,
                             echo=False)
        if code == 0 and traced is not None:
            baseline[name]["per_layer_single_run"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
        else:
            print(f"{name}: traced run failed")
            status = 1
        for metric, (unit, better, bound) in END_TO_END.items():
            cells, medians, spreads = [], [], []
            for label in ("A", "B"):
                values = [m[metric]["value"] for m in sets[label]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            q1, q2, q3 = statistics.quantiles(
                [m[metric]["value"] for m in sets["A"] + sets["B"]], n=4
            )
            baseline[name]["end_to_end"][metric] = {
                "median": q2, "q1": q1, "q3": q3, "unit": unit,
            }
            # Same code on both sides: a B that reads better than A is
            # the same failure as one that reads worse.
            disagree = (medians[1] - medians[0]) / medians[0]
            over = abs(disagree) > bound or (
                metric != "setup_s" and max(spreads) > bound
            )
            flag = " **over**" if over else (
                " *over half*" if abs(disagree) > bound / 2 else ""
            )
            status |= over
            print(f"| {name} | {metric} ({unit}) | {cells[0]} | {cells[1]} | "
                  f"{spreads[0]:.2%} / {spreads[1]:.2%} | {disagree:+.2%} | "
                  f"{bound:.2f}{flag} |")
    harness.write_json(harness.OUT_DIR / f"aa-{n}.json", raw)
    harness.write_json(harness.OUT_DIR / "baseline.json", {
        "method": f"per-metric median and quartiles over both interleaved "
                  f"sets of `run.py --aa {n}` ({2 * n} runs per workload, "
                  f"seeds {args.seed}..{args.seed + n - 1}, "
                  f"--seconds {args.seconds:g})",
        "workloads": baseline,
        "claim": None,
    })
    return int(status)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal timed-window length; fixes the unit count")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="1: the per-layer (traced) run")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s windows, fewer layer calls")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: damage one recorded output so that "
                             "verification must fail the run")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.check_determinism:
        return check_determinism(args)
    if args.aa:
        return aa(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
