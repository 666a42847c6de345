"""Smoke test of the benchmark itself.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it
explicitly::

    python -m pytest perf/test_perf_smoke.py -q
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def test_spec_limits_and_code_tables_agree():
    sys.path.insert(0, str(PERF))
    import layers
    import run as cli

    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert SPEC["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, better, bound) in cli.END_TO_END.items()
    ]
    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit,
         "better": "higher" if name in layers.HIGHER_IS_BETTER else "lower"}
        for name, unit in layers.PER_LAYER.items()
    ]
    assert tuple(WORKLOADS) == cli.WORKLOAD_NAMES
    assert SPEC["run_seconds"] == cli.DEFAULT_SECONDS


def test_quiet_segments_are_chosen_by_the_probe_not_by_their_timing():
    sys.path.insert(0, str(PERF))
    import harness

    # Eight one-unit segments of ten steps, one latency sample each.  The
    # host was disturbed around segments 2-3 (they took 2 s) and the
    # program itself was slow in segments 5-7 (1.5 s, probe quiet).
    walls = [1.0, 1.0, 2.0, 2.0, 1.0, 1.5, 1.5, 1.5]
    readings = [0.40, 0.41, 0.42, 0.60, 0.43, 0.40, 0.41, 0.40, 0.42]
    marks = [sum(walls[:k]) for k in range(len(walls) + 1)]
    counts = list(range(1, len(walls) + 1))
    out = harness.window_summary(
        marks, [10 * c for c in counts], counts, walls, 1, readings
    )
    assert out["segment_quiet"] == [True, True, False, False, True, True, True, True]
    assert out["summarised_over"] == "quiet segments"
    # Median over the six quiet segments: the program's own slow
    # segments count, the disturbed ones do not.
    assert out["latency_ms_p50"] == pytest.approx(1250.0)
    assert out["all_segments"]["latency_ms_p50"] == pytest.approx(1500.0)
    assert out["steps_per_s"] == pytest.approx((10.0 + 10.0 / 1.5) / 2)
    # No quiet state to speak of: every segment is summarised.
    noisy = [0.40] + [0.60] * 8
    out = harness.window_summary(
        marks, [10 * c for c in counts], counts, walls, 1, noisy
    )
    assert out["quiet_segments"] == 0 and out["summarised_over"] == "all segments"
    assert out["latency_ms_p50"] == pytest.approx(1500.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_end_to_end_metric(workload):
    proc, result = run("--workload", workload, "--quick", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
            proc.stdout, re.M,
        ), metric["name"]
    full = next(line for line in proc.stdout.splitlines() if line.startswith("RESULT "))
    assert full.endswith('"claim": null}')


def test_corrupted_output_fails_the_run():
    proc, result = run("--workload", "offline_dnc", "--quick", "--corrupt")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_traced_quick_run_reports_every_per_layer_metric():
    sys.path.insert(0, str(PERF.parent / "src"))
    from repro.obs import validate_trace_jsonl

    proc, result = run("--workload", "serve_inproc", "--quick", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert validate_trace_jsonl(PERF / "out" / "trace-serve_inproc-seed0.jsonl") == []
