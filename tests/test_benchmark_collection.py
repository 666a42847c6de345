"""Guard: `pytest benchmarks/` must collect the paper-figure bench files.

The bench files are named ``bench_*.py``; pytest only collects them
because pyproject.toml widens ``python_files``.  This test fails loudly
if that configuration regresses (the symptom would be a silent
"no tests ran" from the benchmark harness).
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FIGURE_BENCHES = {
    "bench_table1_kernel_analysis.py",
    "bench_fig4_runtime_breakdown.py",
    "bench_fig5_noc_scalability.py",
    "bench_fig6_partition_traffic.py",
    "bench_fig7_two_stage_sort.py",
    "bench_fig10_dncd_accuracy.py",
    "bench_fig11_speed_area_power.py",
    "bench_fig12_comparison.py",
}


def test_bench_files_are_collected():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/", "--collect-only",
         "-q", "--no-header", "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    for name in FIGURE_BENCHES:
        assert name in result.stdout
    # All bench files collect tests. `-q --collect-only` emits one node id
    # per test on pytest >= 8 and `path: count` summary lines before that;
    # accept either format.
    collected = 0
    for line in result.stdout.splitlines():
        if not line.startswith("benchmarks/bench_"):
            continue
        if "::" in line:
            collected += 1
        elif ":" in line:
            collected += int(line.rsplit(":", 1)[1])
    # The eight figure files hold 27 benches between them (2-7 each).
    assert collected >= 27


def test_every_figure_has_a_bench_file():
    bench_dir = REPO_ROOT / "benchmarks"
    names = {p.name for p in bench_dir.glob("bench_*.py")}
    assert FIGURE_BENCHES <= names
