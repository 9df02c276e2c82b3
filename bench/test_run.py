"""Smoke test of the timing record: every case timed for both labels, every perfbench run
exits 0, and every CLI job of a checkout compared with itself writes the same bytes.

Run from the repository root:  python3 -m pytest -q bench/test_run.py
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_against_itself_times_every_case(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--label", "change", "--out", str(out),
         "--baseline", str(ROOT), "--repeats", "1", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(out.read_text())
    assert set(records) == {"change", "parent"}
    bench = load_bench()
    jobs = bench.perfbench_jobs()
    names = set(bench.case_table(jobs, 1))
    assert {f"cli/pass/{workload}" for workload in jobs} <= names
    assert f"sample_unreflected_states/{bench.SCALES[-1]:g}/draws" in names
    for label, record in records.items():
        assert set(record["cases"]) == names, label
        for name, case in record["cases"].items():
            assert math.isfinite(case["median_us_per_item"]), (label, name)
            assert case["won"] in (0, 1), (label, name)
            assert math.isfinite(case["median_paired_ratio"]), (label, name)
            low, high = case["paired_ratio_quartiles"]
            assert low <= case["median_paired_ratio"] <= high, (label, name)
        assert [run["returncode"] for run in record["scaling_process"]["runs"]] == [0]
        cli_cases = {bench.job_case(job) for listed in jobs.values() for job in listed}
        assert set(record["cli_bytes"]) == cli_cases, label
        assert all(job["returncode"] == 0 for job in record["cli_bytes"].values()), label
        # a checkout writes what it writes again
        assert record["same_bytes"] == dict.fromkeys(cli_cases, True), label
        assert set(record["perfbench"]) == set(jobs)
        for workload, runs in record["perfbench"].items():
            codes = [run["returncode"] for run in runs["runs"]]
            assert codes == [0] * bench.PERFBENCH_PAIRS, (label, workload, codes)


def test_draw_floor_takes_the_draw_sizes_of_the_scale_100_walk():
    bench = load_bench()
    *_, sizes = bench.drawn_counts()
    # every walker draws in the first round, and walkers only leave the live arrays
    assert sizes[0] == bench.WALKERS
    assert all(0 < later <= earlier for earlier, later in zip(sizes, sizes[1:]))
    # about (a+b)/2 * t = 100 * 100 events for each of the 1,000 walkers
    assert 0.9e7 < sum(sizes) < 1.1e7
