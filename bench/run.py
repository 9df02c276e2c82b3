"""Timing record of the batch endpoint sampler, ``tv_curve`` and one benchmark workload.

Run from the root of a source checkout:

    python3 bench/run.py --label change --out BENCH_8.json

The package is imported straight from this checkout's ``src/``.  The record
holds the machine, the Python and numpy versions and the git commit, then:

- µs per walker of ``simulate.sample_unreflected_states`` at the sizes of
  the ``scaling`` subcommand (n = 1000 walkers from 0 with random
  velocities, rates (scale - 1, scale + 1) to time ``t * scale``, t = 1,
  scales 4, 16 and 100);
- seconds per call and µs per run of ``analysis.tv_curve`` at the size of
  the ``tvcurve`` benchmark job (n = 1000 runs per leg, starts (1, +1) and
  (0, +1), grid 1..20, a = 1, b = 2), for both processes; a run is one
  coupling and one walker per start;
- the JSON that ``perfbench/run.py --workload tvcurve_scaling --trace 0``
  prints, run unchanged.

Each timing is repeated ``--repeats`` times after one warm-up call and
reported as the median with every sample.  The record is stored under
``--label`` in ``--out``; records under other labels are kept, so one file
can hold a parent commit and a change measured on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCALES = (4.0, 16.0, 100.0)
WALKERS = 1000
TV_RUNS = 1000
TV_GRID = tuple(float(t) for t in range(1, 21))
TV_STARTS = ((1.0, 1), (0.0, 1))


def git(*args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def timed(call, repeats: int) -> list[float]:
    call()  # warm-up: imports, first allocations
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        runs.append(time.perf_counter() - t0)
    return runs


def sampler_record(repeats: int) -> dict:
    from telegraph_kit.model import ModelParams
    from telegraph_kit.simulate import make_stream, sample_unreflected_states

    out = {}
    for scale in SCALES:
        params = ModelParams(scale - 1.0, scale + 1.0)
        runs = timed(
            lambda: sample_unreflected_states(0.0, None, scale, WALKERS, params, make_stream(1, 0)),
            repeats,
        )
        out[repr(scale)] = {
            "median_us_per_walker": 1e6 * statistics.median(runs) / WALKERS,
            "runs_s": runs,
        }
    return {"n": WALKERS, "t": 1.0, "scales": out}


def tv_curve_record(repeats: int) -> dict:
    import numpy as np

    from telegraph_kit.analysis import tv_curve
    from telegraph_kit.model import ModelParams
    from telegraph_kit.simulate import make_stream

    params = ModelParams(1.0, 2.0)
    grid = np.array(TV_GRID)
    out = {}
    for process in ("reflected", "unreflected"):
        runs = timed(
            lambda: tv_curve(*TV_STARTS, process, grid, TV_RUNS, params, make_stream(1, 0)),
            repeats,
        )
        median = statistics.median(runs)
        out[process] = {
            "median_s_per_call": median,
            "median_us_per_run": 1e6 * median / TV_RUNS,
            "runs_s": runs,
        }
    return {"n": TV_RUNS, "grid": "1:20:1", "starts": TV_STARTS, "processes": out}


def perfbench_record(seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", "tvcurve_scaling",
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"argv": argv[1:], "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.strip().splitlines()
    return {"argv": argv[1:], "env": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def source_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (SRC / "telegraph_kit").glob("*.py")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the output file")
    parser.add_argument("--out", required=True, help="JSON file; other labels in it are kept")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="perfbench run length")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str(SRC))
    import numpy as np

    record = {
        "git_commit": git("rev-parse", "HEAD"),
        "src_modified": git("status", "--porcelain", "--", "src") not in ("", None),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "source_lines": source_lines(),
        "sample_unreflected_states": sampler_record(args.repeats),
        "tv_curve": tv_curve_record(args.repeats),
        "perfbench_tvcurve_scaling": perfbench_record(args.seed, args.seconds),
    }
    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else {}
    records[args.label] = record
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
