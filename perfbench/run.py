"""telegraph-kit benchmark: gated CLI job lists, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload excursions_couple --seed 1 --seconds 50 --trace 0

The program is used straight from ``src/``; nothing is installed.  With
``--trace 0`` the run reports the end-to-end metrics (set-up time, wall time
per pass of the job list, items per second, peak memory); with
``--trace 1`` it reports the per-layer metrics from a traced run instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  README.md in this directory describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TELEGRAPH_THREADS", None)  # every job gets the default thread count
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_ROOT"] = str(ROOT)
    return env


def run_child(argv) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; a timeout kills and reaps it."""
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )


_READY = (
    "import time, telegraph_kit.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def setup_seconds() -> float:
    """Median time from spawning a fresh interpreter until telegraph_kit.cli is imported.

    The child stamps the shared monotonic clock once the import is done, so
    interpreter teardown is not counted.  Called after the worker has run,
    so the bytecode caches users have after their first run are written.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = run_child(["-c", _READY])
        if proc.returncode != 0:
            raise RuntimeError(f"importing telegraph_kit.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def own_import_us(report: str, module: str) -> float:
    """Import time of ``module`` minus the telegraph_kit modules it pulls in.

    ``report`` is ``-X importtime`` output: one line per module, children
    before their parent, nesting shown by two spaces per level.
    """
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # column header
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    for i, (depth, cumulative, name) in enumerate(rows):
        if name != module:
            continue
        own = cumulative
        skip_below = None
        for d, cum, child in reversed(rows[:i]):
            if d <= depth:
                break
            if skip_below is not None and d > skip_below:
                continue
            skip_below = None
            if child.startswith("telegraph_kit"):
                own -= cum
                skip_below = d
        return float(own)
    raise RuntimeError(f"{module} missing from the import-time report")


def analysis_import_seconds() -> float:
    """Median own import time of telegraph_kit.analysis, numpy already loaded."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child(["-X", "importtime", "-c", "import numpy, telegraph_kit.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing telegraph_kit.cli failed:\n{proc.stderr}")
        samples.append(own_import_us(proc.stderr, "telegraph_kit.analysis") / 1e6)
    return statistics.median(samples)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n-scale", type=float, default=1.0,
        help="multiply every job's --n (smoke tests use a small value)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "telegraph_kit" / "cli.py").is_file():
        print(f"error: no telegraph_kit sources under {SRC}", file=sys.stderr)
        return 2

    worker = run_child([
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--n-scale", str(args.n_scale),
    ])
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: worker exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if args.trace:
        metrics["analysis.import_s"] = {"value": analysis_import_seconds(), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": setup_seconds(), "unit": "s"}

    env = result["env"]
    env.update({
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        "n_scale": args.n_scale,
    })
    print(json.dumps({"env": env, "errors": result["errors"]}))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
