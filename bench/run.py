"""Timing record of the batch samplers, ``tv_curve`` and the benchmark workloads.

Run from the root of a source checkout:

    python3 bench/run.py --label change --out BENCH_15.json
    python3 bench/run.py --label change --out BENCH_15.json --baseline ../parent

The package is imported straight from this checkout's ``src/``.  The record
holds the machine, the Python and numpy versions, the git commit and the
line count of each module of ``src/telegraph_kit`` with their total, then:

- µs per walker of ``simulate.sample_unreflected_states`` at the sizes of
  the ``scaling`` subcommand (n = 1000 walkers from 0 with random
  velocities, rates (scale - 1, scale + 1) to time ``t * scale``, t = 1,
  scales 4, 16 and 100);
- µs per walker of ``tv_curve``'s independent half at the size of the
  ``tvcurve`` benchmark job, for both processes: the 2n = 2000 walkers of
  the starts (1, +1) and (0, +1) carried across the grid 1..20 at a = 1,
  b = 2, in one grid call of the endpoint sampler;
- µs per run of ``tv_curve``'s coupling half at the size of the
  ``tvcurve`` benchmark job, for both processes: n = 1000 time-only
  couplings of the same starts to horizon 20 at a = 1, b = 2, as one call
  per run of ``coalescent_couple_*`` (``scalar``) and as one call of
  ``coupling.coalescence_times`` (``batch``);
- ms per call of ``analysis.sde_oracle`` at the size of the ``scaling``
  subcommand: n = 1000 endpoints from 0 at drift 1 to time 1, in steps of
  ``default_oracle_dt(1)``;
- ms per in-process ``excursions --n 20480 --check`` job through
  ``cli.main``, output to the null device, and µs per excursion of
  ``excursions.sample_excursions`` in 1,024-excursion chunks, the CLI's
  chunk size, at a = 1, b = 2;
- µs per draw of ``excursions.sample_hitting`` from (2, -1) at a = 1,
  b = 2, the ``hitting`` benchmark job's start, in batches of 1 (no
  ``size``), 2,048 (the job's ``--n``) and 100,000, and of
  ``excursions.sample_sigma(1.0)`` in a batch of 1;
- seconds per call and µs per run of ``analysis.tv_curve`` at the size of
  the ``tvcurve`` benchmark job (n = 1000 runs per leg, same starts, grid
  and rates), for both processes; a run is one coupling and one walker per
  start;
- the wall time and peak RSS of whole ``scaling`` processes: each run is a
  fresh ``python -m telegraph_kit.cli scaling --n 1000 --scales 4,16,100``,
  timed from spawn to exit, with its peak RSS from the rusage of
  ``os.wait4``, ``--repeats`` runs a checkout;
- the JSON that ``perfbench/run.py --workload W --trace 0`` prints, run
  unchanged, for both workloads.

Each timing is repeated ``--repeats`` times after one warm-up call and
reported as the median with every sample; a sample of a call shorter than
50 ms is the mean of as many calls as fill about 50 ms.  The record is stored under
``--label`` in ``--out``; records under other labels are kept, so one file
can hold a parent commit and a change measured on the same machine.

``--baseline DIR`` names a second checkout, say of the parent commit, and
records it too, under the label "parent".  Both packages are then loaded
side by side and every timing alternates between them call by call, with
the order swapped on every repeat, and the perfbench runs alternate the
same way.  A shared machine whose speed drifts over minutes then slows
both records alike, where two records taken one after the other can differ
by more than the change being measured.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALES = (4.0, 16.0, 100.0)
WALKERS = 1000
TV_RUNS = 1000
TV_GRID = tuple(float(t) for t in range(1, 21))
TV_STARTS = ((1.0, 1), (0.0, 1))
WORKLOADS = ("tvcurve_scaling", "excursions_couple")
SAMPLE_S = 0.05
BASELINE_LABEL = "parent"
SCALING_CLI = ("-m", "telegraph_kit.cli", "scaling", "--n", "1000", "--scales", "4,16,100")
EXCURSIONS_JOB = ("excursions", "--n", "20480", "--check", "--seed", "1")
EXCURSION_CHUNK = 1024
HITTING_BATCHES = (1, 2048, 100_000)

# Spawns its arguments as a program, waits, and prints the program's wall
# seconds, peak RSS in KiB and exit code.  A spawned process's ru_maxrss
# starts from its spawner's own peak, so this small interpreter, not the
# timing process with its large arrays, spawns the measured one: the reading
# is then the larger of its own peak and the launcher's, about 13 MB.
_LAUNCHER = (
    "import os, sys, time; t0 = time.perf_counter(); "
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); "
    "print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))"
)


def git(root: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
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


def load_package(root: Path, name: str):
    """The ``telegraph_kit`` package of the checkout at root, imported as ``name``.

    The package imports its modules relatively, so two checkouts load side
    by side under different names.
    """
    package = root / "src" / "telegraph_kit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def timed(calls: dict, repeats: int) -> dict:
    """Seconds per call of each labelled call, alternating the labels' order.

    Each sample averages enough calls to last about ``SAMPLE_S``, a count
    set from the slowest warm-up call and shared by every label, so a call
    of a millisecond or two is not read off a single timer interval.
    """
    warm_up = []
    for call in calls.values():  # first allocations
        t0 = time.perf_counter()
        call()
        warm_up.append(time.perf_counter() - t0)
    number = max(1, int(SAMPLE_S / max(warm_up)))
    runs = {label: [] for label in calls}
    order = list(calls)
    for _ in range(repeats):
        for label in order:
            t0 = time.perf_counter()
            for _ in range(number):
                calls[label]()
            runs[label].append((time.perf_counter() - t0) / number)
        order.reverse()
    return runs


def sampler_record(pkgs: dict, repeats: int) -> dict:
    out = {label: {} for label in pkgs}
    for scale in SCALES:

        def call(pkg, scale=scale):
            params = pkg.model.ModelParams(scale - 1.0, scale + 1.0)
            return lambda: pkg.simulate.sample_unreflected_states(
                0.0, None, scale, WALKERS, params, pkg.simulate.make_stream(1, 0)
            )

        runs = timed({label: call(pkg) for label, pkg in pkgs.items()}, repeats)
        for label, samples in runs.items():
            out[label][repr(scale)] = {
                "median_us_per_walker": 1e6 * statistics.median(samples) / WALKERS,
                "runs_s": samples,
            }
    return {label: {"n": WALKERS, "t": 1.0, "scales": scales} for label, scales in out.items()}


def walker_half_call(pkg, process: str):
    """The walker half of one ``tv_curve`` call: one grid call of the endpoint sampler."""
    import numpy as np

    simulate = pkg.simulate
    params = pkg.model.ModelParams(1.0, 2.0)
    grid = np.array(TV_GRID)
    walkers = 2 * TV_RUNS
    pos = np.repeat([p for p, _ in TV_STARTS], TV_RUNS).astype(np.float64)
    vel = np.repeat([v for _, v in TV_STARTS], TV_RUNS)
    sample = getattr(simulate, f"sample_{process}_states")
    return lambda: sample(pos, vel, grid, walkers, params, simulate.make_stream(1, 0))


def walker_half_record(pkgs: dict, repeats: int) -> dict:
    out = {label: {"processes": {}} for label in pkgs}
    for process in ("reflected", "unreflected"):
        calls = {label: walker_half_call(pkg, process) for label, pkg in pkgs.items()}
        for label, samples in timed(calls, repeats).items():
            out[label]["processes"][process] = {
                "median_us_per_walker": 1e6 * statistics.median(samples) / (2 * TV_RUNS),
                "runs_s": samples,
            }
    for record in out.values():
        record.update(walkers=2 * TV_RUNS, grid="1:20:1", starts=TV_STARTS)
    return out


def coupling_half_record(pkgs: dict, repeats: int) -> dict:
    horizon = TV_GRID[-1]
    out = {label: {} for label in pkgs}
    for process in ("reflected", "unreflected"):
        calls = {}
        for label, pkg in pkgs.items():

            def scalar(pkg=pkg, process=process):
                params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
                couple = getattr(pkg.coupling, f"coalescent_couple_{process}")
                for _ in range(TV_RUNS):
                    couple(*TV_STARTS[0], *TV_STARTS[1], horizon, params, rng, record_paths=False)

            def batch(pkg=pkg, process=process):
                params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
                pkg.coupling.coalescence_times(TV_RUNS, *TV_STARTS, horizon, process, params, rng)

            calls[label, "scalar"] = scalar
            calls[label, "batch"] = batch
        for (label, method), samples in timed(calls, repeats).items():
            out[label].setdefault(process, {})[method] = {
                "median_us_per_run": 1e6 * statistics.median(samples) / TV_RUNS,
                "runs_s": samples,
            }
    return {
        label: {"n": TV_RUNS, "horizon": horizon, "starts": TV_STARTS, "processes": processes}
        for label, processes in out.items()
    }


def oracle_record(pkgs: dict, repeats: int) -> dict:
    def call(pkg):
        dt = pkg.analysis.default_oracle_dt(1.0)
        return lambda: pkg.analysis.sde_oracle(
            1.0, 0.0, dt, 1.0, WALKERS, pkg.simulate.make_stream(1, 0)
        )

    runs = timed({label: call(pkg) for label, pkg in pkgs.items()}, repeats)
    return {
        label: {
            "n": WALKERS, "drift": 1.0, "x0": 0.0, "t": 1.0,
            "median_ms_per_call": 1e3 * statistics.median(samples), "runs_s": samples,
        }
        for label, samples in runs.items()
    }


def excursions_record(pkgs: dict, repeats: int) -> dict:
    jobs, chunks = {}, {}
    for label, pkg in pkgs.items():
        cli = importlib.import_module(f"{pkg.__name__}.cli")
        params = pkg.model.ModelParams(1.0, 2.0)
        jobs[label] = lambda cli=cli: cli.main([*EXCURSIONS_JOB, "--out", os.devnull])
        chunks[label] = lambda pkg=pkg, params=params: pkg.excursions.sample_excursions(
            EXCURSION_CHUNK, params, pkg.simulate.make_stream(1, 0)
        )
    job_runs, chunk_runs = timed(jobs, repeats), timed(chunks, repeats)
    return {
        label: {
            "job_argv": list(EXCURSIONS_JOB),
            "median_ms_per_job": 1e3 * statistics.median(job_runs[label]),
            "job_runs_s": job_runs[label],
            "chunk": EXCURSION_CHUNK,
            "median_us_per_excursion": 1e6 * statistics.median(chunk_runs[label]) / EXCURSION_CHUNK,
            "chunk_runs_s": chunk_runs[label],
        }
        for label in pkgs
    }


def lengths_record(pkgs: dict, repeats: int) -> dict:
    """µs per draw of the lengths-only tree loop through its two public samplers."""
    cases = [(f"sample_hitting_batch_{size}", size) for size in HITTING_BATCHES]
    cases.append(("sample_sigma_batch_1", 1))
    setup = {"a": 1.0, "b": 2.0, "hitting_start": [2.0, -1], "sigma_u": 1.0}
    out = {label: dict(setup) for label in pkgs}
    for name, size in cases:

        def call(pkg, name=name, size=size):
            params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
            if name.startswith("sample_sigma"):
                return lambda: pkg.excursions.sample_sigma(1.0, params, rng)
            batch = None if size == 1 else size
            return lambda: pkg.excursions.sample_hitting(2.0, -1, params, rng, size=batch)

        runs = timed({label: call(pkg) for label, pkg in pkgs.items()}, repeats)
        for label, samples in runs.items():
            out[label][name] = {
                "median_us_per_draw": 1e6 * statistics.median(samples) / size,
                "runs_s": samples,
            }
    return out


def tv_curve_record(pkgs: dict, repeats: int) -> dict:
    import numpy as np

    grid = np.array(TV_GRID)
    out = {label: {} for label in pkgs}
    for process in ("reflected", "unreflected"):

        def call(pkg, process=process):
            params = pkg.model.ModelParams(1.0, 2.0)
            return lambda: pkg.analysis.tv_curve(
                *TV_STARTS, process, grid, TV_RUNS, params, pkg.simulate.make_stream(1, 0)
            )

        runs = timed({label: call(pkg) for label, pkg in pkgs.items()}, repeats)
        for label, samples in runs.items():
            median = statistics.median(samples)
            out[label][process] = {
                "median_s_per_call": median,
                "median_us_per_run": 1e6 * median / TV_RUNS,
                "runs_s": samples,
            }
    return {
        label: {"n": TV_RUNS, "grid": "1:20:1", "starts": TV_STARTS, "processes": processes}
        for label, processes in out.items()
    }


def scaling_process_record(roots: dict, repeats: int) -> dict:
    """Wall time and peak RSS of fresh ``scaling`` processes, alternating the checkouts."""
    argv = [sys.executable, "-c", _LAUNCHER, sys.executable, *SCALING_CLI, "--out", os.devnull]
    runs = {label: [] for label in roots}
    order = list(roots)
    for _ in range(repeats):
        for label in order:
            env = {**os.environ, "PYTHONPATH": str(roots[label] / "src")}
            proc = subprocess.run(
                argv, cwd=roots[label], env=env, capture_output=True, text=True, check=True
            )
            wall, rss_kib, code = proc.stdout.split()
            runs[label].append((float(wall), int(rss_kib) / 1024, int(code)))
        order.reverse()
    return {
        label: {
            "argv": ["python", *SCALING_CLI],
            "median_wall_s": statistics.median(w for w, _, _ in samples),
            "median_peak_rss_mb": statistics.median(r for _, r, _ in samples),
            "wall_s": [w for w, _, _ in samples],
            "peak_rss_mb": [r for _, r, _ in samples],
            "returncodes": [c for _, _, c in samples],
        }
        for label, samples in runs.items()
    }


def perfbench_record(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"argv": argv[1:], "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.strip().splitlines()
    return {"argv": argv[1:], "env": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def module_lines(root: Path) -> dict:
    """Lines of each module of the package, by file name."""
    return {
        path.name: len(path.read_text().splitlines())
        for path in sorted((root / "src" / "telegraph_kit").glob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the output file")
    parser.add_argument("--out", required=True, help="JSON file; other labels in it are kept")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="perfbench run length")
    parser.add_argument(
        "--baseline", type=Path, help='a second checkout, timed alternately, stored as "parent"'
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    roots = {args.label: ROOT}
    if args.baseline is not None:
        if args.label == BASELINE_LABEL:
            parser.error(f"--label must not be {BASELINE_LABEL!r} with --baseline")
        roots[BASELINE_LABEL] = args.baseline.resolve()
    import numpy as np

    pkgs = {
        label: load_package(root, f"telegraph_kit_{i}")
        for i, (label, root) in enumerate(roots.items())
    }
    measured = {
        "scaling_process": scaling_process_record(roots, args.repeats),
        "sample_unreflected_states": sampler_record(pkgs, args.repeats),
        "tv_curve_walkers": walker_half_record(pkgs, args.repeats),
        "tv_curve_couplings": coupling_half_record(pkgs, args.repeats),
        "sde_oracle": oracle_record(pkgs, args.repeats),
        "tv_curve": tv_curve_record(pkgs, args.repeats),
        "excursions": excursions_record(pkgs, args.repeats),
        "excursion_lengths": lengths_record(pkgs, args.repeats),
    }
    order = list(roots)
    for workload in WORKLOADS:
        for label in order:
            measured.setdefault(f"perfbench_{workload}", {})[label] = perfbench_record(
                roots[label], workload, args.seed, args.seconds
            )
        order.reverse()
    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else {}
    for label, root in roots.items():
        lines = module_lines(root)
        records[label] = {
            "git_commit": git(root, "rev-parse", "HEAD"),
            "src_modified": git(root, "status", "--porcelain", "--", "src") not in ("", None),
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
            "alternated_with": [other for other in roots if other != label],
            "module_lines": lines,
            "source_lines": sum(lines.values()),
            **{name: per_label[label] for name, per_label in measured.items()},
        }
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
