"""Timing record of the package's kernels, its CLI jobs and the benchmark workloads.

Run from the root of a source checkout:

    python3 bench/run.py --label change --out BENCH_21.json
    python3 bench/run.py --label change --out BENCH_21.json --baseline ../parent

The package is imported straight from this checkout's ``src/``.  The record
holds the machine, the Python and numpy versions, the git commit and the
line count of each module of ``src/telegraph_kit`` with their total, then:

- ``cases``: every row of :func:`case_table`, timed in this process by
  :func:`time_cases`, ``--repeats`` samples a checkout, and recorded by
  :func:`case_record`;
- ``scaling_process``: the wall time, peak RSS and exit code of fresh
  ``scaling`` processes (:func:`scaling_process`), ``--repeats`` runs a
  checkout;
- ``perfbench``: for both workloads, the JSON that ``perfbench/run.py
  --workload W --trace 0`` prints, run unchanged ``PERFBENCH_PAIRS`` times a
  checkout;
- ``cli_bytes``: for every CLI-job case, the sha256 of what the job writes
  and its exit code (:func:`cli_bytes`), one untimed run a checkout.

The record is stored under ``--label`` in ``--out``; records under other
labels are kept, so one file can hold a parent commit and a change measured
on the same machine.

``--baseline DIR`` names a second checkout, say of the parent commit, and
records it too, under the label "parent".  Both packages are then loaded
side by side, afresh every repeat, and every case alternates between them
call by call, with the order swapped on every repeat; the process and
perfbench runs alternate the same way.  A shared machine whose speed
drifts over minutes then slows both records alike, where two records taken
one after the other can differ by more than the change being measured.
Even so a perfbench run lasts long enough to catch one speed regime of the
host, so a pair of them reads the host as much as the code: only the
in-process readings, medians with their win counts and paired ratios,
back a speed claim.  Each record then also holds ``same_bytes``: for every
CLI-job case, whether both checkouts wrote the same bytes with the same
exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCALES = (4.0, 16.0, 100.0)
WALKERS = 1000
TV_RUNS = 1000
TV_GRID = tuple(float(t) for t in range(1, 21))
TV_STARTS = ((1.0, 1), (0.0, 1))
SAMPLE_S = 0.05
BASELINE_LABEL = "parent"
PERFBENCH_PAIRS = 4
SCALING_CLI = ("-m", "telegraph_kit.cli", "scaling", "--n", "1000", "--scales", "4,16,100")
EXCURSION_CHUNK = 1024
HITTING_BATCHES = (1, 2048, 100_000)
STREAMS = 1024
WALK_HORIZON = 20_000.0
TREE_EXCURSIONS = 20_480
INVARIANT_EXCURSIONS = 4096
PATH_HORIZON = 600_000.0

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


def unload_packages() -> None:
    """Forget every package :func:`load_package` loaded, so the next load starts afresh."""
    for module in [m for m in sys.modules if m.startswith("telegraph_kit_")]:
        del sys.modules[module]


def perfbench_jobs() -> dict:
    """perfbench's job lists by workload, read from this checkout's ``perfbench/``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return {workload: workloads.jobs_for(workload) for workload in sorted(workloads.WORKLOADS)}


def _sampler(pkg, scale):
    params = pkg.model.ModelParams(scale - 1.0, scale + 1.0)
    return lambda: pkg.simulate.sample_unreflected_states(
        0.0, None, scale, WALKERS, params, pkg.simulate.make_stream(1, 0)
    )


def _tv_walkers(pkg, process):
    params, grid = pkg.model.ModelParams(1.0, 2.0), np.array(TV_GRID)
    pos = np.repeat([p for p, _ in TV_STARTS], TV_RUNS).astype(np.float64)
    vel = np.repeat([v for _, v in TV_STARTS], TV_RUNS)
    sample = getattr(pkg.simulate, f"sample_{process}_states")
    return lambda: sample(pos, vel, grid, 2 * TV_RUNS, params, pkg.simulate.make_stream(1, 0))


def _scalar_couplings(pkg, process):
    def call():
        params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
        couple = getattr(pkg.coupling, f"coalescent_couple_{process}")
        for _ in range(TV_RUNS):
            couple(*TV_STARTS[0], *TV_STARTS[1], TV_GRID[-1], params, rng, record_paths=False)

    return call


def _batch_couplings(pkg, process):
    params = pkg.model.ModelParams(1.0, 2.0)
    return lambda: pkg.coupling.coalescence_times(
        TV_RUNS, *TV_STARTS, TV_GRID[-1], process, params, pkg.simulate.make_stream(1, 0)
    )


def _tv_curve(pkg, process):
    params, grid = pkg.model.ModelParams(1.0, 2.0), np.array(TV_GRID)
    return lambda: pkg.analysis.tv_curve(
        *TV_STARTS, process, grid, TV_RUNS, params, pkg.simulate.make_stream(1, 0)
    )


def _oracle(pkg):
    return lambda: pkg.analysis.sde_oracle(
        1.0, 0.0, 1e-3, 1.0, WALKERS, pkg.simulate.make_stream(1, 0)
    )


def _excursion_chunk(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    return lambda: pkg.excursions.sample_excursions(
        EXCURSION_CHUNK, params, pkg.simulate.make_stream(1, 0)
    )


def _hitting(pkg, size):
    params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
    batch = None if size == 1 else size
    return lambda: pkg.excursions.sample_hitting(2.0, -1, params, rng, size=batch)


def _sigma(pkg):
    params, rng = pkg.model.ModelParams(1.0, 2.0), pkg.simulate.make_stream(1, 0)
    return lambda: pkg.excursions.sample_sigma(1.0, params, rng)


def _streams(pkg):
    def call():
        for i in range(STREAMS):
            pkg.simulate.ExpSource(pkg.simulate.make_stream(1, i)).draw()

    return call


def _walk(pkg, add=lambda t, x, v: None):
    def call():
        src = pkg.simulate.ExpSource(pkg.simulate.make_stream(1, 0))
        pkg.simulate.walk_reflected(0.0, 1, 0.0, WALK_HORIZON, 1.0, 2.0, src, add)

    return call


def _tree(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    return lambda: pkg.excursions.sample_excursions(
        TREE_EXCURSIONS, params, pkg.simulate.make_stream(1, 0)
    )


def _regenerative(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    integrands = [(lambda pos, v: np.exp(0.5 * pos), ())]
    return lambda: pkg.excursions._regenerative_estimates(
        integrands, INVARIANT_EXCURSIONS, params, pkg.simulate.make_stream(1, 0)
    )


def _path(pkg):
    """The whole-line path from (0, +1) to PATH_HORIZON at a = 1, b = 2."""
    params = pkg.model.ModelParams(1.0, 2.0)
    rng = pkg.simulate.make_stream(1, 0)
    return pkg.simulate.simulate_unreflected(0.0, 1, PATH_HORIZON, params, rng)


def _reflect(pkg):
    path = _path(pkg)
    return lambda: pkg.paths.reflect_path(path)


def _path_csv(pkg):
    path = _path(pkg)
    return lambda: pkg.paths.write_path_csv(path, io.StringIO())


def drawn_counts() -> tuple[int, int, int]:
    """Events of one ``_walk`` call, tree nodes of one ``_tree`` call and knots of ``_path``.

    All are fixed by the seed, so they count the items of either checkout
    as long as its walk and trees keep this checkout's draws.
    """
    pkg = load_package(ROOT, "telegraph_kit_counts")
    try:
        knots = []
        _walk(pkg, lambda t, x, v: knots.append(t))()
        nodes = (_tree(pkg)().jump_count + 1) // 2  # a tree of k nodes makes 2k - 1 flips
        path_knots = _path(pkg).knot_times.size
    finally:
        unload_packages()
    return len(knots), int(nodes.sum()), path_knots


def _phase_inputs(pkg):
    """Where the first TV_RUNS of 2*TV_RUNS couplings from tv_curve's starts cross, then merge.

    Times and heights of the crossings, then of the merges.  The starts
    (1, +1) and (0, +1) are their own folds, the higher first, on either
    process.
    """
    params, horizon, runs = pkg.model.ModelParams(1.0, 2.0), TV_GRID[-1], 2 * TV_RUNS
    rng = pkg.simulate.make_stream(1, 0)
    t_c, x_c = pkg.coupling._crossing_times(
        runs, *TV_STARTS, horizon, params, rng, np.zeros(runs, dtype=bool)
    )
    met = ~np.isnan(t_c)
    t_m, x_m = pkg.coupling._merge_times(t_c[met], x_c[met], horizon, params, rng)
    merged = t_m <= horizon
    if merged.sum() < TV_RUNS:
        raise RuntimeError(f"{pkg.__name__}: fewer than {TV_RUNS} of {runs} couplings merged")
    return [column[:TV_RUNS] for column in (t_c[met], x_c[met], t_m[merged], x_m[merged])]


def _crossing(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    return lambda: pkg.coupling._crossing_times(
        TV_RUNS, *TV_STARTS, TV_GRID[-1], params, pkg.simulate.make_stream(1, 0),
        np.zeros(TV_RUNS, dtype=bool),
    )


def _merging(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    t, x, _, _ = _phase_inputs(pkg)
    return lambda: pkg.coupling._merge_times(
        t, x, TV_GRID[-1], params, pkg.simulate.make_stream(1, 1)
    )


def _repairing(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    _, _, t, x = _phase_inputs(pkg)
    return lambda: pkg.coupling._repair_times(
        t, x, -1, TV_GRID[-1], params, pkg.simulate.make_stream(1, 2)
    )


def _binned_tv(pkg):
    params = pkg.model.ModelParams(1.0, 2.0)
    pos = np.repeat([p for p, _ in TV_STARTS], TV_RUNS).astype(np.float64)
    vel = np.repeat([v for _, v in TV_STARTS], TV_RUNS)
    p, v = pkg.simulate.sample_reflected_states(
        pos, vel, TV_GRID[-1], 2 * TV_RUNS, params, pkg.simulate.make_stream(1, 0)
    )
    n = TV_RUNS
    return lambda: pkg.analysis.binned_tv_noise_floor(p[:n], v[:n], p[n:], v[n:], 0.05)


def _cli_jobs(pkg, argvs):
    cli = importlib.import_module(f"{pkg.__name__}.cli")

    def call():
        for argv in argvs:
            code = cli.main([*argv, "--out", os.devnull])
            if code != 0:
                raise RuntimeError(f"{pkg.__name__}: {' '.join(argv)} exited {code}")

    return call


def job_case(job) -> str:
    """The case name of one perfbench job: its subcommand, then its process if it takes one."""
    process = dict(zip(job.argv, job.argv[1:])).get("--process")
    return f"cli/{job.command}" if process is None else f"cli/{job.command}/{process}"


def case_table(jobs: dict, seed: int) -> dict:
    """Name -> (items per call, factory); ``factory(pkg)`` returns one call of the case.

    ``jobs`` holds perfbench's job lists by workload, which run with ``seed``.
    """
    table = {}
    for scale in SCALES:
        # `scaling`'s batch sampler: n = 1000 walkers from 0 with random
        # velocities, rates (scale - 1, scale + 1), to time t * scale with t = 1
        table[f"sample_unreflected_states/{scale:g}"] = (WALKERS, partial(_sampler, scale=scale))
    for process in ("reflected", "unreflected"):
        # tv_curve's walker half at the `tvcurve` job's size: the 2n = 2000
        # walkers of the starts (1, +1) and (0, +1) carried across the grid
        # 1..20 at a = 1, b = 2, in one grid call of the endpoint sampler
        table[f"tv_curve_walkers/{process}"] = (2 * TV_RUNS, partial(_tv_walkers, process=process))
        # tv_curve's coupling half: n = 1000 time-only couplings of the same
        # starts to horizon 20, one coalescent_couple_* call a run
        table[f"tv_curve_couplings/{process}/scalar"] = (
            TV_RUNS, partial(_scalar_couplings, process=process)
        )
        # the same couplings in one coupling.coalescence_times call
        table[f"tv_curve_couplings/{process}/batch"] = (
            TV_RUNS, partial(_batch_couplings, process=process)
        )
        # the whole tv_curve at that size; a run is one coupling and one walker per start
        table[f"tv_curve/{process}"] = (TV_RUNS, partial(_tv_curve, process=process))
    # the Euler oracle at the size `scaling` once drew it: n = 1000 endpoints
    # from 0 at drift 1 to time 1, in steps of 1e-3
    table["sde_oracle"] = (WALKERS, _oracle)
    # one chunk of the `excursions` job: 1,024 excursions at a = 1, b = 2
    table["sample_excursions"] = (EXCURSION_CHUNK, _excursion_chunk)
    for size in HITTING_BATCHES:
        # hitting times from the `hitting` job's start (2, -1) at a = 1, b = 2;
        # a batch of 1 is a call without size, 2,048 is the job's --n
        table[f"sample_hitting/{size}"] = (size, partial(_hitting, size=size))
    # sample_sigma(1.0) at a = 1, b = 2, a batch of 1
    table["sample_sigma/1"] = (1, _sigma)
    # the layers below each time one kernel, at a = 1, b = 2.  Stream
    # creation: make_stream(1, i) for i < 1,024, each with its ExpSource's
    # first refill of 32 draws, per stream
    table["make_stream+ExpSource"] = (STREAMS, _streams)
    events, nodes, path_knots = drawn_counts()
    # the scalar event loop from (0, +1) to time 20,000, knots passed to a
    # no-op, per event
    table["walk_reflected"] = (events, _walk)
    # the heights tree of 20,480 excursions, the `excursions` job's size, per node
    table["sample_excursions/nodes"] = (nodes, _tree)
    # the regenerative estimator of the `invariant` job, 4,096 excursions
    # with f = exp(0.5 x), per excursion
    table["_regenerative_estimates"] = (INVARIANT_EXCURSIONS, _regenerative)
    # the phases of coalescence_times at tv_curve's starts and horizon 20,
    # per run: the crossing stage of 1,000 runs, the sticking blocks of the
    # first 1,000 that cross, and the sign repair of the first 1,000 that merge
    table["coalescence_times/_crossing_times"] = (TV_RUNS, _crossing)
    table["coalescence_times/_merge_times"] = (TV_RUNS, _merging)
    table["coalescence_times/_repair_times"] = (TV_RUNS, _repairing)
    # one grid time of tv_curve's binned TV: both starts' 1,000 reflected
    # walkers at time 20 in bins of 0.05, per walker
    table["binned_tv_noise_floor"] = (2 * TV_RUNS, _binned_tv)
    # the whole-line path of `simulate --process unreflected --horizon
    # 600000` from (0, +1), about 900,000 knots: folded, and written as
    # CSV rows to memory, per knot
    table["reflect_path"] = (path_knots, _reflect)
    table["write_path_csv"] = (path_knots, _path_csv)
    for workload, workload_jobs in jobs.items():
        argvs = [job.cli_argv(seed) for job in workload_jobs]
        for job, argv in zip(workload_jobs, argvs):
            # one perfbench job through cli.main, output to the null device;
            # its items as perfbench counts them
            table[job_case(job)] = (job.items, partial(_cli_jobs, argvs=[argv]))
        # a whole pass of the workload's job list, in its order
        table[f"cli/pass/{workload}"] = (
            sum(job.items for job in workload_jobs), partial(_cli_jobs, argvs=argvs)
        )
    return table


def alternated(calls: dict, repeats: int) -> dict:
    """Each labelled call's results over ``repeats`` rounds, reversing the order every round."""
    results = {label: [] for label in calls}
    order = list(calls)
    for _ in range(repeats):
        for label in order:
            results[label].append(calls[label]())
        order.reverse()
    return results


def timed(calls: dict) -> dict:
    """Seconds per call of each labelled call, timed back to back in the dict's order.

    After one warm-up call each, a sample averages enough calls to last about
    ``SAMPLE_S``, a count set from the slowest warm-up call and shared by
    every label, so a call of a millisecond or two is not read off a single
    timer interval.
    """
    warm_up = []
    for call in calls.values():  # first allocations
        t0 = time.perf_counter()
        call()
        warm_up.append(time.perf_counter() - t0)
    number = max(1, int(SAMPLE_S / max(warm_up)))
    out = {}
    for label, call in calls.items():
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        out[label] = (time.perf_counter() - t0) / number
    return out


def time_cases(table: dict, roots: dict, repeats: int) -> dict:
    """Samples of every case, as name -> label -> seconds per call, one per repeat.

    A case's repeats run together, each on packages loaded afresh, with the
    checkouts timed back to back in an order reversed every repeat.  A
    loaded package keeps its memory layout: on a 2-vCPU VM two loads of the
    same code read the ``invariant`` job 8 to 18% apart over 15 to 40
    alternations, and within 2% loaded afresh each repeat.  Together, the
    repeats mostly fall in one of the host's speed regimes, which last
    seconds and can double a call's time.
    """
    samples = {name: {label: [] for label in roots} for name in table}
    for name, (_, factory) in table.items():
        labels = list(roots)
        for _ in range(repeats):
            pkgs = {
                label: load_package(root, f"telegraph_kit_{i}")
                for i, (label, root) in enumerate(roots.items())
            }
            for label, seconds in timed({label: factory(pkgs[label]) for label in labels}).items():
                samples[name][label].append(seconds)
            unload_packages()
            labels.reverse()
    return samples


def case_record(items: int, runs: dict) -> dict:
    """Per label: items per call, µs per item (median and quartiles) and the samples.

    Against the other label it adds ``won``, the repeats in which this label
    was the faster, and ``median_paired_ratio``, the median over repeats of
    its sample over the other's: a repeat's two samples are taken back to
    back, so their ratio holds when a change of the host's speed regime
    between repeats splits a median.
    """
    out = {}
    for label, samples in runs.items():
        us = 1e6 * np.array(samples) / items
        out[label] = {
            "items": items,
            "median_us_per_item": float(np.median(us)),
            "quartiles_us_per_item": np.percentile(us, [25, 75]).tolist(),
            "runs_s": samples,
        }
        for other in runs.keys() - {label}:
            out[label]["won"] = sum(s < o for s, o in zip(samples, runs[other]))
            out[label]["median_paired_ratio"] = statistics.median(
                s / o for s, o in zip(samples, runs[other])
            )
    return out


def scaling_process(root: Path) -> dict:
    """Wall seconds from spawn to exit, peak RSS in MB from the rusage of ``os.wait4``
    and exit code of one fresh ``scaling`` process."""
    argv = [sys.executable, "-c", _LAUNCHER, sys.executable, *SCALING_CLI, "--out", os.devnull]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    wall, rss_kib, code = proc.stdout.split()
    return {"wall_s": float(wall), "peak_rss_mb": int(rss_kib) / 1024, "returncode": int(code)}


def cli_bytes(root: Path, argv: list) -> dict:
    """sha256 of what one fresh, untimed CLI process writes to ``--out``, and its exit code."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "telegraph_kit.cli", *argv, "--out", str(out)],
            cwd=root, env=env, capture_output=True, check=False,
        )
        text = out.read_bytes() if out.exists() else b""
    return {"sha256": hashlib.sha256(text).hexdigest(), "returncode": proc.returncode}


def perfbench_run(root: Path, argv: list) -> dict:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.strip().splitlines()
    return {"returncode": 0, "env": json.loads(lines[-2]), "result": json.loads(lines[-1])}


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
    parser.add_argument(
        "--seed", type=int, default=1, help="seed of the CLI jobs and the perfbench runs"
    )
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
    jobs = perfbench_jobs()
    table = case_table(jobs, args.seed)
    cases = {label: {} for label in roots}
    for name, runs in time_cases(table, roots, args.repeats).items():
        for label, record in case_record(table[name][0], runs).items():
            cases[label][name] = record
    scaling = alternated(
        {label: partial(scaling_process, root) for label, root in roots.items()}, args.repeats
    )
    perfbench = {label: {} for label in roots}
    for workload in jobs:
        bench_argv = [
            "perfbench/run.py", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        runs = alternated(
            {label: partial(perfbench_run, root, bench_argv) for label, root in roots.items()},
            PERFBENCH_PAIRS,
        )
        for label in roots:
            perfbench[label][workload] = {"argv": bench_argv, "runs": runs[label]}
    job_argvs = {
        job_case(job): job.cli_argv(args.seed) for listed in jobs.values() for job in listed
    }
    written = {
        label: {name: cli_bytes(root, argv) for name, argv in job_argvs.items()}
        for label, root in roots.items()
    }
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
            "cases": cases[label],
            "scaling_process": {"argv": ["python", *SCALING_CLI], "runs": scaling[label]},
            "perfbench": perfbench[label],
            "cli_bytes": written[label],
        }
        for other in roots.keys() - {label}:
            records[label]["same_bytes"] = {
                name: written[label][name] == written[other][name] for name in job_argvs
            }
    out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
