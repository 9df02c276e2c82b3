"""Runs one workload's job list through ``telegraph_kit.cli.main`` in this process.

Started by run.py with ``src`` on PYTHONPATH and TELEGRAPH_THREADS cleared.
It repeats the job list, one pass at a time, until ``--seconds`` have gone,
checks every output outside the timed region, and prints one JSON object
as its last line.  Pass k runs every job with the seed derived from
(--seed, k), so a seed fixes every input of the run.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs pairs of passes on the same seed, one untraced and one traced,
alternating which goes first; it checks the pair's outputs are
byte-identical and reports the per-layer metrics of the traced passes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import tracing
import workloads

MAX_ERRORS = 20
PROBE_RUNS = 1000


def pass_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Run:
    """Outcome tallies of one benchmark run."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.jumps: list[np.ndarray] = []
        self.ks: dict[int, list[np.ndarray]] = defaultdict(list)  # scaling --n -> KS stats

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(reason)

    def run_pass(self, cli, seed: int, tracer=None) -> tuple[float, list[str]]:
        """Run every job once; returns the summed job wall time and the outputs."""
        wall = 0.0
        texts = []
        for job in self.jobs:
            argv = job.cli_argv(seed)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, (argv,))
                wall += time.perf_counter() - t0
            text = out.getvalue()
            texts.append(text)
            self.attempted += 1
            problem = workloads.check_output(job, rc, text)
            if problem is not None:
                detail = err.getvalue().strip().splitlines()[-1:] or [""]
                self.fail(f"{' '.join(argv)}: {problem} {detail[0]}".strip())
            elif tracer is None:
                # a traced pass repeats its untraced twin's output; pooling
                # both would count each draw twice
                if job.command == "excursions":
                    self.jumps.append(workloads.jump_counts(text))
                elif job.command == "scaling":
                    self.ks[job.n].append(workloads.ks_stats(text))
        return wall, texts

    def pooled_checks(self) -> float | None:
        """Checks over the whole run; returns the mean tree nodes per excursion."""
        for n, stats in self.ks.items():
            _, problem = workloads.ks_floor_check(np.concatenate(stats), n)
            if problem is not None:
                self.fail(problem)
        if not self.jumps:
            return None
        mean, problem = workloads.tree_nodes_check(np.concatenate(self.jumps))
        if problem is not None:
            self.fail(problem)
        return mean


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def measure(cli, run: Run, seed: int, seconds: float) -> tuple[dict, dict]:
    walls = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        wall, _ = run.run_pass(cli, pass_seed(seed, k))
        walls.append(wall)
        k += 1
    run.pooled_checks()
    items = sum(job.items for job in run.jobs)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(items / w for w in walls), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, {"pass_wall_s": walls}


def us_per_item(spans) -> float:
    items = sum(s.items for s in spans)
    return 1e6 * sum(s.duration for s in spans) / items if items else 0.0


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -np.inf
    for s, e in sorted(intervals):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def layer_metrics(tracer, run: Run, passes: int, tree_nodes) -> dict:
    spans = tracer.spans()
    counts = tracer.counts()
    by_name = defaultdict(list)
    children = defaultdict(list)
    parent_of = {}
    name_of = {}
    for s in spans:
        by_name[s.name].append(s)
        name_of[s.sid] = s.name
        parent_of[s.sid] = s.parent
        if s.parent is not None:
            children[s.parent].append(s)

    def root(sid):
        while parent_of.get(sid) is not None:
            sid = parent_of[sid]
        return sid

    items_under = defaultdict(int)  # (root span, layer) -> items
    for layer in {job.gate_layer for job in run.jobs}:
        for s in by_name[layer]:
            items_under[root(s.sid), layer] += s.items

    def busy(name) -> float:
        return sum(s.duration for s in by_name[name]) / passes

    def under(parent_name, names) -> float:
        return sum(
            s.duration for name in names for s in by_name[name]
            if name_of.get(s.parent) == parent_name
        ) / passes

    mains = by_name["cli.main"]
    self_s = sum(
        m.duration - _covered((c.start, min(c.end, m.end)) for c in children[m.sid])
        for m in mains
    ) / passes
    # each traced pass runs the jobs in order, so main spans cycle through them
    gate_done = 0
    gate_expected = 0
    for i, m in enumerate(mains):
        job = run.jobs[i % len(run.jobs)]
        gate_done += items_under[m.sid, job.gate_layer]
        gate_expected += job.gate_items
    pass_items = sum(job.items for job in run.jobs)
    configs = counts["cli.configs"]
    coalescent = (
        by_name["coupling.coalescent_couple_reflected"]
        + by_name["coupling.coalescent_couple_unreflected"]
    )
    sim_paths = by_name["simulate.simulate_reflected"] + by_name["simulate.simulate_unreflected"]
    model_busy = sum(
        s.duration for s in spans
        if s.name.startswith("model.") and not name_of.get(s.parent, "").startswith("model.")
    ) / passes
    return {
        "cli.threads": (counts["cli.threads"] / configs if configs else 0.0, "count"),
        "cli.chunks": (len(by_name["simulate.make_stream"]) / passes, "count"),
        "cli.gate_attempts": (gate_done / gate_expected, "ratio"),
        "cli.self_s": (self_s, "s"),
        "cli.write_s": (sum(busy(w) for w in tracing.WRITERS), "s"),
        "cli.worker_wait_s": (
            sum(s.duration - s.cpu for s in by_name["cli.chunk"]) / passes, "s"
        ),
        "simulate.make_stream.us_per_call": (us_per_item(by_name["simulate.make_stream"]), "us"),
        "simulate.exp_sources_per_item": (
            counts["simulate.exp_sources"] / (passes * pass_items), "ratio"
        ),
        "simulate.simulate_reflected.us_per_knot": (
            us_per_item(by_name["simulate.simulate_reflected"]), "us"
        ),
        "simulate.simulate_unreflected.us_per_knot": (
            us_per_item(by_name["simulate.simulate_unreflected"]), "us"
        ),
        "simulate.sample_unreflected_states.us_per_walker": (
            us_per_item(by_name["simulate.sample_unreflected_states"]), "us"
        ),
        "paths.eval_many.us_per_query": (us_per_item(by_name["paths.eval_many"]), "us"),
        "paths.knots_per_path": (
            sum(s.items for s in sim_paths) / len(sim_paths) if sim_paths else 0.0, "count"
        ),
        "excursions.sample_excursions.us_per_excursion": (
            us_per_item(by_name["excursions.sample_excursions"]), "us"
        ),
        "excursions.tree_nodes_per_excursion": (
            0.0 if tree_nodes is None else tree_nodes, "count"
        ),
        "excursions.sample_hitting.us_per_draw": (us_per_item(by_name["excursions.sample_hitting"]), "us"),
        "excursions.regenerative_estimate.us_per_excursion": (
            us_per_item(by_name["excursions.regenerative_estimate"]), "us"
        ),
        "coupling.coalescent_couple_reflected.us_per_run": (
            us_per_item(by_name["coupling.coalescent_couple_reflected"]), "us"
        ),
        "coupling.coalescent_couple_unreflected.us_per_run": (
            us_per_item(by_name["coupling.coalescent_couple_unreflected"]), "us"
        ),
        "coupling.coalesced_frac": (
            counts["coupling.coalesced"] / len(coalescent) if coalescent else 0.0, "ratio"
        ),
        "analysis.tv_curve.couplings_s": (
            under("analysis.tv_curve", ["coupling.coalescent_couple_reflected",
                                        "coupling.coalescent_couple_unreflected"]), "s"
        ),
        "analysis.tv_curve.paths_s": (
            under("analysis.tv_curve", ["simulate.simulate_reflected",
                                        "simulate.simulate_unreflected",
                                        "paths.eval_many"]), "s"
        ),
        "analysis.binned_tv_s": (
            busy("analysis.binned_tv_estimate") + busy("analysis.binned_tv_noise_floor"), "s"
        ),
        "analysis.sde_oracle.s": (busy("analysis.sde_oracle"), "s"),
        "analysis.ks_two_sample.s": (busy("analysis.ks_two_sample"), "s"),
        "model.busy_s": (model_busy, "s"),
    }


def coupling_probes(seed: int) -> list[tracing.Span]:
    """Time the two coupling phases on the couple workload's starts.

    crossing_couple runs the crossing stage from (1, +1) and (0, +1);
    stick_couple then merges a pair from each crossing position, which is
    the state the sticking stage starts from inside the full coalescent.
    The probes get their own tracer so their draw sources and streams stay
    out of the workload's counts.
    """
    from telegraph_kit import coupling, model, simulate

    params = model.ModelParams(workloads.A, workloads.B)
    rng = simulate.make_stream(seed, 0)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for _ in range(PROBE_RUNS):
            res = coupling.crossing_couple(1.0, 1, 0.0, 1, params, rng, horizon=40.0,
                                           record_paths=False)
            if res.crossing_position is not None:
                coupling.stick_couple(res.crossing_position, params, rng, record_paths=False)
    return tracer.spans()


def trace_run(cli, run: Run, seed: int, seconds: float, workload: str) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        s = pass_seed(seed, k)
        order = (False, True) if k % 2 == 0 else (True, False)
        outputs = {}
        for with_trace in order:
            if with_trace:
                with tracing.instrumented(tracer):
                    wall, texts = run.run_pass(cli, s, tracer)
                traced.append(wall)
            else:
                wall, texts = run.run_pass(cli, s)
                plain.append(wall)
            outputs[with_trace] = texts
        for job, a, b in zip(run.jobs, outputs[False], outputs[True]):
            if a != b:
                run.fail(f"{' '.join(job.argv)}: traced output differs on seed {s}")
        k += 1
    tree_nodes = run.pooled_checks()
    metrics = layer_metrics(tracer, run, len(traced), tree_nodes)
    has_couple = any(job.command == "couple" for job in run.jobs)
    probes = coupling_probes(pass_seed(seed, k)) if has_couple else []
    for phase in ("crossing_couple", "stick_couple"):
        name = f"coupling.{phase}"
        metrics[f"{name}.us_per_run"] = (us_per_item([s for s in probes if s.name == name]), "us")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    write_spans(tracer, workload)
    return metrics, {"pass_wall_s": plain, "traced_pass_wall_s": traced}


def write_spans(tracer, workload: str) -> None:
    """Write every span once, after the run, as CSV under .perfbench/ in the checkout."""
    out_dir = os.path.join(os.environ["PERFBENCH_ROOT"], ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans_{workload}.csv")
    with open(path, "w") as fh:
        fh.write("sid,name,start,end,parent,thread,cpu,items\n")
        for s in tracer.spans():
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.sid},{s.name},{s.start!r},{s.end!r},{parent},{s.thread},{s.cpu!r},{s.items}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--n-scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from telegraph_kit import cli
    import_s = time.perf_counter() - t0

    jobs = workloads.jobs_for(args.workload, args.n_scale)
    run = Run(jobs)
    if args.trace:
        metrics, walls = trace_run(cli, run, args.seed, args.seconds, args.workload)
        metrics["cli.import_s"] = (import_s, "s")
    else:
        metrics, walls = measure(cli, run, args.seed, args.seconds)
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": cli._resolve(list(jobs[0].argv)).threads,
        **{key: [round(w, 6) for w in ws] for key, ws in walls.items()},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
