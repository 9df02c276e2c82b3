"""The benchmark's workloads: fixed CLI job lists and the checks on their output.

Every job but ``scaling`` runs with ``--check`` at a fixed ``--n``, so one
pass of a job list is the time to an answer that passed its statistical
gate.  The ``scaling`` gate asks KS statistics that all sit at the noise
floor to shrink with the scale, so it fails about one job in 200 however
the inputs are drawn; the benchmark runs that job ungated and checks its
rows itself (``scaling_rows``, ``ks_floor_check``).  All jobs use a=1,
b=2 and pass every option explicitly except ``--threads``, so the thread
count is the default users get.  README.md in this directory says why
each workload was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

A, B = 1.0, 2.0
RATES = ("--a", "1", "--b", "2")
TV_GRID = "1:20:1"
SCALES = "4,16,100"
TVCURVE_MIN_N = 1000  # tv_curve refuses fewer runs per leg


def _opt_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _flag(text: str) -> int:
    value = int(text)
    if value not in (0, 1):
        raise ValueError(f"flag must be 0 or 1, got {text!r}")
    return value


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what a correct answer to it looks like.

    ``items`` counts the rows of work one attempt produces (excursions,
    hitting draws, couplings, couplings plus paths, walkers); ``gate_layer``
    is the traced function whose summed items reach ``gate_items`` once per
    gate attempt, so a retried gate shows as a ratio above one.  ``gated``
    says whether the job runs with ``--check``; ``verify``, if given, checks
    the parsed rows further and returns a reason when they are wrong.
    """

    argv: tuple[str, ...]
    items: int
    gate_layer: str
    gate_items: int
    header: str
    rows: int
    fields: tuple[Callable[[str], object], ...]
    gated: bool = True
    verify: Callable[[list[tuple]], str | None] | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def n(self) -> int:
        return int(self.argv[self.argv.index("--n") + 1])

    def cli_argv(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed), *(("--check",) if self.gated else ())]


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


def _excursions(scale: float) -> list[Job]:
    n_exc = _scaled(20_480, scale)
    n_hit = _scaled(2_048, scale)
    n_inv = _scaled(4_096, scale)
    return [
        Job(
            ("excursions", *RATES, "--n", str(n_exc)),
            n_exc, "excursions.sample_excursions", n_exc,
            "length,jump_count,max_height", n_exc, (float, int, float),
        ),
        Job(
            ("hitting", *RATES, "--n", str(n_hit), "--start", "2,-1", "--lam", "-1"),
            n_hit, "excursions.sample_hitting", n_hit,
            "lam,estimate,std_error,n,reference", 1, (float, float, float, int, float),
        ),
        Job(
            ("invariant", *RATES, "--n", str(n_inv), "--integrand", "exponential", "--arg", "0.5"),
            n_inv, "excursions.regenerative_estimate", n_inv,
            "estimate,std_error,n,reference", 1, (float, float, int, float),
        ),
    ]


def _couple(scale: float) -> list[Job]:
    n = _scaled(2_048, scale)
    return [
        Job(
            ("couple", *RATES, "--n", str(n), "--start", "1,1", "--start2", "0,1",
             "--horizon", "40", "--process", process),
            n, f"coupling.coalescent_couple_{process}", n,
            "run_id,crossing_time,coalescence_time,crossing_position,coalesced", n,
            (int, _opt_float, _opt_float, _opt_float, _flag),
        )
        for process in ("reflected", "unreflected")
    ]


def _tvcurve(scale: float) -> list[Job]:
    n = _scaled(1_000, scale, floor=TVCURVE_MIN_N)
    grid_points = 20
    return [
        Job(
            ("tvcurve", *RATES, "--n", str(n), "--start", "1,1", "--start2", "0,1",
             "--t-grid", TV_GRID, "--process", process),
            3 * n, "analysis.tv_curve", n,
            "t,coupling_survival,binned_tv,theoretical_bound", grid_points, (float,) * 4,
        )
        for process in ("reflected", "unreflected")
    ]


def scaling_rows(rows: list[tuple]) -> str | None:
    """Check of one ``scaling`` output: inputs echoed in order, KS and p in [0, 1]."""
    for scale, (got, c, t, ks, p) in zip((float(s) for s in SCALES.split(",")), rows):
        if (got, c, t) != (scale, 1.0, 1.0):
            return f"scaling row {(got, c, t)} does not echo scale {scale}, c 1, t 1"
        if not (0.0 <= ks <= 1.0 and 0.0 <= p <= 1.0):
            return f"scaling KS {ks} or p-value {p} outside [0, 1] at scale {scale}"
    return None


def _scaling(scale: float) -> list[Job]:
    n = _scaled(1_000, scale)
    n_scales = len(SCALES.split(","))
    return [
        Job(
            ("scaling", *RATES, "--n", str(n), "--scales", SCALES),
            n_scales * n, "simulate.sample_unreflected_states", n_scales * n,
            "N,c,t,ks_stat,p_value", n_scales, (float,) * 5,
            gated=False, verify=scaling_rows,
        )
    ]


# Four job lists in two workloads: one run per workload measures twice as
# long, which a shared machine whose speed drifts over minutes needs.  The
# split keeps the chunk-pool jobs apart from the single-stream ones, so a
# change to the pool or to per-call draw sources moves the first, and the
# second shows whether path simulation and the batch samplers moved too.
WORKLOADS: dict[str, Callable[[float], list[Job]]] = {
    "excursions_couple": lambda scale: _excursions(scale) + _couple(scale),
    "tvcurve_scaling": lambda scale: _tvcurve(scale) + _scaling(scale),
}


def jobs_for(workload: str, scale: float = 1.0) -> list[Job]:
    return WORKLOADS[workload](scale)


def check_output(job: Job, rc: int, text: str) -> str | None:
    """None when the job exited 0 and wrote well-formed output, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    lines = text.splitlines()
    if not lines or lines[0] != job.header:
        return f"header {lines[0] if lines else ''!r} != {job.header!r}"
    if len(lines) - 1 != job.rows:
        return f"{len(lines) - 1} rows, expected {job.rows}"
    width = len(job.fields)
    rows = []
    for k, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != width:
            return f"row {k} has {len(cells)} fields, expected {width}"
        try:
            rows.append(tuple(parse(cell) for parse, cell in zip(job.fields, cells)))
        except ValueError as exc:
            return f"row {k}: {exc}"
    return None if job.verify is None else job.verify(rows)


def jump_counts(text: str) -> np.ndarray:
    """jump_count column of a checked ``excursions`` output."""
    return np.array([int(line.split(",")[1]) for line in text.splitlines()[1:]], dtype=np.int64)


def tree_nodes_check(jumps: np.ndarray) -> tuple[float, str | None]:
    """Mean tree nodes per excursion, and a reason if it misses b/(b-a) by 3 SE.

    Each node contributes its apex flip plus one flip per child, and every
    node but the root is a child, so nodes = (jump_count + 1) / 2.
    """
    nodes = (jumps + 1) / 2.0
    mean = float(nodes.mean())
    se = float(nodes.std(ddof=1)) / math.sqrt(nodes.size)
    target = B / (B - A)
    if abs(mean - target) > 3.0 * se:
        return mean, f"tree nodes per excursion {mean:.4f} misses {target} by more than 3 SE ({se:.4f})"
    return mean, None


def ks_stats(text: str) -> np.ndarray:
    """ks_stat column of a checked ``scaling`` output."""
    return np.array([float(line.split(",")[3]) for line in text.splitlines()[1:]])


# sqrt(n/2) times the two-sample KS statistic with n draws a side follows
# Kolmogorov's law when both samples share a law: its mean and spread
KOLMOGOROV_MEAN = math.sqrt(math.pi / 2.0) * math.log(2.0)
KOLMOGOROV_SD = math.sqrt(math.pi**2 / 12.0 - KOLMOGOROV_MEAN**2)


def ks_floor_check(stats: np.ndarray, n: int) -> tuple[float, str | None]:
    """Mean rescaled KS statistic of the run, and a reason if it is above the noise floor.

    Every scale's walkers should follow the Brownian limit to within far
    less than the sampling noise at this n, so the pooled mean of
    sqrt(n/2) * KS should read Kolmogorov's mean (finite n reads a little
    lower).  Six standard errors make a chance failure about one in 10^9
    for the ~75 statistics of a 50-second run (normal approximation), while
    a sampler whose spread is off by a fifth fails a 10-second run.
    """
    scaled = math.sqrt(n / 2.0) * stats
    mean = float(scaled.mean())
    limit = KOLMOGOROV_MEAN + 6.0 * KOLMOGOROV_SD / math.sqrt(scaled.size)
    if mean > limit:
        return mean, f"scaling mean sqrt(n/2)*KS {mean:.4f} above the noise floor's {limit:.4f}"
    return mean, None
