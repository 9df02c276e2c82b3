"""Excursion decomposition of the reflected particle.

A fresh excursion from the origin climbs an Exp(b) height E, and on the way
back down a Poisson(a*E) number of sub-excursions sprout at heights E*U_i
with independent uniform marks.  Iterating this branching picture samples
the return time S (length 2E plus the children's lengths), the flip count
and the maximal height without simulating individual events.
:func:`sample_excursions` grows a whole batch of such trees one generation
at a time with array operations, and a single excursion is a batch of one.
Hitting times from arbitrary starts and the additive origin-visit
functionals walk the same tree one node at a time, keeping lengths only.
The regenerative estimator turns exact excursion paths into invariant-law
expectations with a delta-method standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams
from .paths import PiecewisePath, write_csv
from .simulate import ExpSource, KnotRecorder, walk_reflected

__all__ = [
    "RecursionBudgetError",
    "ExcursionRecord",
    "EstimateWithCI",
    "sample_excursion_recursive",
    "sample_excursions",
    "simulate_excursion",
    "first_return_time",
    "sample_hitting",
    "sample_sigma",
    "regenerative_estimate",
    "write_excursions_csv",
]

# Hard cap on branching nodes across one call, over all the trees it grows;
# the offspring mean a/b <= 1 makes single trees finite a.s., but b == a sits
# at criticality where a runaway tree is possible and must abort rather than
# hang.
NODE_BUDGET = 100_000_000


class RecursionBudgetError(RuntimeError):
    """Branching sampler exceeded its node budget (plausible only at a == b)."""


@dataclass(frozen=True)
class ExcursionRecord:
    """Summary of one origin-to-origin excursion."""

    length: float
    jump_count: int
    max_height: float


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate with its standard error and sample size."""

    value: float
    std_error: float
    n: int

    def half_width(self, z: float = 3.0) -> float:
        return z * self.std_error


def sample_excursion_recursive(
    params: ModelParams,
    rng: np.random.Generator,
    node_budget: int = NODE_BUDGET,
) -> ExcursionRecord:
    """One excursion via the branching decomposition: a batch of one."""
    return sample_excursions(1, params, rng, node_budget)[0]


def sample_excursions(
    n: int,
    params: ModelParams,
    rng: np.random.Generator,
    node_budget: int = NODE_BUDGET,
) -> list[ExcursionRecord]:
    """n independent excursions via the branching decomposition; no event simulation.

    The trees grow one generation at a time across the whole batch: every
    live node draws its Exp(b) height E and Poisson(a*E) children, whose
    base heights are the node's base plus E*U.  The jump count excludes the
    final flip back at the origin: the apex flip of each node plus one flip
    ahead of each child.  The max height is the largest apex, base + E.
    Raises :class:`RecursionBudgetError` once the call has grown more than
    ``node_budget`` nodes over all its trees.
    """
    n = int(n)
    a, b = params.a, params.b
    length = np.zeros(n)
    jumps = np.zeros(n, dtype=np.int64)
    max_height = np.zeros(n)
    owner = np.arange(n)
    base = np.zeros(n)
    nodes = 0
    while owner.size:
        nodes += owner.size
        if nodes > node_budget:
            raise RecursionBudgetError(f"excursion trees exceeded {node_budget} nodes in one call")
        e = rng.standard_exponential(owner.size) / b
        kids = rng.poisson(a * e)
        np.add.at(length, owner, 2.0 * e)
        np.add.at(jumps, owner, 1 + kids)
        np.maximum.at(max_height, owner, base + e)
        base = np.repeat(base, kids) + np.repeat(e, kids) * rng.random(int(kids.sum()))
        owner = np.repeat(owner, kids)
    return list(map(ExcursionRecord, length.tolist(), jumps.tolist(), max_height.tolist()))


def _excursion_length_only(a: float, b: float, src: ExpSource, poisson, budget: int) -> float:
    # same tree as the full sampler, heights skipped; used by the additive
    # functionals where only lengths enter
    length = 0.0
    pending = 1
    nodes = 0
    while pending:
        nodes += 1
        if nodes > budget:
            raise RecursionBudgetError(f"excursion tree exceeded {budget} nodes")
        pending -= 1
        e = src.draw() / b
        length += 2.0 * e
        pending += int(poisson(a * e))
    return length


def sample_hitting(
    x: float, v: int, params: ModelParams, rng: np.random.Generator
) -> float:
    """Origin hitting time of the reflected particle from (x, v), by decomposition.

    Descending from x the clock runs x plus one excursion per Poisson(a*x)
    flip on the way down; ascending prepends a whole excursion for the climb
    in progress.
    """
    if v not in (-1, 1):
        raise ValueError(f"velocity must be -1 or +1, got {v}")
    x = float(x)
    if x < 0.0:
        raise ValueError("start position must be nonnegative")
    a, b = params.a, params.b
    src = ExpSource(rng)
    total = x
    n_flips = int(rng.poisson(a * x))
    for _ in range(n_flips):
        total += _excursion_length_only(a, b, src, rng.poisson, NODE_BUDGET)
    if v == 1:
        total += _excursion_length_only(a, b, src, rng.poisson, NODE_BUDGET)
    return total


def sample_sigma(u: float, params: ModelParams, rng: np.random.Generator) -> float:
    """Additive origin-visit functional: Poisson(a*u/2) excursion lengths summed.

    Additive in u by the superposition of independent Poisson counts, which
    is what lets dominating-time components accumulate per leg.
    """
    u = float(u)
    if u < 0.0:
        raise ValueError("argument must be nonnegative")
    a, b = params.a, params.b
    src = ExpSource(rng)
    total = 0.0
    for _ in range(int(rng.poisson(0.5 * a * u))):
        total += _excursion_length_only(a, b, src, rng.poisson, NODE_BUDGET)
    return total


def simulate_excursion(params: ModelParams, rng: np.random.Generator) -> PiecewisePath:
    """Event-driven excursion from (0, +1) to the next origin hit.

    Independent of the branching sampler; the two routes must agree in law,
    which the test suite checks with two-sample statistics.  The terminal
    knot is (S, 0.0, +1) and the path's horizon is S.
    """
    a, b = params.a, params.b
    rec = KnotRecorder(0.0, 1)
    src = ExpSource(rng)
    t_hit = walk_reflected(0.0, 1, 0.0, math.inf, a, b, src, rec.add, stop_at_zero=True)
    return rec.build(t_hit)


def first_return_time(params: ModelParams, rng: np.random.Generator) -> float:
    """Return time to the origin from (0, +1) by direct event simulation."""
    a, b = params.a, params.b
    add = KnotRecorder(0.0, 1, store=False).add
    src = ExpSource(rng)
    return walk_reflected(0.0, 1, 0.0, math.inf, a, b, src, add, stop_at_zero=True)


# 16-point Gauss-Legendre on [0, 1]; exact for polynomial segments and at
# machine precision for the smooth integrands used here
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _split_at_breakpoints(x0, v, dt, owner, breakpoints):
    """Split unit-speed segments wherever they cross a breakpoint position."""
    for q in breakpoints:
        q = float(q)
        reach = (q - x0) * v
        inside = (reach > 0.0) & (reach < dt)
        if not np.any(inside):
            continue
        head = np.where(inside, reach, dt)
        x0 = np.concatenate([x0, (x0 + v * head)[inside]])
        v = np.concatenate([v, v[inside]])
        owner = np.concatenate([owner, owner[inside]])
        dt = np.concatenate([head, (dt - head)[inside]])
    return x0, v, dt, owner


def _integrate_segments(f, x0, v, dt, owner, n_exc, quadrature):
    """Per-excursion integrals of f along unit-speed segments."""
    totals = np.zeros(n_exc, dtype=np.float64)
    if quadrature == "adaptive":
        from scipy.integrate import quad

        for j in range(x0.size):
            vj = int(v[j])
            val, _ = quad(lambda s, x=x0[j], w=vj: f(x + w * s, w), 0.0, float(dt[j]))
            if not math.isfinite(val):
                raise ValueError("integrand returned a non-finite value")
            totals[owner[j]] += val
        return totals
    for sign in (1, -1):
        sel = v == sign
        if not np.any(sel):
            continue
        pos = x0[sel, None] + sign * dt[sel, None] * _GL_NODES[None, :]
        vals = np.asarray(f(pos, sign), dtype=np.float64)
        if vals.shape != pos.shape:
            raise ValueError("integrand must evaluate elementwise on position arrays")
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned a non-finite value")
        seg = (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * dt[sel]
        np.add.at(totals, owner[sel], seg)
    return totals


def regenerative_estimate(
    f: Callable,
    n_excursions: int,
    params: ModelParams,
    rng: np.random.Generator,
    breakpoints=(),
    quadrature: str = "gauss",
) -> EstimateWithCI:
    """Invariant-law expectation of f(position, velocity) via excursion averages.

    Simulates exact excursion paths, integrates f along each and divides the
    summed integrals by the summed lengths.  The standard error comes from
    the delta method for the ratio.  With quadrature="gauss" the integrand is
    evaluated on arrays (positions, velocity sign) per 16-node panel, exact
    for piecewise-polynomial f provided its kinks are listed in
    ``breakpoints``; "adaptive" falls back to scipy's quad on every segment
    and accepts scalar callables.
    """
    n_excursions = int(n_excursions)
    if n_excursions < 2:
        raise ValueError("need at least two excursions for a standard error")
    if quadrature not in ("gauss", "adaptive"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    params.require_contracting("the regenerative estimator")
    seg_x0: list[np.ndarray] = []
    seg_v: list[np.ndarray] = []
    seg_dt: list[np.ndarray] = []
    seg_owner: list[np.ndarray] = []
    lengths = np.empty(n_excursions, dtype=np.float64)
    for i in range(n_excursions):
        path = simulate_excursion(params, rng)
        lengths[i] = path.horizon
        x = path.knot_positions
        t = path.knot_times
        seg_x0.append(x[:-1])
        seg_v.append(path.knot_velocities[:-1].astype(np.float64))
        seg_dt.append(np.diff(t))
        seg_owner.append(np.full(x.size - 1, i, dtype=np.int64))
    x0 = np.concatenate(seg_x0)
    v = np.concatenate(seg_v)
    dt = np.concatenate(seg_dt)
    owner = np.concatenate(seg_owner)
    if breakpoints:
        x0, v, dt, owner = _split_at_breakpoints(x0, v, dt, owner, breakpoints)
    integrals = _integrate_segments(f, x0, v, dt, owner, n_excursions, quadrature)
    total_len = lengths.sum()
    ratio = integrals.sum() / total_len
    resid = integrals - ratio * lengths
    mean_len = total_len / n_excursions
    se = float(np.sqrt(np.sum(resid * resid) / (n_excursions * (n_excursions - 1))) / mean_len)
    return EstimateWithCI(float(ratio), se, n_excursions)


def write_excursions_csv(records, dest) -> None:
    """Write ``length,jump_count,max_height`` rows for a batch of records."""
    write_csv(
        dest,
        "length,jump_count,max_height",
        (f"{rec.length!r},{rec.jump_count},{rec.max_height!r}\n" for rec in records),
    )
