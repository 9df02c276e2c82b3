"""Excursion decomposition of the reflected particle.

A fresh excursion from the origin climbs an Exp(b) height E, and on the way
back down a Poisson(a*E) number of sub-excursions sprout at heights E*U_i
with independent uniform marks.  Iterating this branching picture samples
the return time S (length 2E plus the children's lengths), the flip count
and the maximal height without simulating individual events.  Two loops
grow a whole batch of such trees one generation at a time with array
operations.  The one in :func:`sample_excursions` draws each child's base
height, and returns columns of lengths, flip counts and heights.  The
other draws lengths only: hitting times from arbitrary starts, the additive
origin-visit functional and the hitting stages of the array coupling kernel
add up the climbs of a Poisson number of trees per draw, and with a
horizon it stops growing a draw's trees once the draw passes it.  All are
batch calls, and a single draw is a batch of one.  The regenerative estimator
turns exact event-simulated excursion paths into invariant-law
expectations with a delta-method standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import ModelParams
from .paths import KnotRecorder, PiecewisePath, write_csv
from .simulate import ExpSource, walk_reflected

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

# Cap on the events the regenerative estimator walks in one call: the CLI's
# 2 GiB memory budget at about 380 bytes an event (4.29e6 events peaked at
# 1.55 GB on x86-64 Linux), above the 3.6e6 of the largest ``invariant --n``
# at b/a = 2.  Near b == a one excursion alone can walk past any budget.
_EVENT_BUDGET = (2 << 30) // 380

# numpy's Poisson sampler costs about 7 us a call on an array of up to 32
# means and about 0.45 us a scalar mean (break-even near 14), and an array
# call draws what scalar calls in its order draw; so this many means or
# fewer go through scalar calls
_SCALAR_POISSON = 8


class RecursionBudgetError(RuntimeError):
    """A call passed its node or event budget (plausible only at or near a == b)."""


def _check_budget(nodes) -> None:
    """Refuse a call whose node count, or one draw's expected root count, passes NODE_BUDGET.

    The constant is read at call time, so a patched value holds for every tree.
    """
    if nodes > NODE_BUDGET:
        raise RecursionBudgetError(f"excursion trees passed {NODE_BUDGET} nodes in one call")


def _poisson(rng: np.random.Generator, means) -> np.ndarray:
    """``rng.poisson(means)`` as an int64 array, with the same draws and generator state."""
    means = np.asarray(means)
    if means.size > _SCALAR_POISSON:
        return rng.poisson(means)
    return np.array([rng.poisson(m) for m in means.flat], dtype=np.int64).reshape(means.shape)


class ExcursionRecord(NamedTuple):
    """Length, flip-count and max-height columns of a batch of origin-to-origin excursions."""

    length: np.ndarray
    jump_count: np.ndarray
    max_height: np.ndarray


@dataclass(frozen=True)
class EstimateWithCI:
    """Monte Carlo estimate with its standard error and sample size."""

    value: float
    std_error: float
    n: int

    def half_width(self, z: float = 3.0) -> float:
        return z * self.std_error


def sample_excursion_recursive(params: ModelParams, rng: np.random.Generator) -> ExcursionRecord:
    """One excursion via the branching decomposition: a batch of one, as Python scalars."""
    return ExcursionRecord._make(column.item() for column in sample_excursions(1, params, rng))


def sample_excursions(n: int, params: ModelParams, rng: np.random.Generator) -> ExcursionRecord:
    """n independent excursions via the branching decomposition; no event simulation.

    The trees grow together a generation at a time: each live node draws
    its Exp(b) climb E, then Poisson(a*E) children based at base + E*U.
    Returns float64, int64 and float64 columns of length n.  The jump count
    excludes the final flip back at the origin: the apex flip of each node
    plus one flip ahead of each child, 2k - 1 flips for a tree of k nodes.
    The max height is the largest apex, base + E.  Raises
    :class:`RecursionBudgetError` once the call has grown more than
    ``NODE_BUDGET`` nodes over all its trees, the roots counted before
    their arrays are built.
    """
    a, b = params.a, params.b
    n = nodes = int(n)
    _check_budget(nodes)
    length = np.zeros(n)
    jumps = np.full(n, -1, dtype=np.int64)
    max_height = np.zeros(n)
    owner = np.arange(n)
    base = np.zeros(n)
    while owner.size:
        e = rng.standard_exponential(owner.size) / b
        np.add.at(length, owner, 2.0 * e)
        np.add.at(jumps, owner, 2)
        np.maximum.at(max_height, owner, base + e)
        kids = _poisson(rng, a * e)
        born = int(kids.sum())
        nodes += born
        _check_budget(nodes)
        base = np.repeat(base, kids) + np.repeat(e, kids) * rng.random(born)
        owner = np.repeat(owner, kids)
    return ExcursionRecord(length, jumps, max_height)


def _summed_lengths(start, mean_roots, extra, horizon, params, rng):
    """start plus Poisson(mean_roots) + extra excursion lengths per draw, inf past the horizon.

    start and mean_roots share one shape, which the result takes, and extra
    is a bool or a bool array of that shape; a 0-d result is a float.
    mean_roots must be finite where start passes the horizon.  The
    trees of all draws grow together a generation at a time, with only their
    Exp(b) climbs drawn, as lengths need no heights: a node of climb E adds
    2E and has Poisson(a*E) children.  A draw whose partial sum passes the
    horizon will end past it, so it reads inf and grows no more nodes, and a
    draw whose start alone passes it draws no roots; so a draw grows at most
    about b*horizon/2 nodes past its a*horizon roots, even at a == b.  The
    expected roots are refused past the node budget before the Poisson draw,
    which could not represent them, and the budget counts every node of the
    call.
    """
    a, b = params.a, params.b
    total = np.array(start, dtype=np.float64)
    near = total <= horizon
    # a Poisson mean of 0 takes no draw, so far draws skip the stream
    mean_roots = mean_roots * near
    _check_budget(mean_roots.max(initial=0.0))
    kids = np.ravel(_poisson(rng, mean_roots) + (extra & near))
    shape = total.shape
    total = total.ravel()
    owner = np.arange(total.size)
    nodes = 0
    while born := int(kids.sum()):
        nodes += born
        _check_budget(nodes)
        owner = np.repeat(owner, kids)
        e = rng.standard_exponential(owner.size) / b
        total += np.bincount(owner, 2.0 * e, total.size)
        keep = total[owner] <= horizon
        owner, kids = owner[keep], _poisson(rng, a * e[keep])
    if horizon < math.inf:  # the public samplers' calls have no horizon
        total[total > horizon] = math.inf
    total = total.reshape(shape)
    return float(total) if total.ndim == 0 else total


def sample_hitting(x, v: int, params: ModelParams, rng: np.random.Generator, size=None):
    """Origin hitting time of the reflected particle from (x, v), by decomposition.

    Descending from x the clock runs x plus one excursion per Poisson(a*x)
    flip on the way down; ascending adds a whole excursion for the climb in
    progress.  ``size`` draws that many independent times as one batch, in
    numpy's manner (``x`` may be an array that broadcasts against it);
    without it the call is a batch of one and returns a float.
    """
    if v not in (-1, 1):
        raise ValueError(f"velocity must be -1 or +1, got {v}")
    x = np.asarray(x, dtype=np.float64)
    if not (x >= 0.0).all():
        raise ValueError("start position must be nonnegative")
    if size is not None:
        x = np.broadcast_to(x, size)
    return _summed_lengths(x, params.a * x, v == 1, math.inf, params, rng)


def sample_sigma(u, params: ModelParams, rng: np.random.Generator, size=None):
    """Additive origin-visit functional: Poisson(a*u/2) excursion lengths summed.

    Additive in u by the superposition of independent Poisson counts, which
    is what lets dominating-time components accumulate per leg.  ``size``
    and array ``u`` batch the draws as in :func:`sample_hitting`.
    """
    u = np.asarray(u, dtype=np.float64)
    if not (u >= 0.0).all():
        raise ValueError("argument must be nonnegative")
    if size is not None:
        u = np.broadcast_to(u, size)
    return _summed_lengths(np.zeros(u.shape), 0.5 * params.a * u, False, math.inf, params, rng)


def simulate_excursion(params: ModelParams, rng: np.random.Generator) -> PiecewisePath:
    """Event-driven excursion from (0, +1) to the next origin hit.

    Independent of the branching sampler; the two routes must agree in law,
    which the test suite checks with two-sample statistics.  The terminal
    knot is (S, 0.0, +1) and the path's horizon is S.
    """
    return _walk_excursion(params, rng, math.inf)


def _walk_excursion(params: ModelParams, rng: np.random.Generator, horizon: float):
    """The path :func:`simulate_excursion` walks, same draws and all, or None past the horizon."""
    rec, a, b = KnotRecorder(0.0, 1), params.a, params.b
    t_hit = walk_reflected(0.0, 1, 0.0, horizon, a, b, ExpSource(rng), rec.add, stop_at_zero=True)
    return None if t_hit is None else rec.build(t_hit)


def first_return_time(params: ModelParams, rng: np.random.Generator) -> float:
    """Return time to the origin from (0, +1) by direct event simulation."""
    a, b = params.a, params.b
    add = KnotRecorder(0.0, 1, store=False).add
    src = ExpSource(rng)
    return walk_reflected(0.0, 1, 0.0, math.inf, a, b, src, add, stop_at_zero=True)


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


def _integrate_segments(f, x0, v, dt, owner, n_exc):
    """Per-excursion integrals of f along unit-speed segments.

    16-point Gauss-Legendre on [0, 1], exact for polynomial segments and at machine precision
    for the smooth integrands used here; built on use, as numpy.polynomial slows every start.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    totals = np.zeros(n_exc, dtype=np.float64)
    for sign in (1, -1):
        sel = v == sign
        if not np.any(sel):
            continue
        pos = x0[sel, None] + sign * dt[sel, None] * nodes[None, :]
        vals = np.asarray(f(pos, sign), dtype=np.float64)
        if vals.shape != pos.shape:
            raise ValueError("integrand must evaluate elementwise on position arrays")
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned a non-finite value")
        seg = (vals * weights[None, :]).sum(axis=1) * dt[sel]
        np.add.at(totals, owner[sel], seg)
    return totals


def regenerative_estimate(
    f: Callable,
    n_excursions: int,
    params: ModelParams,
    rng: np.random.Generator,
    breakpoints=(),
) -> EstimateWithCI:
    """Invariant-law expectation of f(position, velocity) via excursion averages.

    Simulates exact excursion paths, integrates f along each and divides the
    summed integrals by the summed lengths.  The standard error comes from
    the delta method for the ratio.  The integrand is evaluated on arrays
    (positions, velocity sign) per 16-node Gauss-Legendre panel, exact for
    piecewise-polynomial f provided its kinks are listed in ``breakpoints``.
    """
    return _regenerative_estimates([(f, breakpoints)], n_excursions, params, rng)[0]


def _regenerative_estimates(integrands, n_excursions, params, rng):
    """:func:`regenerative_estimate` for each (f, breakpoints) pair, over one excursion batch.

    Every integrand is integrated along the same event-simulated segments,
    split only at its own breakpoints, so the first estimate is bit for bit
    the one :func:`regenerative_estimate` gives for it alone.  An excursion
    still walking when the events left of ``_EVENT_BUDGET`` run out, as time
    at the mean flip rate (a+b)/2, raises :class:`RecursionBudgetError`.
    """
    n_excursions = int(n_excursions)
    if n_excursions < 2:
        raise ValueError("need at least two excursions for a standard error")
    params.require_contracting("the regenerative estimator")
    seg_x0: list[np.ndarray] = []
    seg_v: list[np.ndarray] = []
    seg_dt: list[np.ndarray] = []
    seg_owner: list[np.ndarray] = []
    lengths = np.empty(n_excursions, dtype=np.float64)
    events_left = _EVENT_BUDGET
    for i in range(n_excursions):
        # the events left as time at the mean flip rate, halved first so that a + b cannot overflow
        path = _walk_excursion(params, rng, events_left / (0.5 * params.a + 0.5 * params.b))
        if path is None:
            raise RecursionBudgetError(f"excursions passed {_EVENT_BUDGET:,} events in one call")
        events_left -= path.knot_times.size - 1
        lengths[i] = path.horizon
        x = path.knot_positions
        t = path.knot_times
        seg_x0.append(x[:-1])
        seg_v.append(path.knot_velocities[:-1].astype(np.float64))
        seg_dt.append(np.diff(t))
        seg_owner.append(np.full(x.size - 1, i, dtype=np.int64))
    segments = tuple(map(np.concatenate, (seg_x0, seg_v, seg_dt, seg_owner)))
    total_len = lengths.sum()
    mean_len = total_len / n_excursions
    estimates = []
    for f, breakpoints in integrands:
        x0, v, dt, owner = segments
        if breakpoints:
            x0, v, dt, owner = _split_at_breakpoints(x0, v, dt, owner, breakpoints)
        integrals = _integrate_segments(f, x0, v, dt, owner, n_excursions)
        ratio = integrals.sum() / total_len
        resid = integrals - ratio * lengths
        se = float(np.sqrt(np.sum(resid * resid) / (n_excursions * (n_excursions - 1))) / mean_len)
        estimates.append(EstimateWithCI(float(ratio), se, n_excursions))
    return estimates


def write_excursions_csv(records: ExcursionRecord, dest) -> None:
    """Write a ``length,jump_count,max_height`` row per excursion, as :func:`write_csv` writes."""
    write_csv(dest, "length,jump_count,max_height", records)
