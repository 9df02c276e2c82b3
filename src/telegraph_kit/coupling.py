"""Exact couplings of two telegraph particles and their coalescence times.

Half-line pairs couple in two stages.  A crossing stage drives the gap to
zero: whenever the velocities agree the two copies share every clock and the
gap is frozen, and whenever they oppose each other across a shrinking gap a
single Exp(a+b) clock with a Bernoulli(a/(a+b)) mark decides which copy
flips first.  Once the copies meet with opposite velocities, a sticking
stage swaps the roles of the two clocks (ascent of one copy, descent of the
other) so the copies trade displacement until a descent outlasts the lower
copy's height, at which point both sit at the same state and stay merged
forever.  Every phase uses each copy's correct marginal clocks, so both legs
remain exact copies of the reflected process.

Whole-line pairs run the same driver on their folded starts, with one sign
per leg that flips at every origin visit.  If the signs disagree once the
folded copies have merged, the pair waits at an origin visit for one Exp(2b)
flip assigned by a fair coin.  The legs are then mirror images through the
origin, which folds to copies meeting head-on, so the sign repair is the
sticking stage again: the flipped leg descends, crosses the origin (its sign
flips) and the pair merges with equal signs.

The dominating time stacks the worst case of every phase: it is built from
one Exp(a+b) clock, origin-visit functionals and descent times, is sampled
exactly by the excursion decomposition, and its exponential moments have the
closed product form in :func:`dominating_time_mgf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .excursions import _capped_hitting, sample_hitting, sample_sigma
from .model import INFINITE, LaplaceValue, ModelParams, excursion_mgf, hitting_exponent
from .paths import KnotRecorder, PiecewisePath, check_start, fold, write_csv
from .simulate import ExpSource, walk_reflected

__all__ = [
    "CouplingResult",
    "DominatingTimeSample",
    "crossing_couple",
    "stick_couple",
    "coalescent_couple_reflected",
    "coalescent_couple_unreflected",
    "coalescence_times",
    "sample_dominating_time",
    "dominating_time_mgf",
    "write_coupling_batch_csv",
]


@dataclass
class CouplingResult:
    """Outcome of one coupled run.

    Times are None when the corresponding event did not happen before the
    horizon.  ``indep_clock`` is the length of the initial independent phase
    of the crossing stage whenever that phase ran, whether or not the run
    crossed before the horizon, and zero when the start needs none; the
    displacement at crossing is bounded by half the initial gap plus this
    clock, run by run.  Paths are None when the run was sampled in time-only
    mode, which also stops the run at its merge.
    """

    crossing_time: float | None
    crossing_position: float | None
    coalescence_time: float | None
    indep_clock: float
    path_1: PiecewisePath | None
    path_2: PiecewisePath | None
    horizon: float

    @property
    def coalesced(self) -> bool:
        return self.coalescence_time is not None


def _both(rec_1, rec_2):
    """One knot sink feeding both legs, for the stretches where they share a walk."""
    add_1, add_2 = rec_1.add, rec_2.add

    def add(t: float, x: float, v: int) -> None:
        add_1(t, x, v)
        add_2(t, x, v)

    return add


def _check_horizon(horizon) -> float:
    hz = float(horizon)
    if not (hz > 0.0 and math.isfinite(hz)):
        raise ValueError("horizon must be positive and finite")
    return hz


def _glued(rec_hi, rec_lo, delta):
    """Knot sink for the common-velocity phase: the upper leg rides delta above.

    Both legs take every knot of the lower leg's walk except its origin knot,
    which the upper leg, still descending, does not see.
    """
    add_hi, add_lo = rec_hi.add, rec_lo.add

    def add(t: float, x: float, v: int) -> None:
        add_lo(t, x, v)
        if x != 0.0:
            add_hi(t, x + delta, v)

    return add


def _crossing_phase(x_hi, v_hi, x_lo, v_lo, horizon, a, b, src, rec_hi, rec_lo):
    """Drive the ordered pair to equal positions with opposite velocities.

    Returns (crossing time, crossing position, independent-phase clock,
    upper-leg velocity at crossing); the time and position are None on a
    horizon abort, and the clock is reported either way.  The caller
    guarantees x_hi >= x_lo and that the states are not identical.
    """
    t = 0.0
    indep = 0.0
    glue = None
    opp = None
    if v_hi == v_lo:
        glue = (x_lo, v_lo, x_hi - x_lo)
    elif x_hi == x_lo:
        # already meeting head-on; the sticking stage takes over immediately
        return 0.0, x_hi, 0.0, v_hi
    elif v_hi == 1:
        # upper climbs (rate b), lower descends (rate a): first of the two
        # flip clocks and the lower leg's origin hit ends the phase with a
        # shared velocity either way
        e_lo = src.draw() / a
        e_hi = src.draw() / b
        indep = min(e_lo, e_hi, x_lo)
        t = indep
        if x_lo <= e_lo and x_lo <= e_hi:
            rec_lo.add(t, 0.0, 1)
            glue = (0.0, 1, x_hi + x_lo)
        elif e_hi < e_lo:
            rec_hi.add(t, x_hi + e_hi, -1)
            glue = (x_lo - e_hi, -1, (x_hi - x_lo) + 2.0 * e_hi)
        else:
            rec_lo.add(t, x_lo - e_lo, 1)
            glue = (x_lo - e_lo, 1, (x_hi - x_lo) + 2.0 * e_lo)
    else:
        opp = (x_hi, x_lo)
    while True:
        if glue is not None:
            # common velocity: the legs share every clock, so the lower leg's
            # walk to its next origin hit carries both; the gap stays delta
            x, u, delta = glue
            add = _glued(rec_hi, rec_lo, delta)
            t = walk_reflected(x, u, t, horizon, a, b, src, add, stop_at_zero=True)
            if t is None:
                return None, None, indep, None
            opp = (delta, 0.0)
            glue = None
        h, l = opp
        gap = h - l
        if gap == 0.0:
            return t, h, indep, -1
        # opposed phase: gap shrinks at speed 2; one Exp(a+b) clock races the
        # meeting point, a Bernoulli(a/(a+b)) mark names the leg that flips
        tau = src.draw() / (a + b)
        if tau >= 0.5 * gap:
            t_meet = t + 0.5 * gap
            if t_meet > horizon:
                return None, None, indep, None
            return t_meet, 0.5 * (h + l), indep, -1
        t += tau
        if t > horizon:
            return None, None, indep, None
        h -= tau
        l += tau
        if src.uniform() < a / (a + b):
            rec_hi.add(t, h, 1)
            glue = (l, 1, h - l)
        else:
            rec_lo.add(t, l, -1)
            glue = (l, -1, h - l)


def _stick_phase(t, x_cur, horizon, a, b, src, rec_up, rec_dn):
    """Clock-swapped blocks from the met state until the legs merge.

    Per block the up leg climbs for Exp(b)=Q and the down leg descends for
    Exp(a)=R; swapping which leg consumes which clock re-opposes them at
    height x+Q-R when R < x, and merges them at (Q, -1) when the descent
    outlasts the height.  Returns the merged state (time, Q, -1), or None on
    a horizon abort.  A synchronisation knot is written to the up leg at the
    merge so both legs share interpolation bases bit for bit afterwards.
    """
    while True:
        if t > horizon:
            return None
        r = src.draw() / a
        q = src.draw() / b
        if r < x_cur:
            t_end = t + (r + q)
            x_next = x_cur + (q - r)
            rec_up.add(t + q, x_cur + q, -1)
            rec_dn.add(t + r, x_cur - r, 1)
            rec_up.add(t_end, x_next, 1)
            rec_dn.add(t_end, x_next, -1)
            t = t_end
            x_cur = x_next
        else:
            # the descent outlasts the height: the down leg reflects at the
            # origin (at once from a met state at height 0) and climbs Q
            t_hit = t + x_cur
            rec_up.add(t + q, x_cur + q, -1)
            rec_dn.add(t_hit, 0.0, 1)
            t_end = t_hit + q
            rec_dn.add(t_end, q, -1)
            rec_up.add(t_end, q, -1)
            return (t_end, q, -1) if t_end <= horizon else None


def _sign_repair(t, x, v, horizon, a, b, src, rec_1, rec_2):
    """Merge whole-line legs whose folded copies merged at (x, v) with unequal signs.

    The shared folded walk runs on to its next origin visit, where the legs
    sit at the origin heading opposite ways.  The first of their two Exp(b)
    flip clocks fires after Exp(2b), and a fair coin names the leg; the
    losing clock restarts by memorylessness, so each leg's flip stream stays
    rate correct.  The flipped leg turns back toward the origin, so the
    folded copies meet head-on at the wait's length: the flipped leg is the
    down leg of the sticking blocks, whose sign flips as it crosses the
    origin.  Returns the merged state as :func:`_stick_phase` does.
    """
    if x > 0.0:
        both = _both(rec_1, rec_2)
        t = walk_reflected(x, v, t, horizon, a, b, src, both, stop_at_zero=True)
        if t is None:
            return None
    e_wait = src.draw() / (2.0 * b)
    t += e_wait
    if t > horizon:
        return None
    if src.uniform() < 0.5:
        rec_dn, rec_up = rec_1, rec_2
    else:
        rec_dn, rec_up = rec_2, rec_1
    rec_dn.add(t, e_wait, -1)
    return _stick_phase(t, e_wait, horizon, a, b, src, rec_up, rec_dn)


def _coalesce(x1, v1, x2, v2, horizon, params, src, rec1, rec2) -> CouplingResult:
    """The coalescent coupling of the folded starts (x1, v1) and (x2, v2).

    Unsigned recorders make it the half-line coupling; signed recorders
    unfold each leg into its whole-line path.  Identical folded starts are
    merged at time 0; other pairs run the crossing and sticking stages on
    the legs ordered by state.  Whole-line legs whose signs differ at the
    merge go through :func:`_sign_repair`.  Once merged with equal signs the
    legs share one walk to the horizon, skipped when no knots are stored.
    """
    a, b = params.a, params.b
    t_c = pos_c = merged = None
    indep = 0.0
    if (x1, v1) == (x2, v2):
        merged = (0.0, x1, v1)
    else:
        if (x1, v1) >= (x2, v2):
            hi_x, hi_v, rec_hi, lo_x, lo_v, rec_lo = x1, v1, rec1, x2, v2, rec2
        else:
            hi_x, hi_v, rec_hi, lo_x, lo_v, rec_lo = x2, v2, rec2, x1, v1, rec1
        t_c, pos_c, indep, hi_vel = _crossing_phase(
            hi_x, hi_v, lo_x, lo_v, horizon, a, b, src, rec_hi, rec_lo
        )
        if t_c is not None:
            rec_up, rec_dn = (rec_lo, rec_hi) if hi_vel == -1 else (rec_hi, rec_lo)
            merged = _stick_phase(t_c, pos_c, horizon, a, b, src, rec_up, rec_dn)
    if merged is not None and rec1.sign != rec2.sign:
        merged = _sign_repair(*merged, horizon, a, b, src, rec1, rec2)
    t_m = None
    if merged is not None:
        t_m, x_m, v_m = merged
        if rec1.stores:
            walk_reflected(x_m, v_m, t_m, horizon, a, b, src, _both(rec1, rec2))
    return CouplingResult(
        t_c, pos_c, t_m, indep, rec1.build(horizon), rec2.build(horizon), horizon
    )


def crossing_couple(
    x: float,
    v: int,
    x_other: float,
    v_other: int,
    params: ModelParams,
    rng: np.random.Generator,
    horizon: float | None = None,
    record_paths: bool = True,
) -> CouplingResult:
    """Couple two reflected legs until they first meet with opposite velocities.

    Requires x >= x_other; callers order the pair and remember the swap.
    With horizon=None the stage runs until it crosses (a.s. finite).  The
    returned paths stop at the crossing.  Identical starts share every clock
    and the crossing is declared at their first origin visit.
    """
    x, v = check_start(x, v, reflected=True)
    x_other, v_other = check_start(x_other, v_other, reflected=True)
    if x < x_other:
        raise ValueError("crossing_couple expects the first start at or above the second")
    hz = math.inf if horizon is None else float(horizon)
    rec1 = KnotRecorder(x, v, store=record_paths)
    rec2 = KnotRecorder(x_other, v_other, store=record_paths)
    src = ExpSource(rng)
    a, b = params.a, params.b
    if x == x_other and v == v_other:
        t_c = walk_reflected(x, v, 0.0, hz, a, b, src, _both(rec1, rec2), stop_at_zero=True)
        pos_c, indep = (None if t_c is None else 0.0), 0.0
    else:
        t_c, pos_c, indep, _ = _crossing_phase(x, v, x_other, v_other, hz, a, b, src, rec1, rec2)
    path_horizon = t_c if t_c is not None else (hz if horizon is not None else 0.0)
    return CouplingResult(
        crossing_time=t_c,
        crossing_position=pos_c,
        coalescence_time=None,
        indep_clock=indep,
        path_1=rec1.build(path_horizon),
        path_2=rec2.build(path_horizon),
        horizon=path_horizon,
    )


def stick_couple(
    x: float,
    params: ModelParams,
    rng: np.random.Generator,
    horizon: float | None = None,
    record_paths: bool = True,
) -> CouplingResult:
    """Merge legs started at (x, +1) and (x, -1) by swapping their clocks.

    With horizon=None the blocks run until the merge (a.s. finite) and the
    paths stop there; with a horizon the merged leg is continued to it when
    paths are recorded.  A start at the origin collapses the first descent:
    the second leg reflects instantly and the first block is the merging one.
    """
    x = check_start(x, 1, reflected=True)[0]
    hz = math.inf if horizon is None else float(horizon)
    dn_v = 1 if x == 0.0 else -1
    rec_up = KnotRecorder(x, 1, store=record_paths)
    rec_dn = KnotRecorder(x, dn_v, store=record_paths)
    src = ExpSource(rng)
    a, b = params.a, params.b
    merged = _stick_phase(0.0, x, hz, a, b, src, rec_up, rec_dn)
    t_m = None if merged is None else merged[0]
    path_horizon = t_m if horizon is None else hz
    if merged is not None and horizon is not None and record_paths:
        walk_reflected(merged[1], merged[2], t_m, hz, a, b, src, _both(rec_up, rec_dn))
    return CouplingResult(
        crossing_time=None,
        crossing_position=None,
        coalescence_time=t_m,
        indep_clock=0.0,
        path_1=rec_up.build(path_horizon),
        path_2=rec_dn.build(path_horizon),
        horizon=path_horizon,
    )


def coalescent_couple_reflected(
    x: float,
    v: int,
    x_other: float,
    v_other: int,
    horizon: float,
    params: ModelParams,
    rng: np.random.Generator,
    record_paths: bool = True,
) -> CouplingResult:
    """Full half-line coalescent: crossing stage, sticking stage, merged tail.

    Accepts the starts in either order; the result's paths follow the
    argument order.  After the merge both paths reference the same knots, so
    their evaluations agree bit for bit from the coalescence time on.
    """
    x, v = check_start(x, v, reflected=True)
    x_other, v_other = check_start(x_other, v_other, reflected=True)
    hz = _check_horizon(horizon)
    rec1 = KnotRecorder(x, v, store=record_paths)
    rec2 = KnotRecorder(x_other, v_other, store=record_paths)
    return _coalesce(x, v, x_other, v_other, hz, params, ExpSource(rng), rec1, rec2)


def coalescent_couple_unreflected(
    y: float,
    w: int,
    y_other: float,
    w_other: int,
    horizon: float,
    params: ModelParams,
    rng: np.random.Generator,
    record_paths: bool = True,
) -> CouplingResult:
    """Whole-line coalescent built over the folded coupling.

    The folded pair is coupled on the half line; each leg unfolds with a
    sign that flips at its origin visits.  If the signs agree when the
    folded legs merge the pair is already equal; otherwise the run continues
    to the next origin visit and repairs the signs with an Exp(2b) wait and
    the sticking blocks.  crossing_* report the folded stage's crossing.
    """
    y, w = check_start(y, w)
    y_other, w_other = check_start(y_other, w_other)
    hz = _check_horizon(horizon)
    rec1 = KnotRecorder(y, w, signed=True, store=record_paths)
    rec2 = KnotRecorder(y_other, w_other, signed=True, store=record_paths)
    x1, v1, _ = fold(y, w)
    x2, v2, _ = fold(y_other, w_other)
    res = _coalesce(x1, v1, x2, v2, hz, params, ExpSource(rng), rec1, rec2)
    if y_other == -y and w_other == w and y != 0.0:
        # mirror-symmetric start: the folded copies meet head-on at |y|, so
        # the sticking blocks start at once and no crossing is reported
        res.crossing_time = res.crossing_position = None
    return res


def _crossing_times(n, hi, lo, horizon, params, rng, odd):
    """The crossing stage of n runs from the ordered folded starts hi and lo, as arrays.

    Returns each run's crossing time and position, nan on a horizon abort.
    The runs alternate in step: a common-velocity phase is one batched
    hitting draw, the lower leg's origin visit, which flips ``odd``; an
    opposed round is one Exp(a+b) race against the meeting point, whose
    flips take a Bernoulli(a/(a+b)) mark naming the leg, as in
    :func:`_crossing_phase`.
    """
    a, b = params.a, params.b
    (x_hi, v_hi), (x_lo, v_lo) = hi, lo
    t_c = np.full(n, math.nan)
    x_c = np.full(n, math.nan)
    if v_hi != v_lo and x_hi == x_lo:
        t_c[:], x_c[:] = 0.0, x_hi
        return t_c, x_c
    run = np.arange(n)
    t = np.zeros(n)
    glued = True
    if v_hi == v_lo:
        x, up, gap = np.full(n, x_lo), np.full(n, v_lo == 1), np.full(n, x_hi - x_lo)
    elif v_hi == 1:
        # independent phase: the lower leg's flip, the upper leg's flip or
        # the lower leg's origin hit, whichever comes first, leaves the legs
        # with a common velocity, down after an upper flip and up otherwise
        e_lo = rng.standard_exponential(n) / a
        e_hi = rng.standard_exponential(n) / b
        t = np.minimum(np.minimum(e_lo, e_hi), x_lo)
        hit = (x_lo <= e_lo) & (x_lo <= e_hi)
        odd ^= hit
        x, up = x_lo - t, hit | (e_lo <= e_hi)
        gap = np.where(hit, x_hi + x_lo, (x_hi - x_lo) + 2.0 * t)
    else:
        h, l = np.full(n, x_hi), np.full(n, x_lo)
        glued = False
    while run.size:
        if glued:
            t = _capped_hitting(t, x, up, horizon, params, rng)
            live = t <= horizon
            run, t, h = run[live], t[live], gap[live]
            l = np.zeros(run.size)
            odd[run] ^= True
        half = 0.5 * (h - l)
        tau = rng.standard_exponential(run.size) / (a + b)
        meet = tau >= half
        t_meet = t + half
        crossed = meet & (t_meet <= horizon)
        t_c[run[crossed]] = t_meet[crossed]
        x_c[run[crossed]] = 0.5 * (h + l)[crossed]
        t += tau
        live = ~meet & (t <= horizon)
        run, t, tau = run[live], t[live], tau[live]
        x = l[live] + tau
        gap = (h[live] - tau) - x
        up = rng.random(run.size) < a / (a + b)
        glued = True
    return t_c, x_c


def _merge_times(t, x, horizon, params, rng):
    """Sticking blocks from met heights x at times t, as arrays: merge times and heights.

    Each block draws the down leg's descent Exp(a) and the up leg's climb
    Exp(b), as in :func:`_stick_phase`; a descent that outlasts the height
    merges the run at (climb, -1), after the down leg's one origin visit of
    the stage.  Time is inf, and height nan, for runs that merge past the
    horizon.
    """
    a, b = params.a, params.b
    t_m = np.full(t.size, math.inf)
    x_m = np.full(t.size, math.nan)
    run = np.arange(t.size)
    while run.size:
        r = rng.standard_exponential(run.size) / a
        q = rng.standard_exponential(run.size) / b
        merging = r >= x
        t = t + (np.minimum(r, x) + q)
        done = merging & (t <= horizon)
        t_m[run[done]] = t[done]
        x_m[run[done]] = q[done]
        live = ~merging & (t <= horizon)
        run, t, x = run[live], t[live], (x + (q - r))[live]
    return t_m, x_m


def _repair_times(t, x, v, horizon, params, rng):
    """Merge times of whole-line runs merged at (x, v) at times t with unequal signs.

    As in :func:`_sign_repair`, the merged legs walk together to the next
    origin visit, which flips both signs (none from the origin itself);
    there one of them flips after an Exp(2b) wait, and the sticking blocks
    from that height merge them with equal signs.
    """
    t = _capped_hitting(t, x, (v == 1) & (x > 0.0), horizon, params, rng)
    wait = rng.standard_exponential(t.size) / (2.0 * params.b)
    return _merge_times(t + wait, wait, horizon, params, rng)[0]


def coalescence_times(
    n: int,
    start_1,
    start_2,
    horizon: float,
    process: str,
    params: ModelParams,
    rng: np.random.Generator,
):
    """Coalescence time, crossing time and crossing position of n coupled runs.

    The runs have the law of n calls of :func:`coalescent_couple_reflected`
    or :func:`coalescent_couple_unreflected` with ``record_paths=False``
    from the (position, velocity) starts, and the result is three arrays of
    shape (n,).  Coalescence times are inf where the run had not merged by
    the horizon; crossing times and positions are nan where no crossing is
    reported, as those calls give None.

    Each phase is one flat draw over the live runs: a common-velocity phase
    is a batched hitting draw, an opposed round an Exp(a+b) race with a
    Bernoulli(a/(a+b)) mark, a sticking block a pair of Exp(a) and Exp(b)
    draws.  A whole-line run keeps only the parity of its two legs' origin
    visits, which tells whether their signs differ at the merge; those runs
    take the sign repair of :func:`_sign_repair`, a hitting draw to the
    next origin visit and an Exp(2b) wait, then sticking blocks again.  The
    fair coin that names the flipped leg there changes no time, so it is not
    drawn.  A hitting tree stops growing once its run passes the horizon.
    """
    if process not in ("reflected", "unreflected"):
        raise ValueError(f"process must be 'reflected' or 'unreflected', got {process!r}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    reflected = process == "reflected"
    y1, w1 = check_start(*start_1, reflected=reflected)
    y2, w2 = check_start(*start_2, reflected=reflected)
    hz = _check_horizon(horizon)
    x1, v1, s1 = fold(y1, w1)
    x2, v2, s2 = fold(y2, w2)
    # odd where the legs' signs differ, which only the whole line reads
    odd = np.full(n, s1 != s2)
    if (x1, v1) == (x2, v2):
        t_c, x_c = np.full(n, math.nan), np.full(n, math.nan)
        t_m, x_m, v_m = np.zeros(n), np.full(n, x1), v1
    else:
        hi, lo = max((x1, v1), (x2, v2)), min((x1, v1), (x2, v2))
        t_c, x_c = _crossing_times(n, hi, lo, hz, params, rng, odd)
        met = ~np.isnan(t_c)
        t_m = np.full(n, math.inf)
        x_m = np.full(n, math.nan)
        t_m[met], x_m[met] = _merge_times(t_c[met], x_c[met], hz, params, rng)
        odd ^= t_m <= hz  # the down leg's origin visit in the merging block
        v_m = -1
        if not reflected and y2 == -y1 and w2 == w1 and y1 != 0.0:
            t_c[:] = x_c[:] = math.nan  # mirror starts report no crossing
    if not reflected:
        repair = (odd & (t_m <= hz)).nonzero()[0]
        t_m[repair] = _repair_times(t_m[repair], x_m[repair], v_m, hz, params, rng)
    return t_m, t_c, x_c


@dataclass(frozen=True)
class DominatingTimeSample:
    """Exact draw of the time that dominates the half-line coalescence.

    The value is the sum of the pieces, each sampled by the excursion
    decomposition: the independent-phase clock, the origin-visit functional
    it feeds (at twice the clock), the descent from the clock's displacement,
    one full excursion per leg, the descent from the upper start, the
    deterministic half-sum of the starts and the origin-visit functional of
    the start gap.
    """

    value: float
    indep_clock: float
    indep_returns: float
    indep_descent: float
    excursion_first: float
    excursion_second: float
    start_descent: float
    offset: float
    gap_returns: float


def sample_dominating_time(
    x: float,
    x_other: float,
    params: ModelParams,
    rng: np.random.Generator,
    size=None,
) -> DominatingTimeSample:
    """Draw the dominating time for starts at heights x >= x_other >= 0.

    ``size`` batches the draws as in ``sample_hitting``; the fields but
    ``offset`` are then arrays.
    """
    x = float(x)
    x_other = float(x_other)
    if not 0.0 <= x_other <= x:
        raise ValueError("need x >= x_other >= 0")
    a, b = params.a, params.b
    f = rng.standard_exponential(size) / (a + b)
    indep_returns = sample_sigma(2.0 * f, params, rng)
    indep_descent = sample_hitting(f, -1, params, rng)
    exc1 = sample_hitting(0.0, 1, params, rng, size)
    exc2 = sample_hitting(0.0, 1, params, rng, size)
    start_descent = sample_hitting(x, -1, params, rng, size)
    offset = 0.5 * (x + x_other)
    gap_returns = sample_sigma(x - x_other, params, rng, size)
    value = (
        f
        + indep_returns
        + indep_descent
        + exc1
        + exc2
        + start_descent
        + offset
        + gap_returns
    )
    return DominatingTimeSample(
        value, f, indep_returns, indep_descent, exc1, exc2, start_descent, offset, gap_returns
    )


def dominating_time_mgf(
    x: float, x_other: float, lam: float, params: ModelParams
) -> LaplaceValue:
    """Closed form of E[exp(lam * dominating time)]; finite for lam <= critical_rate.

    Product of the transforms of the independent pieces; the first factor
    packages the Exp(a+b) clock together with the functionals driven by it.
    """
    x = float(x)
    x_other = float(x_other)
    if not 0.0 <= x_other <= x:
        raise ValueError("need x >= x_other >= 0")
    a, b = params.a, params.b
    psi = excursion_mgf(lam, params)
    c = hitting_exponent(lam, params)
    if not (psi.is_finite and c.is_finite):
        return INFINITE
    denom = 2.0 * a + b - lam - a * psi.value - c.value
    if denom <= 0.0:
        return INFINITE
    exponent = (
        x * c.value
        + 0.5 * (x + x_other) * lam
        + 0.5 * (x - x_other) * a * (psi.value - 1.0)
    )
    return LaplaceValue((a + b) * psi.value**2 / denom * math.exp(exponent))


def write_coupling_batch_csv(results, dest) -> None:
    """Write one row per run: id, crossing/coalescence times, flag.

    Times that did not occur are written as empty fields; floats use repr.
    """

    def fmt(value):
        return "" if value is None else repr(float(value))

    write_csv(
        dest,
        "run_id,crossing_time,coalescence_time,crossing_position,coalesced",
        (
            f"{i},{fmt(res.crossing_time)},{fmt(res.coalescence_time)},"
            f"{fmt(res.crossing_position)},{int(res.coalesced)}\n"
            for i, res in enumerate(results)
        ),
    )
