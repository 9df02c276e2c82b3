"""Piecewise-linear unit-speed trajectories and the folding correspondence.

A trajectory is stored as knot arrays: time, position and velocity at t=0 and
at every event.  Between knots the position moves linearly at the knot's
velocity.  Generators write origin-hit knots with position exactly 0.0, so
the nonnegativity of reflected paths and the zero-detection used when
unfolding are both exact float comparisons, not tolerance checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PiecewisePath",
    "eval_path",
    "reflect_path",
    "unreflect_path",
    "write_path_csv",
]


@dataclass
class PiecewisePath:
    """Unit-speed trajectory with one knot per event.

    knot_times[0] == 0.0 and times are strictly increasing, all <= horizon.
    knot_velocities[k] is the velocity in force on [knot_times[k],
    knot_times[k+1]); evaluation is right-continuous.  A knot may repeat the
    previous velocity (couplings insert one synchronisation knot at
    coalescence so merged paths share interpolation bases bit for bit).
    """

    knot_times: np.ndarray
    knot_positions: np.ndarray
    knot_velocities: np.ndarray
    horizon: float

    @classmethod
    def from_lists(cls, times, positions, velocities, horizon) -> "PiecewisePath":
        return cls(
            np.asarray(times, dtype=np.float64),
            np.asarray(positions, dtype=np.float64),
            np.asarray(velocities, dtype=np.int8),
            float(horizon),
        )

    @property
    def initial_state(self) -> tuple[float, int]:
        return float(self.knot_positions[0]), int(self.knot_velocities[0])

    @property
    def events(self) -> list[tuple[float, int]]:
        """(time, new velocity) pairs, excluding the t=0 knot."""
        return [
            (float(t), int(v))
            for t, v in zip(self.knot_times[1:], self.knot_velocities[1:])
        ]

    def eval(self, t: float) -> tuple[float, int]:
        """Position and velocity at time t (right-continuous at events)."""
        t = float(t)
        if t < 0.0 or t > self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        i = int(np.searchsorted(self.knot_times, t, side="right")) - 1
        dt = t - float(self.knot_times[i])
        v = int(self.knot_velocities[i])
        return float(self.knot_positions[i]) + v * dt, v

    def eval_many(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`eval` over an array of query times."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.size and (ts.min() < 0.0 or ts.max() > self.horizon):
            raise ValueError("query times outside [0, horizon]")
        idx = np.searchsorted(self.knot_times, ts, side="right") - 1
        v = self.knot_velocities[idx].astype(np.float64)
        pos = self.knot_positions[idx] + v * (ts - self.knot_times[idx])
        return pos, self.knot_velocities[idx].copy()

    def validate(self, reflected: bool = False) -> None:
        """Check structural invariants; raises ValueError on the first failure.

        Speed is checked segment by segment: each knot position must equal
        the previous one advanced at the previous velocity, up to one
        rounding of that arithmetic (reflection knots are written as exact
        zeros rather than accumulated, which costs at most a few ulps).
        """
        t = self.knot_times
        x = self.knot_positions
        v = self.knot_velocities
        if not (len(t) == len(x) == len(v)):
            raise ValueError("knot arrays must share a length")
        if len(t) == 0 or t[0] != 0.0:
            raise ValueError("first knot must sit at t=0")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("knot times must be strictly increasing")
        if t[-1] > self.horizon:
            raise ValueError("knot beyond the horizon")
        if not np.all(np.isin(v, (-1, 1))):
            raise ValueError("velocities must be -1 or +1")
        dt = np.diff(t)
        drift = x[1:] - (x[:-1] + v[:-1].astype(np.float64) * dt)
        scale = np.maximum(1.0, np.maximum(np.abs(x[1:]), t[1:]))
        bad = np.abs(drift) > 1e-9 * scale
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise ValueError(f"speed violated between knots {k} and {k + 1}")
        if reflected:
            if np.any(x < 0.0):
                raise ValueError("reflected path with a negative knot")
            at_zero = x == 0.0
            if np.any(v[at_zero] != 1):
                raise ValueError("origin knot must carry velocity +1")


def eval_path(path: PiecewisePath, t: float) -> tuple[float, int]:
    """State of ``path`` at time t; see :meth:`PiecewisePath.eval`."""
    return path.eval(t)


def _signum(y: float) -> int:
    return 1 if y > 0.0 else (-1 if y < 0.0 else 0)


def reflect_path(path: PiecewisePath) -> PiecewisePath:
    """Fold a whole-line path to the half line: position |Y|, sign-fixed velocity.

    Interior zero crossings of Y become origin knots with velocity +1; the
    folded velocity elsewhere is sign(Y) * W.  Crossing times are found
    algebraically from the unit speed, so a path produced by unfolding a
    generated reflected path folds back to it exactly.
    """
    t = path.knot_times
    y = path.knot_positions
    w = path.knot_velocities
    out_t: list[float] = []
    out_x: list[float] = []
    out_v: list[int] = []
    n = len(t)
    for k in range(n):
        tk = float(t[k])
        yk = float(y[k])
        wk = int(w[k])
        out_t.append(tk)
        out_x.append(abs(yk))
        out_v.append(1 if yk == 0.0 else _signum(yk) * wk)
        seg_end = float(t[k + 1]) if k + 1 < n else path.horizon
        # one crossing at most per segment: the segment heads toward 0 and
        # reaches it strictly inside (a zero exactly at the next knot is that
        # knot's own business)
        if yk != 0.0 and _signum(yk) == -wk:
            tz = tk + abs(yk)
            if tz < seg_end or (k + 1 == n and tz <= seg_end):
                out_t.append(tz)
                out_x.append(0.0)
                out_v.append(1)
    return PiecewisePath.from_lists(out_t, out_x, out_v, path.horizon)


def unreflect_path(path: PiecewisePath, y0: float) -> PiecewisePath:
    """Unfold a half-line path to the whole line with initial position y0.

    |y0| must equal the path's start exactly.  The sign flips at every origin
    knot and those knots disappear (the unfolded velocity is continuous
    there); all other knots map to (t, sign * x, sign * v).  A start at the
    origin must carry velocity +1 and unfolds with positive sign.
    """
    x0, v0 = path.initial_state
    y0 = float(y0)
    if abs(y0) != x0:
        raise ValueError(f"|y0|={abs(y0)} does not match the path start {x0}")
    if x0 == 0.0 and v0 != 1:
        raise ValueError("a reflected path starting at 0 must have velocity +1")
    sign = _signum(y0) or 1
    out_t = [0.0]
    out_y = [sign * x0]
    out_w = [sign * v0]
    t = path.knot_times
    x = path.knot_positions
    v = path.knot_velocities
    for k in range(1, len(t)):
        xk = float(x[k])
        if xk == 0.0:
            if int(v[k]) != 1:
                raise ValueError("origin knot must carry velocity +1")
            sign = -sign
            continue
        out_t.append(float(t[k]))
        out_y.append(sign * xk)
        out_w.append(sign * int(v[k]))
    return PiecewisePath.from_lists(out_t, out_y, out_w, path.horizon)


def write_csv(dest, header: str, lines) -> None:
    """Write a header row, then ``lines`` (each ending in a newline).

    ``dest`` is a filename or a text file object; a file opened here is
    closed here, a file object passed in stays open.
    """
    if isinstance(dest, (str, bytes)):
        with open(dest, "w") as fh:
            write_csv(fh, header, lines)
        return
    dest.write(header + "\n")
    dest.writelines(lines)


def write_path_csv(path: PiecewisePath, dest) -> None:
    """Write ``t,position,velocity`` rows: t=0, every event, and the horizon.

    ``dest`` is a filename or a text file object.  Floats are written with
    repr so a re-read round-trips bit for bit.
    """

    def lines():
        for t, x, v in zip(path.knot_times, path.knot_positions, path.knot_velocities):
            yield f"{float(t)!r},{float(x)!r},{int(v)}\n"
        if float(path.knot_times[-1]) < path.horizon:
            pos, vel = path.eval(path.horizon)
            yield f"{float(path.horizon)!r},{pos!r},{vel}\n"

    write_csv(dest, "t,position,velocity", lines())
