import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telegraph_kit.model import ModelParams
from telegraph_kit.paths import (
    PiecewisePath,
    fold,
    reflect_path,
    unreflect_path,
    write_csv,
    write_path_csv,
)
from telegraph_kit.simulate import make_stream, simulate_reflected, simulate_unreflected

P12 = ModelParams(1.0, 2.0)


def test_eval_basic_and_bounds():
    path = PiecewisePath.from_lists([0.0], [1.0], [1], 5.0)
    assert path.eval(0.0) == (1.0, 1)
    assert path.eval(2.0) == (3.0, 1)
    assert path.eval(5.0) == (6.0, 1)
    assert path.initial_state == (1.0, 1)
    assert path.events == []
    with pytest.raises(ValueError):
        path.eval(-0.1)
    with pytest.raises(ValueError):
        path.eval(5.1)
    with pytest.raises(ValueError):
        path.eval(math.nan)
    with pytest.raises(ValueError):
        path.eval_many([1.0, math.nan])


def test_eval_right_continuous_at_events():
    # up for one unit, then down
    path = PiecewisePath.from_lists([0.0, 1.0], [0.0, 1.0], [1, -1], 2.0)
    pos, vel = path.eval(1.0)
    assert (pos, vel) == (1.0, -1)
    pos, vel = path.eval(1.5)
    assert (pos, vel) == (0.5, -1)
    assert path.events == [(1.0, -1)]


def test_eval_many_matches_scalar():
    rng = make_stream(3, 0)
    path = simulate_reflected(0.5, 1, 30.0, P12, rng)
    ts = np.sort(rng.uniform(0.0, 30.0, size=200))
    pos, vel = path.eval_many(ts)
    for t, x, v in zip(ts, pos, vel):
        sx, sv = path.eval(float(t))
        assert sx == x and sv == v
    with pytest.raises(ValueError):
        path.eval_many([0.0, 31.0])


def test_validate_catches_structural_breakage():
    good = PiecewisePath.from_lists([0.0, 1.0], [0.0, 1.0], [1, -1], 2.0)
    good.validate()
    bad = PiecewisePath.from_lists([0.0, 1.0], [0.0, 0.5], [1, -1], 2.0)
    with pytest.raises(ValueError, match="speed"):
        bad.validate()
    with pytest.raises(ValueError, match="increasing"):
        PiecewisePath.from_lists([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1, -1, 1], 2.0).validate()
    with pytest.raises(ValueError, match="t=0"):
        PiecewisePath.from_lists([0.5], [0.0], [1], 2.0).validate()
    with pytest.raises(ValueError, match="horizon"):
        PiecewisePath.from_lists([0.0, 3.0], [0.0, 3.0], [1, 1], 2.0).validate()
    with pytest.raises(ValueError, match="-1 or \\+1"):
        PiecewisePath.from_lists([0.0], [0.0], [0], 2.0).validate()
    with pytest.raises(ValueError, match="negative"):
        PiecewisePath.from_lists([0.0, 1.5], [1.0, -0.5], [-1, -1], 2.0).validate(reflected=True)
    # an origin touch must flip to +1 in a reflected path
    with pytest.raises(ValueError, match="origin"):
        PiecewisePath.from_lists([0.0, 1.0], [1.0, 0.0], [-1, -1], 1.0).validate(reflected=True)


def test_validate_refuses_nan_knots():
    # every check is a negated test, so a NaN comparison fails it
    nan = math.nan
    nan_positions = PiecewisePath.from_lists([0.0, 1.0], [nan, nan], [1, -1], 2.0)
    nan_time = PiecewisePath.from_lists([0.0, nan, 1.5], [0.0, 1.0, 0.5], [1, -1, -1], 2.0)
    for path in (nan_positions, nan_time):
        for reflected in (False, True):
            with pytest.raises(ValueError):
                path.validate(reflected=reflected)
    with pytest.raises(ValueError, match="finite"):
        PiecewisePath.from_lists([0.0], [nan], [1], 2.0).validate()
    with pytest.raises(ValueError, match="horizon"):
        PiecewisePath.from_lists([0.0, 1.0], [0.0, 1.0], [1, -1], nan).validate()


def test_reflect_simple_descent():
    path = PiecewisePath.from_lists([0.0], [1.0], [-1], 3.0)
    folded = reflect_path(path)
    folded.validate(reflected=True)
    assert folded.events == [(1.0, 1)]
    assert folded.eval(1.0) == (0.0, 1)
    assert folded.eval(2.5) == (1.5, 1)


def test_reflect_matches_absolute_value_pointwise():
    for seed in range(4):
        rng = make_stream(20, seed)
        path = simulate_unreflected(-0.8, 1, 25.0, P12, rng)
        folded = reflect_path(path)
        folded.validate(reflected=True)
        ts = np.linspace(0.0, 25.0, 700)
        pos_raw, _ = path.eval_many(ts)
        pos_fold, _ = folded.eval_many(ts)
        assert np.allclose(np.abs(pos_raw), pos_fold, rtol=0.0, atol=1e-9)
        assert np.all(pos_fold >= 0.0)


def test_reflect_origin_start_convention():
    # a start at 0 folds to velocity +1 regardless of the sign it moves in
    path = PiecewisePath.from_lists([0.0], [0.0], [-1], 2.0)
    folded = reflect_path(path)
    assert folded.initial_state == (0.0, 1)
    assert folded.eval(1.5) == (1.5, 1)


def reference_reflect_path(path: PiecewisePath) -> PiecewisePath:
    """:func:`reflect_path` as first written: one knot at a time, in Python.

    Kept to pin the array form's bits: times, positions, velocities and the
    velocity dtype.
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
        xk, vk, _ = fold(float(y[k]), int(w[k]))
        out_t.append(tk)
        out_x.append(xk)
        out_v.append(vk)
        seg_end = float(t[k + 1]) if k + 1 < n else path.horizon
        if vk == -1:
            tz = tk + xk
            if tz < seg_end or (k + 1 == n and tz <= seg_end):
                out_t.append(tz)
                out_x.append(0.0)
                out_v.append(1)
    return PiecewisePath.from_lists(out_t, out_x, out_v, path.horizon)


@st.composite
def whole_line_paths(draw):
    """Unit-speed whole-line paths with strictly increasing knot times.

    On a half-unit lattice, knots land exactly on the origin, as +0.0 or
    -0.0, and the horizon may sit exactly where the last segment reaches it;
    off the lattice the gaps and the start are any floats.
    """
    lattice = draw(st.booleans())
    halves = st.integers(-6, 6).map(lambda k: 0.5 * k)
    gaps = halves.filter(lambda g: g > 0.0) if lattice else st.floats(1e-3, 3.0)
    w = draw(st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=12))
    t, y = [0.0], [draw(halves if lattice else st.floats(-5.0, 5.0))]
    for v in w[:-1]:
        gap = draw(gaps)
        t.append(t[-1] + gap)
        y.append(y[-1] + v * gap)
    y = [draw(st.sampled_from((0.0, -0.0))) if yk == 0.0 else yk for yk in y]
    tail = draw(st.sampled_from((0.0, abs(y[-1]))) | gaps)
    return PiecewisePath.from_lists(t, y, w, t[-1] + tail)


simulated_paths = st.builds(
    lambda y0, w0, horizon, seed: simulate_unreflected(y0, w0, horizon, P12, make_stream(seed, 0)),
    st.floats(-5.0, 5.0) | st.sampled_from((0.0, -0.0)),
    st.sampled_from((-1, 1)),
    st.floats(0.0, 30.0),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None, database=None)
@given(whole_line_paths() | simulated_paths)
@example(PiecewisePath.from_lists([0.0, 1.0], [1.0, 0.0], [-1, 1], 2.0))  # a zero on the next knot
@example(PiecewisePath.from_lists([0.0, 1.0], [1.0, -0.0], [-1, -1], 2.0))  # ... as -0.0, going on down
@example(PiecewisePath.from_lists([0.0], [1.0], [-1], 1.0))  # a zero on the horizon
@example(PiecewisePath.from_lists([0.0, 1.0], [-0.0, -1.0], [-1, 1], 3.0))  # a start at -0.0
def test_reflect_path_keeps_the_bits_of_the_knot_loop(path):
    folded, reference = reflect_path(path), reference_reflect_path(path)
    assert folded.knot_velocities.dtype == reference.knot_velocities.dtype
    for got, want in zip(
        (folded.knot_times, folded.knot_positions, folded.knot_velocities),
        (reference.knot_times, reference.knot_positions, reference.knot_velocities),
    ):
        assert got.tobytes() == want.tobytes()
    assert folded.horizon == reference.horizon


def test_unreflect_round_trip_exact():
    for seed, y0 in ((0, 1.4), (1, -1.4), (2, -0.2), (3, 2.0)):
        rng = make_stream(21, seed)
        folded = simulate_reflected(abs(y0), 1, 20.0, P12, rng)
        raw = unreflect_path(folded, y0)
        raw.validate()
        back = reflect_path(raw)
        assert np.array_equal(back.knot_times, folded.knot_times)
        assert np.array_equal(back.knot_positions, folded.knot_positions)
        assert np.array_equal(back.knot_velocities, folded.knot_velocities)


def test_unreflect_sign_conventions():
    rng = make_stream(22, 0)
    folded = simulate_reflected(1.0, -1, 10.0, P12, rng)
    pos = unreflect_path(folded, 1.0)
    neg = unreflect_path(folded, -1.0)
    # mirror images of each other
    ts = np.linspace(0.0, 10.0, 300)
    p1, v1 = pos.eval_many(ts)
    p2, v2 = neg.eval_many(ts)
    assert np.array_equal(p1, -p2)
    assert np.array_equal(v1, -v2)
    # initial segment of the negative unfold satisfies Y = -X
    assert neg.initial_state == (-1.0, 1)
    with pytest.raises(ValueError, match="match"):
        unreflect_path(folded, 0.5)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="match"):
            unreflect_path(folded, bad)
        start_only = PiecewisePath.from_lists([0.0], [abs(bad)], [1], 1.0)
        with pytest.raises(ValueError, match="finite"):
            unreflect_path(start_only, bad)


def test_unreflect_refuses_origin_knots_that_do_not_leave():
    for x, v in (([0.0], [-1]), ([1.0, 0.0], [-1, -1])):
        path = PiecewisePath.from_lists([0.0, 1.0][: len(x)], x, v, 2.0)
        with pytest.raises(ValueError, match="velocity \\+1"):
            unreflect_path(path, x[0])


def test_unreflect_path_that_never_hits_zero_is_identity():
    rng = make_stream(23, 0)
    folded = simulate_reflected(6.0, 1, 3.0, P12, rng)  # cannot reach 0 within 3 time units
    raw = unreflect_path(folded, 6.0)
    assert np.array_equal(raw.knot_times, folded.knot_times)
    assert np.array_equal(raw.knot_positions, folded.knot_positions)
    assert np.array_equal(raw.knot_velocities, folded.knot_velocities)


def test_unreflect_round_trip_from_unreflected_side():
    rng = make_stream(24, 5)
    raw = simulate_unreflected(0.9, -1, 15.0, P12, rng)
    folded = reflect_path(raw)
    again = unreflect_path(folded, 0.9)
    assert np.array_equal(again.knot_times, raw.knot_times)
    assert np.array_equal(again.knot_positions, raw.knot_positions)
    assert np.array_equal(again.knot_velocities, raw.knot_velocities)


def test_write_path_csv_golden_and_horizon_row():
    path = PiecewisePath.from_lists([0.0, 1.0], [0.0, 1.0], [1, -1], 2.5)
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == "t,position,velocity\n0.0,0.0,1\n1.0,1.0,-1\n2.5,-0.5,-1\n"


def test_write_path_csv_round_trips_through_repr(tmp_path):
    rng = make_stream(25, 1)
    path = simulate_reflected(0.0, 1, 12.0, P12, rng)
    dest = tmp_path / "path.csv"
    write_path_csv(path, str(dest))
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,position,velocity"
    body = [ln.split(",") for ln in lines[1:]]
    ts = np.array([float(r[0]) for r in body])
    xs = np.array([float(r[1]) for r in body])
    vs = np.array([int(r[2]) for r in body])
    assert np.array_equal(ts[: len(path.knot_times)], path.knot_times)
    assert np.array_equal(xs[: len(path.knot_times)], path.knot_positions)
    assert set(vs) <= {-1, 1}
    assert ts[-1] == 12.0  # horizon row present


def test_write_csv_rule():
    # floats as repr, so a re-read gives the same bits; other columns as str gives them
    floats = np.array([-0.0, 5e-324, 1e308, math.inf, -math.inf, 0.1, 1 / 3])
    ints = np.arange(floats.size, dtype=np.int8) - 3
    words = ["", "x", "", "1.5", "", "", "y"]
    buf = io.StringIO()
    write_csv(buf, "f,i,s", (floats, ints, words))
    lines = buf.getvalue().split("\n")
    assert lines[0] == "f,i,s" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    back = np.array([float(f) for f, _, _ in rows])
    assert back.tobytes() == floats.tobytes()
    assert [i for _, i, _ in rows] == [str(i) for i in ints.tolist()]
    assert [w for _, _, w in rows] == words
    assert rows[0][0] == "-0.0" and rows[1][0] == "5e-324" and rows[3][0] == "inf"


def test_write_csv_file_and_stream_agree(tmp_path):
    columns = ([1.5, -0.0], [2, 3], ["", "a"])
    buf = io.StringIO()
    write_csv(buf, "x,n,s", columns)
    dest = tmp_path / "t.csv"
    write_csv(str(dest), "x,n,s", columns)
    assert dest.read_bytes() == buf.getvalue().encode() == b"x,n,s\n1.5,2,\n-0.0,3,a\n"
    with pytest.raises(ValueError, match="length"):
        write_csv(io.StringIO(), "x,n", ([1.0, 2.0], [1]))
