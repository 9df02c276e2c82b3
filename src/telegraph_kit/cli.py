"""Command line front end.

Subcommands cover simulation, excursion sampling, invariant-law estimation,
hitting-time transforms, coupled runs, distance curves, the diffusive limit
and the closed-form table.  Every run draws all randomness from one root
seed through numbered Philox streams, so outputs are reproducible byte for
byte; batch subcommands split work into fixed-size chunks with one stream
per chunk, which makes results independent of --threads.

Exit codes: 0 success, 1 invalid configuration, 2 runtime abort,
3 check-gate failure.  With --check each subcommand verifies a gate on its
own output; statistical gates are retried on two derived seeds before
failing, so a correct implementation fails a whole run with probability
around 1e-6 per gate at the 0.01 level.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__, analysis, coupling, excursions, model, paths, simulate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_GATE = 3

CHUNK = 1024
RESEED_STRIDE = 1_000_003
GATE_ATTEMPTS = 3
GATE_Z = 3.0
_GRID_CAP = 10_000
# scaling refuses more than this many events per walker (t * scale**2) or
# Euler steps of its oracle (t / dt); the defaults need 1e4 and 1e3
_SCALING_CAP = 1_000_000
# the invariant gate caps exp(theta*x) above x = _GATE_CAP_SCALE / (b - a)
_GATE_CAP_SCALE = 3.0

THREADS_ENV = "TELEGRAPH_THREADS"


class _ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Fully resolved invocation: command, rates, seed and per-command options."""

    command: str
    params: model.ModelParams
    seed: int
    n: int
    out: str
    threads: int
    check: bool
    options: dict = field(default_factory=dict)


def _parse_state(text: str) -> tuple[float, int]:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise _ConfigError(f"state must look like 'position,velocity', got {text!r}")
    try:
        return float(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _ConfigError(f"bad state {text!r}: {exc}") from exc


def _parse_grid(text: str) -> list[float]:
    text = str(text)
    try:
        if ":" in text:
            bits = [float(p) for p in text.split(":")]
            if len(bits) == 2:
                start, stop, step = bits[0], bits[1], 1.0
            elif len(bits) == 3:
                start, stop, step = bits
            else:
                raise ValueError("use start:stop[:step]")
            if step <= 0.0 or stop < start:
                raise ValueError("need stop >= start and step > 0")
            # counted before the list is built; the negated test also refuses nan and inf
            span = (stop - start) / step + 1e-9
            if not span < _GRID_CAP:
                raise ValueError(f"a grid holds at most {_GRID_CAP} points")
            return [start + k * step for k in range(int(span) + 1)]
        grid = [float(p) for p in text.split(",") if p != ""]
        if len(grid) > _GRID_CAP:
            raise ValueError(f"a grid holds at most {_GRID_CAP} points")
        return grid
    except ValueError as exc:
        raise _ConfigError(f"bad grid {text!r}: {exc}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in str(text).split(",") if p != ""]
    except ValueError as exc:
        raise _ConfigError(f"bad list {text!r}: {exc}") from exc


_COMMON_DEFAULTS = {
    "a": 1.0,
    "b": 2.0,
    "seed": 0,
    "out": "-",
    "check": False,
}

_COMMAND_DEFAULTS = {
    "simulate": {"n": 1, "start": 0.0, "velocity": 1, "horizon": 50.0, "process": "reflected"},
    "excursions": {"n": 10000},
    "invariant": {"n": 10000, "integrand": "exponential", "arg": 0.5},
    "hitting": {"n": 10000, "start": 2.0, "velocity": -1, "lam": -1.0},
    "couple": {
        "n": 10000,
        "start": "1,1",
        "start2": "0,1",
        "horizon": 40.0,
        "process": "reflected",
    },
    "tvcurve": {
        "n": 2000,
        "start": "1,1",
        "start2": "0,1",
        "t_grid": "1:20:1",
        "bin_width": None,
        "process": "reflected",
    },
    "scaling": {"n": 10000, "scales": "4,16,100", "drift": 1.0, "t": 1.0, "dt": None, "x0": 0.0},
    "formulas": {"n": 1, "lam": 0.0},
}

_FLAG_SPECS = {
    "a": dict(type=float, help="switching rate toward the origin"),
    "b": dict(type=float, help="switching rate away from the origin"),
    "seed": dict(type=int, help="root seed; all streams derive from it"),
    "n": dict(type=int, help="sample count"),
    "out": dict(type=str, help="output file, '-' for stdout"),
    "threads": dict(type=int, help=f"worker threads (default ${THREADS_ENV} or 1)"),
    "start": dict(
        type=str,
        help="start state 'position,velocity'; simulate and hitting also take a bare position combined with --velocity",
    ),
    "start2": dict(type=str, help="second start state 'position,velocity'"),
    "velocity": dict(type=int, help="initial velocity, -1 or 1"),
    "horizon": dict(type=float, help="time horizon"),
    "process": dict(type=str, help="'reflected' or 'unreflected'"),
    "integrand": dict(type=str, help="exponential | indicator | moment"),
    "arg": dict(type=float, help="integrand parameter (rate, threshold or order)"),
    "lam": dict(type=float, help="transform argument"),
    "t_grid": dict(
        type=str, help=f"time grid: comma list or start:stop[:step], at most {_GRID_CAP} points"
    ),
    "bin_width": dict(type=float, help="TV histogram bin width"),
    "scales": dict(type=str, help="comma list of rate scales"),
    "drift": dict(type=float, help="diffusive drift parameter"),
    "t": dict(
        type=float,
        help=f"diffusive time; t*scale**2 events per walker and t/dt Euler steps are each capped at {_SCALING_CAP:,}",
    ),
    "dt": dict(type=float, help="Euler step of the oracle"),
    "x0": dict(type=float, help="diffusive start position"),
}


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # keep argparse from sys.exit(2)
            raise _ConfigError(message)

    parser = _Parser(prog="telegraph-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command, defaults in _COMMAND_DEFAULTS.items():
        p = sub.add_parser(command)
        keys = ["a", "b", "seed", "n", "out", "threads"] + [
            k for k in defaults if k != "n"
        ]
        for key in keys:
            spec = dict(_FLAG_SPECS[key])
            flag = "--" + key.replace("_", "-")
            if key == "lam":
                p.add_argument(flag, "--lambda", dest="lam", default=None, **spec)
            else:
                p.add_argument(flag, default=None, **spec)
        p.add_argument("--check", action="store_const", const=True, default=None)
        p.add_argument("--config", type=str, default=None)
    return parser


def _resolve(argv) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise _ConfigError("a subcommand is required")
    file_conf = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise _ConfigError("config file must hold a JSON object")

    def pick(key, fallback):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_conf:
            return file_conf[key]
        return fallback

    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_COMMAND_DEFAULTS[args.command])
    threads = pick("threads", None)
    if threads is None:
        threads = os.environ.get(THREADS_ENV) or 1
    try:
        threads = max(1, int(threads))
        a = float(pick("a", defaults["a"]))
        b = float(pick("b", defaults["b"]))
        seed = int(pick("seed", defaults["seed"]))
        n = int(pick("n", defaults["n"]))
        check = bool(pick("check", defaults["check"]))
        out = str(pick("out", defaults["out"]))
    except (TypeError, ValueError) as exc:
        raise _ConfigError(str(exc)) from exc
    if n <= 0:
        raise _ConfigError("n must be positive")
    try:
        params = model.ModelParams(a, b)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    options = {}
    for key, fallback in defaults.items():
        if key in ("a", "b", "seed", "check", "out"):
            continue
        options[key] = pick(key, fallback)
    return RunConfig(args.command, params, seed, n, out, threads, check, options)


def _chunk_ranges(total: int):
    return [(ci, min(CHUNK, total - ci * CHUNK)) for ci in range((total + CHUNK - 1) // CHUNK)]


def _run_chunks(cfg: RunConfig, seed: int, worker):
    """worker(stream, count) per chunk; ordered results, thread-count independent."""
    tasks = _chunk_ranges(cfg.n)
    if cfg.threads <= 1 or len(tasks) <= 1:
        return [worker(simulate.make_stream(seed, ci), cnt) for ci, cnt in tasks]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futs = [
            pool.submit(worker, simulate.make_stream(seed, ci), cnt) for ci, cnt in tasks
        ]
        return [f.result() for f in futs]


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _resolved_start(cfg: RunConfig) -> tuple[float, int]:
    # bare position combined with --velocity, or a full pair which wins
    raw = cfg.options["start"]
    if isinstance(raw, str) and "," in raw:
        pos, vel = _parse_state(raw)
    else:
        try:
            pos = float(raw)
        except (TypeError, ValueError) as exc:
            raise _ConfigError(f"bad start position {raw!r}") from exc
        vel = int(cfg.options["velocity"])
    if vel not in (-1, 1):
        raise _ConfigError(f"velocity must be -1 or +1, got {vel}")
    return pos, vel


def _cmd_simulate(cfg: RunConfig, seed: int):
    pos0, vel0 = _resolved_start(cfg)
    horizon = float(cfg.options["horizon"])
    process = str(cfg.options["process"])
    if process not in ("reflected", "unreflected"):
        raise _ConfigError(f"process must be 'reflected' or 'unreflected', got {process!r}")
    rng = simulate.make_stream(seed, 0)
    try:
        if process == "reflected":
            path = simulate.simulate_reflected(pos0, vel0, horizon, cfg.params, rng)
        else:
            path = simulate.simulate_unreflected(pos0, vel0, horizon, cfg.params, rng)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    buf = io.StringIO()
    paths.write_path_csv(path, buf)
    ok = True
    if cfg.check:
        try:
            path.validate(reflected=process == "reflected")
            if process == "unreflected":
                folded = paths.reflect_path(path)
                folded.validate(reflected=True)
        except ValueError:
            ok = False
    return buf.getvalue(), ok


def _cmd_excursions(cfg: RunConfig, seed: int):
    def worker(rng, count):
        return excursions.sample_excursions(count, cfg.params, rng)

    records = [rec for part in _run_chunks(cfg, seed, worker) for rec in part]
    buf = io.StringIO()
    excursions.write_excursions_csv(records, buf)
    ok = True
    if cfg.check and cfg.params.b > cfg.params.a:
        lengths = np.array([r.length for r in records])
        target = model.mean_excursion_length(cfg.params)
        se = float(lengths.std(ddof=1)) / math.sqrt(lengths.size)
        ok = abs(float(lengths.mean()) - target) <= GATE_Z * se
    return buf.getvalue(), ok


_INTEGRANDS = {
    "exponential": lambda arg: (lambda pos, v: np.exp(arg * pos)),
    "indicator": lambda arg: (lambda pos, v: (pos > arg).astype(np.float64)),
    "moment": lambda arg: (lambda pos, v: pos ** int(round(arg))),
}


def _invariant_reference(kind: str, arg: float, params: model.ModelParams) -> float:
    gap = params.rate_gap
    if kind == "exponential":
        ref = model.invariant_mgf(arg, params)
        if not ref.is_finite:
            raise _ConfigError(f"exponential rate {arg} is outside the invariant domain")
        return ref.value
    if kind == "indicator":
        if arg < 0.0:
            return 1.0
        return math.exp(-gap * arg)
    if kind == "moment":
        k = int(round(arg))
        if k < 0:
            raise _ConfigError("moment order must be a nonnegative integer")
        return math.factorial(k) / gap**k
    raise _ConfigError(f"unknown integrand {kind!r}")


def _capped_exponential(theta: float, params: model.ModelParams):
    """Gate integrand min(exp(theta*x), exp(theta*L)), its breakpoint L and its reference.

    Once 2*theta >= b - a the excursion integral of exp(theta*x) has infinite
    variance and its standard error is no scale for a gate; the capped
    integrand has finite variance.  The invariant position is Exp(g) with
    g = b - a > theta, which gives the closed form.
    """
    gap = params.rate_gap
    level = _GATE_CAP_SCALE / gap
    reference = (gap - theta * math.exp(-(gap - theta) * level)) / (gap - theta)
    return (lambda pos, v: np.exp(theta * np.minimum(pos, level))), level, reference


def _cmd_invariant(cfg: RunConfig, seed: int):
    if cfg.params.b == cfg.params.a:
        raise _ConfigError("the invariant law requires b > a")
    kind = str(cfg.options["integrand"])
    arg = float(cfg.options["arg"])
    reference = _invariant_reference(kind, arg, cfg.params)
    f = _INTEGRANDS[kind](arg)
    breakpoints = (arg,) if kind == "indicator" and arg > 0.0 else ()
    integrands = [(f, breakpoints)]
    gate_reference = reference
    if cfg.check and kind == "exponential" and 2.0 * arg >= cfg.params.rate_gap:
        capped, level, gate_reference = _capped_exponential(arg, cfg.params)
        integrands.append((capped, (level,)))
    rng = simulate.make_stream(seed, 0)
    estimates = excursions._regenerative_estimates(integrands, cfg.n, cfg.params, rng)
    est = estimates[0]
    text = "estimate,std_error,n,reference\n" + (
        f"{est.value!r},{est.std_error!r},{est.n},{reference!r}\n"
    )
    ok = True
    if cfg.check:
        gated = estimates[-1]
        ok = abs(gated.value - gate_reference) <= GATE_Z * gated.std_error
    return text, ok


def _cmd_hitting(cfg: RunConfig, seed: int):
    pos0, vel0 = _resolved_start(cfg)
    lam = float(cfg.options["lam"])
    try:
        reference = model.hitting_mgf(pos0, vel0, lam, cfg.params)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    if not reference.is_finite:
        raise _ConfigError(f"lam={lam} lies beyond the transform domain")

    def worker(rng, count):
        return excursions.sample_hitting(pos0, vel0, cfg.params, rng, size=count)

    times = np.concatenate(_run_chunks(cfg, seed, worker))
    values = np.exp(lam * times)
    est = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    text = "lam,estimate,std_error,n,reference\n" + (
        f"{lam!r},{est!r},{se!r},{values.size},{reference.value!r}\n"
    )
    ok = True
    if cfg.check:
        ok = abs(est - reference.value) <= GATE_Z * se
    return text, ok


def _cmd_couple(cfg: RunConfig, seed: int):
    start_1 = _parse_state(cfg.options["start"])
    start_2 = _parse_state(cfg.options["start2"])
    horizon = float(cfg.options["horizon"])
    process = str(cfg.options["process"])
    if process == "reflected":
        run = coupling.coalescent_couple_reflected
    elif process == "unreflected":
        run = coupling.coalescent_couple_unreflected
    else:
        raise _ConfigError(f"process must be 'reflected' or 'unreflected', got {process!r}")

    def worker(rng, count):
        return [
            run(*start_1, *start_2, horizon, cfg.params, rng, record_paths=False)
            for _ in range(count)
        ]

    try:
        results = [r for part in _run_chunks(cfg, seed, worker) for r in part]
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    buf = io.StringIO()
    coupling.write_coupling_batch_csv(results, buf)
    ok = True
    if cfg.check and cfg.params.b > cfg.params.a:
        times = np.array(
            [math.inf if r.coalescence_time is None else r.coalescence_time for r in results]
        )
        for frac in (0.25, 0.5, 0.75, 1.0):
            t = frac * horizon
            surv = float((times > t).mean())
            bound = model.tv_bound(t, start_1[0], start_2[0], process, cfg.params)
            if surv > min(1.0, bound) + GATE_Z * _binom_se(surv, times.size):
                ok = False
    return buf.getvalue(), ok


def _cmd_tvcurve(cfg: RunConfig, seed: int):
    start_1 = _parse_state(cfg.options["start"])
    start_2 = _parse_state(cfg.options["start2"])
    process = str(cfg.options["process"])
    grid = _parse_grid(cfg.options["t_grid"])
    bin_width = cfg.options["bin_width"]
    bin_width = None if bin_width is None else float(bin_width)
    rng = simulate.make_stream(seed, 0)
    try:
        curve = analysis.tv_curve(
            start_1, start_2, process, grid, cfg.n, cfg.params, rng, bin_width=bin_width
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    buf = io.StringIO()
    analysis.write_tv_curve_csv(curve, buf)
    ok = True
    if cfg.check:
        for s, tv, bd, floor in zip(
            curve.coupling_survival, curve.binned_tv, curve.theoretical_bound, curve.noise_floor
        ):
            # the histogram reads this high on identical laws, so the
            # sandwich slack must carry the floor on top of the 3-sigma part
            slack = float(floor) + GATE_Z * (
                _binom_se(float(s), curve.n_couplings) + _binom_se(float(tv), curve.n_paths)
            )
            if float(tv) > float(s) + slack:
                ok = False
            if cfg.params.b > cfg.params.a and float(s) > min(1.0, float(bd)) + GATE_Z * _binom_se(
                float(s), curve.n_couplings
            ):
                ok = False
    return buf.getvalue(), ok


def _cmd_scaling(cfg: RunConfig, seed: int):
    scales = _parse_floats(cfg.options["scales"])
    if not scales:
        raise _ConfigError("need at least one scale")
    drift = float(cfg.options["drift"])
    t = float(cfg.options["t"])
    dt = cfg.options["dt"]
    dt = None if dt is None else float(dt)
    x0 = float(cfg.options["x0"])
    for name, value in (("t", t), ("dt", dt), ("drift", drift), ("x0", x0)):
        if value is not None and not math.isfinite(value):
            raise _ConfigError(f"--{name} must be finite, got {value}")
    if dt is not None and dt <= 0.0:
        raise _ConfigError("--dt must be positive")
    # predicted cost, refused before any work; the negated tests refuse nan
    step = analysis.default_oracle_dt(drift) if dt is None else dt
    steps = t / step if step > 0.0 else math.inf
    if not steps <= _SCALING_CAP:
        raise _ConfigError(f"t/dt = {steps:.3g} Euler steps exceed the cap of {_SCALING_CAP:,}")
    for scale in scales:
        if not t * scale * scale <= _SCALING_CAP:
            raise _ConfigError(
                f"t*scale**2 = {t * scale * scale:.3g} events per walker exceed the cap of {_SCALING_CAP:,}"
            )
    rows = []
    for i, scale in enumerate(scales):
        rng = simulate.make_stream(seed, 2 * i)
        try:
            stat, pval = analysis.scaling_limit_check(
                scale, drift, t, cfg.n, rng, dt=dt, x0=x0
            )
        except ValueError as exc:
            raise _ConfigError(str(exc)) from exc
        rows.append((scale, drift, t, stat, pval))
    text = "N,c,t,ks_stat,p_value\n" + "".join(
        f"{s!r},{c!r},{tt!r},{st!r},{pv!r}\n" for s, c, tt, st, pv in rows
    )
    ok = True
    if cfg.check:
        stats = [r[3] for r in rows]
        inversions = sum(1 for u, w in zip(stats, stats[1:]) if w > u)
        ok = rows[-1][4] > 0.001 and inversions <= 1
    return text, ok


def _cmd_formulas(cfg: RunConfig, seed: int):
    lam = float(cfg.options["lam"])
    p = cfg.params
    contracting = p.b > p.a

    def finite(value: model.LaplaceValue):
        return value.value if value.is_finite else None

    table = {
        "a": p.a,
        "b": p.b,
        "lam": lam,
        "critical_rate": model.critical_rate(p) if contracting else 0.0,
        "mean_return_time": model.mean_excursion_length(p) if contracting else None,
        "excursion_mgf": finite(model.excursion_mgf(lam, p)),
        "hitting_exponent": finite(model.hitting_exponent(lam, p)),
        "invariant_mgf": finite(model.invariant_mgf(lam, p)) if contracting else None,
    }
    if contracting:
        consts = model.bound_constants(p)
        table["bound_prefactor"] = consts.prefactor
        table["bound_spatial_rate"] = consts.spatial_rate
        table["bound_reflected_prefactor"] = consts.reflected_prefactor
    table["meta"] = {
        "seed": cfg.seed,
        "version": __version__,
        "params": {"a": p.a, "b": p.b},
    }
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    ok = True
    if cfg.check:
        top = model.critical_rate(p) if contracting else 0.0
        for lam_k in np.linspace(top - 5.0, top, 101):
            psi = model.excursion_mgf(float(lam_k), p)
            c = model.hitting_exponent(float(lam_k), p)
            if not (psi.is_finite and c.is_finite):
                ok = False
                continue
            res = p.a * psi.value**2 - (p.a + p.b - 2.0 * lam_k) * psi.value + p.b
            scale = p.a * psi.value**2 + abs(p.a + p.b - 2.0 * lam_k) * psi.value + p.b
            if abs(res) > 1e-10 * scale:
                ok = False
            consistency = lam_k + p.a * (psi.value - 1.0)
            if abs(c.value - consistency) > 1e-10 * max(1.0, abs(c.value)):
                ok = False
    return text, ok


_COMMANDS = {
    "simulate": _cmd_simulate,
    "excursions": _cmd_excursions,
    "invariant": _cmd_invariant,
    "hitting": _cmd_hitting,
    "couple": _cmd_couple,
    "tvcurve": _cmd_tvcurve,
    "scaling": _cmd_scaling,
    "formulas": _cmd_formulas,
}


def _write_output(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    try:
        cfg = _resolve(argv)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    command = _COMMANDS[cfg.command]
    try:
        text, ok = command(cfg, cfg.seed)
        _write_output(cfg.out, text)
        if not cfg.check:
            return EXIT_OK
        attempt = 1
        while not ok and attempt < GATE_ATTEMPTS:
            _, ok = command(cfg, cfg.seed + attempt * RESEED_STRIDE)
            attempt += 1
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except excursions.RecursionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    return EXIT_OK if ok else EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
