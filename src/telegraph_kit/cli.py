"""Command line front end.

Subcommands cover simulation, excursion sampling, invariant-law estimation,
hitting-time transforms, coupled runs, distance curves, the diffusive limit
and the closed-form table.  Every run draws all randomness from one root
seed through numbered Philox streams, so outputs are reproducible byte for
byte; batch subcommands split work into fixed-size chunks with one stream
per chunk and run them in order on one thread.  --threads is still accepted,
and checked, so that existing commands run, but it changes nothing.

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

# unused here, but perfbench/tracing.py patches cli.ThreadPoolExecutor on every
# traced run and raises AttributeError without it, so the name stays importable
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import Callable

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
# simulate refuses more expected events than this, horizon*(a+b)/2 (the default needs 75);
# so do couple per run and tvcurve per walker (the defaults need 1.5 and 30)
_PATH_CAP = 1_000_000
# the invariant gate caps exp(theta*x) above x = _GATE_CAP_SCALE / (b - a)
_GATE_CAP_SCALE = 3.0
# formulas --check tests its identities to 1e-10 relative, which their own float
# arithmetic misses past this rate ratio b/a (at 1e13 for b = 1 and b = 2)
_FORMULAS_RATIO_CAP = 1e12
# a quantity whose log reaches this is past the largest float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

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


def _number(raw) -> float:
    """A float from flag text or a JSON number; booleans, null and lists are refused."""
    if isinstance(raw, (str, int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"must be a number, got {raw!r}")


def _integer(raw) -> int:
    """An int from flag text, a JSON integer or an integral JSON float."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, (str, int)) and not isinstance(raw, bool):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ValueError(f"must be an integer, got {raw!r}")


def _text(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"must be a string, got {raw!r}")
    return raw


def _switch(raw) -> bool:
    if not isinstance(raw, bool):
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw


def _threads(raw) -> int:
    # None reads the environment, then 1; a count below 1 means 1
    return max(1, _integer((os.environ.get(THREADS_ENV) or 1) if raw is None else raw))


def _parse_state(raw) -> tuple[float, int | None]:
    """A 'position,velocity' pair, or a bare position whose velocity is None."""
    try:
        if isinstance(raw, str) and "," in raw:
            pos, _, vel = raw.partition(",")
            return _number(pos), _integer(vel)
        return _number(raw), None
    except ValueError:
        raise ValueError(f"must be 'position,velocity' or a bare position, got {raw!r}") from None


def _parse_grid(text) -> list[float]:
    if ":" in _text(text):
        bits = [_number(p) for p in text.split(":")]
        if len(bits) not in (2, 3):
            raise ValueError("must be start:stop[:step]")
        start, stop, step = (*bits, 1.0)[:3]
        if step <= 0.0 or stop < start:
            raise ValueError("needs stop >= start and step > 0")
        # counted before the list is built; the negated test also refuses nan and inf
        span = (stop - start) / step + 1e-9
        if not span < _GRID_CAP:
            raise ValueError(f"holds at most {_GRID_CAP} points")
        return [start + k * step for k in range(int(span) + 1)]
    grid = [_number(p) for p in text.split(",") if p != ""]
    if len(grid) > _GRID_CAP:
        raise ValueError(f"holds at most {_GRID_CAP} points")
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"holds a non-finite time: {text!r}")
    return grid


def _parse_floats(text) -> list[float]:
    return [_number(p) for p in _text(text).split(",") if p != ""]


@dataclass(frozen=True)
class _Option:
    """How one option is read and checked, its help, and its default per subcommand.

    parse reads flag text, a JSON value or the default, or raises ValueError;
    a value that fails test or passes the subcommand's cap is refused as not
    ``rule``.  The keys of defaults are the subcommands that take the option.
    """

    parse: Callable
    rule: str
    help: str
    defaults: dict
    test: Callable = lambda value: True
    shown: str = ""  # what a None default stands for; it is computed later
    caps: dict = field(default_factory=dict)

    def rule_for(self, command: str) -> str:
        return self.rule.format(cap=f"{self.caps.get(command, 0):,}")

    def convert(self, raw, command: str):
        value = self.parse(raw)
        cap = self.caps.get(command)
        if value is not None and not (self.test(value) and (cap is None or value <= cap)):
            raise ValueError(f"must be {self.rule_for(command)}, got {raw!r}")
        return value

    def help_for(self, command: str) -> str:
        default = self.defaults[command]
        return f"{self.help}; {self.rule_for(command)}; default {self.shown or default}"


_REAL_RULES = {
    "finite": math.isfinite,
    "finite and nonnegative": lambda x: math.isfinite(x) and x >= 0.0,
    "finite and positive": lambda x: math.isfinite(x) and x > 0.0,
}


def _real(rule: str, help: str, defaults: dict, shown: str = "") -> _Option:
    """A float option held to one of _REAL_RULES; with shown, null means the computed default."""
    parse = (lambda raw: None if raw is None else _number(raw)) if shown else _number
    return _Option(parse, rule, help, defaults, _REAL_RULES[rule], shown)


def _choice(choices: tuple, help: str, defaults: dict) -> _Option:
    return _Option(_text, " or ".join(choices), help, defaults, lambda x: x in choices)


# subcommand: (default --n, bytes per item).  A larger --n than _MEMORY_BUDGET
# over the bytes per item is refused before any work.  Bytes per item are the
# slope of a run's peak RSS between --n 20,000 and 100,000 at the other
# defaults, output text included (x86-64 Linux, Python 3.11, numpy 2.4),
# rounded up.  simulate and formulas draw no batch; their 1 byte only bounds n.
_SIZES = {
    "simulate": (1, 1),
    "excursions": (10000, 350),
    "invariant": (10000, 2400),
    "hitting": (10000, 40),
    "couple": (10000, 450),
    "tvcurve": (2000, 330),
    "scaling": (10000, 220),
    "formulas": (1, 1),
}
_MEMORY_BUDGET = 2 << 30
_EVERY = tuple(_SIZES)
_PAIR = "'position,velocity' with velocity -1 or 1"

_OPTIONS = {
    "a": _real("finite and positive", "switching rate toward the origin",
               dict.fromkeys(_EVERY, 1.0)),
    "b": _real("finite and positive", "switching rate away from the origin, at least a",
               dict.fromkeys(_EVERY, 2.0)),
    "seed": _Option(_integer, "an integer", "root seed; all streams derive from it",
                    dict.fromkeys(_EVERY, 0)),
    "n": _Option(
        _integer, "an integer from 1 to {cap}", "sample count",
        {command: n for command, (n, _) in _SIZES.items()}, lambda n: n >= 1,
        caps={command: _MEMORY_BUDGET // size for command, (_, size) in _SIZES.items()},
    ),
    "out": _Option(_text, "a file name, '-' for stdout", "output file",
                   dict.fromkeys(_EVERY, "-"), bool),
    "threads": _Option(_threads, "an integer, below 1 meaning 1",
                       "accepted for old commands; chunks run in order on one thread",
                       dict.fromkeys(_EVERY), shown=f"${THREADS_ENV} or 1"),
    "check": _Option(_switch, "true or false in --config", "verify the subcommand's gate",
                     dict.fromkeys(_EVERY, False)),
    "start": _Option(
        _parse_state, f"{_PAIR}, or for simulate and hitting a bare position", "start state",
        {"simulate": 0.0, "hitting": 2.0, "couple": "1,1", "tvcurve": "1,1"},
        lambda state: state[1] in (None, -1, 1),
    ),
    "start2": _Option(_parse_state, _PAIR, "second start state",
                      {"couple": "0,1", "tvcurve": "0,1"}, lambda state: state[1] in (-1, 1)),
    "velocity": _Option(_integer, "-1 or 1", "velocity of a bare --start",
                        {"simulate": 1, "hitting": -1}, lambda v: v in (-1, 1)),
    "horizon": _real(
        "finite and nonnegative",
        f"time horizon; simulate caps horizon*(a+b)/2 events at {_PATH_CAP:,}",
        {"simulate": 50.0, "couple": 40.0},
    ),
    "process": _choice(("reflected", "unreflected"), "process",
                       dict.fromkeys(("simulate", "couple", "tvcurve"), "reflected")),
    "integrand": _choice(("exponential", "indicator", "moment"), "invariant-law integrand",
                         {"invariant": "exponential"}),
    "arg": _real("finite", "integrand parameter (rate, threshold or order)", {"invariant": 0.5}),
    "lam": _real("finite", "transform argument", {"hitting": -1.0, "formulas": 0.0}),
    "t_grid": _Option(_parse_grid, f"a comma list or start:stop[:step] of at most {_GRID_CAP}"
                      " points", "time grid", {"tvcurve": "1:20:1"}),
    "bin_width": _real(
        "finite and positive",
        "TV histogram bin width, refused if it cuts the walkers' reach (max|start| + last grid"
        f" time, both sides for unreflected) into more than {analysis._BIN_CAP:,} bins",
        {"tvcurve": None}, "0.05/(b-a)",
    ),
    "scales": _Option(_parse_floats, "a comma list of one or more numbers", "rate scales",
                      {"scaling": "4,16,100"}, bool),
    "drift": _real("finite and nonnegative", "diffusive drift parameter", {"scaling": 1.0}),
    "t": _real(
        "finite and nonnegative",
        "diffusive time; t*scale**2 events per walker and t/dt Euler steps are each capped at"
        f" {_SCALING_CAP:,}",
        {"scaling": 1.0},
    ),
    "dt": _real("finite and positive", "Euler step of the oracle", {"scaling": None},
                "1e-3*min(1, 1/drift**2)"),
    "x0": _real("finite", "diffusive start position", {"scaling": 0.0}),
}


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # keep argparse from sys.exit(2)
            raise _ConfigError(message)

    parser = _Parser(prog="telegraph-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for command in _EVERY:
        p = sub.add_parser(command)
        for key, opt in _OPTIONS.items():
            if command in opt.defaults:
                flags = ["--" + key.replace("_", "-")] + (["--lambda"] if key == "lam" else [])
                action = dict(action="store_const", const=True) if key == "check" else {}
                p.add_argument(*flags, dest=key, help=opt.help_for(command), **action)
        p.add_argument("--config", help="JSON object of option values; flags win")
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
    # every value, from a flag, the config file or the default, goes through its option
    values = {}
    for key, opt in _OPTIONS.items():
        if args.command in opt.defaults:
            raw = getattr(args, key)
            if raw is None:
                raw = file_conf.get(key, opt.defaults[args.command])
            try:
                values[key] = opt.convert(raw, args.command)
            except ValueError as exc:
                raise _ConfigError(f"--{key.replace('_', '-')} {exc}") from None
    # a bare start position takes --velocity, where the subcommand has one
    if "start" in values and values["start"][1] is None:
        if "velocity" not in values:
            raise _ConfigError(f"--start must be {_PAIR}, got a bare position")
        values["start"] = (values["start"][0], values["velocity"])
    params = model.ModelParams(values.pop("a"), values.pop("b"))  # its ValueError exits 1 too
    common = [values.pop(key) for key in ("seed", "n", "out", "threads", "check")]
    return RunConfig(args.command, params, *common, values)


def _chunks(n: int, seed: int):
    """(stream, count) for each CHUNK-item chunk of n items, in order.

    Chunk ci draws from stream ci of the seed, so the output is fixed by n
    and the seed alone.
    """
    for ci, start in enumerate(range(0, n, CHUNK)):
        yield simulate.make_stream(seed, ci), min(CHUNK, n - start)


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _check_cost(formula: str, count: float, unit: str, cap: int) -> None:
    """Refuse a predicted cost past its cap before any work; the negated test refuses nan."""
    if not count <= cap:
        raise _ConfigError(f"{formula} = {count:.3g} {unit} exceed the cap of {cap:,}")


def _cmd_simulate(cfg: RunConfig, seed: int):
    (pos0, vel0), horizon, process = (cfg.options[k] for k in ("start", "horizon", "process"))
    # the stationary velocity is +1 half the time, so a path flips (a + b)/2 times per unit time
    events = 0.5 * (cfg.params.a + cfg.params.b) * horizon
    _check_cost("horizon*(a+b)/2", events, "events", _PATH_CAP)
    run = simulate.simulate_reflected if process == "reflected" else simulate.simulate_unreflected
    path = run(pos0, vel0, horizon, cfg.params, simulate.make_stream(seed, 0))
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
    records = [
        rec
        for rng, count in _chunks(cfg.n, seed)
        for rec in excursions.sample_excursions(count, cfg.params, rng)
    ]
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
        return 1.0 if arg < 0.0 else math.exp(-gap * arg)
    if kind == "moment":  # the table admits no other integrand
        k = int(round(arg))
        if k < 0:
            raise _ConfigError("moment order must be a nonnegative integer")
        # checked in logs first, as math.factorial of a huge k does not return:
        # k! (a float only up to k = 170), (b - a)**k and k!/(b - a)**k must be floats
        log_power = k * math.log(gap)
        if k > 170 or max(log_power, math.lgamma(k + 1.0) - log_power) >= _LOG_FLOAT_MAX:
            raise _ConfigError(f"moment order {k}: the reference k!/(b-a)^k is not a finite float")
        return math.factorial(k) / gap**k


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
    kind, arg = cfg.options["integrand"], cfg.options["arg"]
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
    (pos0, vel0), lam = cfg.options["start"], cfg.options["lam"]
    reference = model.hitting_mgf(pos0, vel0, lam, cfg.params)
    if not model.hitting_exponent(lam, cfg.params).is_finite:
        raise _ConfigError(f"lam={lam} lies beyond the transform domain")
    if not reference.is_finite:
        raise _ConfigError(f"the reference at lam={lam} from {pos0} is past the float range")
    times = np.concatenate([
        excursions.sample_hitting(pos0, vel0, cfg.params, rng, size=count)
        for rng, count in _chunks(cfg.n, seed)
    ])
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
    start_1, start_2, horizon, process = (
        cfg.options[k] for k in ("start", "start2", "horizon", "process")
    )
    # the folded gap closes at speed 2 at best, one Exp(a+b) round at a time when b >> a;
    # min keeps the horizon for a nan gap, and the coupling refuses a non-finite start itself
    reach = min(horizon, 0.5 * abs(abs(start_1[0]) - abs(start_2[0])))
    rate = cfg.params.a + cfg.params.b
    _check_cost("(a+b)*min(gap/2, horizon)", rate * reach, "events per run", _PATH_CAP)
    run = coupling.coalescent_couple_reflected
    if process == "unreflected":
        run = coupling.coalescent_couple_unreflected
    results = [
        run(*start_1, *start_2, horizon, cfg.params, rng, record_paths=False)
        for rng, count in _chunks(cfg.n, seed)
        for _ in range(count)
    ]
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
    opts = cfg.options
    walk = 0.5 * (cfg.params.a + cfg.params.b) * max(opts["t_grid"], default=0.0)
    _check_cost("(last grid time)*(a+b)/2", walk, "events per walker", _PATH_CAP)
    curve = analysis.tv_curve(
        opts["start"], opts["start2"], opts["process"], opts["t_grid"], cfg.n, cfg.params,
        simulate.make_stream(seed, 0), bin_width=opts["bin_width"],
    )
    buf = io.StringIO()
    analysis.write_tv_curve_csv(curve, buf)
    ok = True
    if cfg.check:
        for s, tv, bd, floor in zip(
            curve.coupling_survival, curve.binned_tv, curve.theoretical_bound, curve.noise_floor
        ):
            s, tv = float(s), float(tv)
            se_s = _binom_se(s, curve.n_couplings)
            # the histogram reads this high on identical laws, so the
            # sandwich slack must carry the floor on top of the 3-sigma part
            if tv > s + float(floor) + GATE_Z * (se_s + _binom_se(tv, curve.n_paths)):
                ok = False
            if cfg.params.b > cfg.params.a and s > min(1.0, float(bd)) + GATE_Z * se_s:
                ok = False
    return buf.getvalue(), ok


def _cmd_scaling(cfg: RunConfig, seed: int):
    scales, drift, t, dt, x0 = (cfg.options[k] for k in ("scales", "drift", "t", "dt", "x0"))
    # predicted cost, refused before any work; the negated tests refuse nan
    step = analysis.default_oracle_dt(drift) if dt is None else dt
    steps = t / step if step > 0.0 else math.inf
    _check_cost("t/dt", steps, "Euler steps", _SCALING_CAP)
    for scale in scales:
        _check_cost("t*scale**2", t * scale * scale, "events per walker", _SCALING_CAP)
    rows = []
    for i, scale in enumerate(scales):
        rng = simulate.make_stream(seed, 2 * i)
        stat, pval = analysis.scaling_limit_check(scale, drift, t, cfg.n, rng, dt=dt, x0=x0)
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
    lam = cfg.options["lam"]
    p = cfg.params
    contracting = p.b > p.a
    if cfg.check and p.b > _FORMULAS_RATIO_CAP * p.a:
        raise _ConfigError(
            f"--check holds the closed forms to 1e-10 only up to b/a = {_FORMULAS_RATIO_CAP:.0e},"
            f" got b/a = {p.b / p.a:.3g}"
        )

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
            square = psi.value**2  # psi <= sqrt(b/a), so this is at most _FORMULAS_RATIO_CAP
            res = p.a * square - (p.a + p.b - 2.0 * lam_k) * psi.value + p.b
            scale = p.a * square + abs(p.a + p.b - 2.0 * lam_k) * psi.value + p.b
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
        command = _COMMANDS[cfg.command]
        text, ok = command(cfg, cfg.seed)
        _write_output(cfg.out, text)
        attempt = 1
        while cfg.check and not ok and attempt < GATE_ATTEMPTS:
            _, ok = command(cfg, cfg.seed + attempt * RESEED_STRIDE)
            attempt += 1
    except ValueError as exc:  # an option, or a combination the library refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except excursions.RecursionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    return EXIT_GATE if cfg.check and not ok else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
