"""Command line front end.

Subcommands cover simulation, excursion sampling, invariant-law estimation,
hitting-time transforms, coupled runs, distance curves, the diffusive limit
and the closed-form table.  Every run draws all randomness from one root
seed through numbered Philox streams, so outputs are reproducible byte for
byte; batch subcommands split work into fixed-size chunks with one stream
per chunk and run them in order on one thread.  --threads is still accepted,
and checked, so that existing commands run, but it changes nothing.

Exit codes: 0 success, 1 invalid configuration, 2 runtime abort (among them a
node or event budget passed near b = a), 3 check-gate failure.  --check
verifies one gate, retried on two derived seeds; a correct run fails an
attempt about 1% of the time or less, a whole run about once in 1e6.
Gated: excursions' mean length, invariant's ratio estimate (moments, and
exponentials with 2*theta >= b - a, capped at 3/(b - a)) and hitting's mean
of T, each within 3 standard errors; couple's and tvcurve's survival below
tv_bound, and tvcurve's binned-TV sandwich; scaling's KS p-value above 0.01
at the largest scale; simulate's path consistency; formulas' identities.
"""

from __future__ import annotations

import io
import math
import sys
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
# the invariant gate caps exp(theta*x) and x**k above x = _GATE_CAP_SCALE / (b - a)
_GATE_CAP_SCALE = 3.0
# formulas --check tests its identities to 1e-10 relative, which their own float
# arithmetic misses past this rate ratio b/a (at 1e13 for b = 1 and b = 2)
_FORMULAS_RATIO_CAP = 1e12
# a quantity whose log reaches this is past the largest float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    # null means the default, 1; a count below 1 means 1
    return max(1, _integer(1 if raw is None else raw))


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
    a value that fails test or lies outside the subcommand's floor and cap is
    refused as not ``rule``.  The keys of defaults are the subcommands that
    take the option.
    """

    parse: Callable
    rule: str
    help: str
    defaults: dict
    test: Callable = lambda value: True
    shown: str = ""  # what a None default stands for; it is computed later
    caps: dict = field(default_factory=dict)
    floors: dict = field(default_factory=dict)  # subcommand: (least value, why, or "")

    def rule_for(self, command: str) -> str:
        floor, why = self.floors.get(command, (0, ""))
        rule = self.rule.format(floor=f"{floor:,}", cap=f"{self.caps.get(command, 0):,}")
        return f"{rule}, as {why}" if why else rule

    def convert(self, raw, command: str):
        value = self.parse(raw)
        cap = self.caps.get(command)
        floor, _ = self.floors.get(command, (None, ""))
        if value is not None and not (
            self.test(value)
            and (cap is None or value <= cap)
            and (floor is None or value >= floor)
        ):
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


# subcommand: (default --n, least --n and why, bytes per item).  A smaller
# --n than the least, or a larger one than _MEMORY_BUDGET over the bytes per
# item, is refused before any work.  Bytes per item are the slope of a run's
# peak RSS between --n 20,000 and 100,000 at the other defaults, output text
# included (x86-64 Linux, Python 3.11, numpy 2.4), rounded up.  simulate and
# formulas draw no batch; their 1 byte only bounds n.
_SIZES = {
    "simulate": (1, (1, ""), 1),
    "excursions": (10000, (1, ""), 350),
    "invariant": (10000, (2, "a standard error needs at least 2 excursions"), 2400),
    "hitting": (10000, (2, "a standard error needs at least 2 draws"), 40),
    "couple": (10000, (1, ""), 450),
    "tvcurve": (2000, (1000, "the TV curve needs at least 1000 runs per leg"), 330),
    "scaling": (10000, (2, "a KS test needs two walkers"), 220),
    "formulas": (1, (1, ""), 1),
}
_MEMORY_BUDGET = 2 << 30
# An event-driven run costs its expected events.  _COSTS holds, per subcommand, the cap
# on one call, then one item's formula and item, then the items in one call and one item's
# events from n, a+b and the options; main refuses an item past _PATH_CAP and a call past
# its cap before any work.  A path flips (a+b)/2 times per unit time (its stationary
# velocity is +1 half the time); a folded coupling gap closes at speed 2 at best, one
# Exp(a+b) round at a time when b >> a (min keeps the horizon for a nan gap); tvcurve runs
# n couplings and 2n walkers to the last grid time; a scaling walker flips N**2 times per
# unit t at scale N, and a nan scale, which max drops unless first, counts as inf.  The
# defaults need 75; 1.5 and 15,000; 30 and 1.8e5; 1e4 and 3e8.  _WALKER_CAP is about 11 s
# of scaling at scale 100 on one x86-64 core (2e8 walker-events took 2.3 s).
_PATH_CAP = 1_000_000
_COUPLE_CAP = 10_000_000
_WALKER_CAP = 1_000_000_000
_COSTS = {
    "simulate": (_PATH_CAP, "horizon*(a+b)/2", "path", lambda n, r, o: (1, 0.5 * r * o["horizon"])),
    "couple": (_COUPLE_CAP, "(a+b)*min(gap/2, horizon)", "run", lambda n, r, o: (n, r * min(
        o["horizon"], 0.5 * abs(abs(o["start"][0]) - abs(o["start2"][0]))))),
    "tvcurve": (_WALKER_CAP, "(last grid time)*(a+b)/2", "walker",
                lambda n, r, o: (3 * n, 0.5 * r * max(o["t_grid"], default=0.0))),
    "scaling": (_WALKER_CAP, "t*scale**2", "walker", lambda n, r, o: (n * len(o["scales"]),
                o["t"] * max(math.inf if math.isnan(s) else s * s for s in o["scales"]))),
}
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
        _integer, "an integer from {floor} to {cap}", "sample count",
        {command: n for command, (n, _, _) in _SIZES.items()},
        caps={command: _MEMORY_BUDGET // size for command, (_, _, size) in _SIZES.items()},
        floors={command: floor for command, (_, floor, _) in _SIZES.items()},
    ),
    "out": _Option(_text, "a file name, '-' for stdout", "output file",
                   dict.fromkeys(_EVERY, "-"), bool),
    "threads": _Option(_threads, "an integer, below 1 meaning 1",
                       "accepted for old commands; chunks run in order on one thread",
                       dict.fromkeys(_EVERY), shown="1"),
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
        f"diffusive time; t*scale**2 events per walker are capped at {_PATH_CAP:,}",
        {"scaling": 1.0},
    ),
    "x0": _real("finite", "diffusive start position", {"scaling": 0.0}),
}


def _resolve(argv) -> RunConfig:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # keep argparse from sys.exit(2)
            raise _ConfigError(message)

    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes the first token not led by "-" as the subcommand; only its options are
    # added and read, the others only named, for the top-level help and a bad choice's error
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    options = {key: opt for key, opt in _OPTIONS.items() if command in opt.defaults}
    parser = _Parser(prog="telegraph-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _EVERY:
        p = sub.add_parser(name)
        if name == command:
            for key, opt in options.items():
                flags = ["--" + key.replace("_", "-")] + (["--lambda"] if key == "lam" else [])
                action = dict(action="store_const", const=True) if key == "check" else {}
                p.add_argument(*flags, dest=key, help=opt.help_for(command), **action)
            p.add_argument("--config", help="JSON object of option values; flags win")
    args = parser.parse_args(argv)
    if args.command is None:
        raise _ConfigError("a subcommand is required")
    file_conf = {}
    if args.config is not None:
        import json

        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise _ConfigError("config file must hold a JSON object")
    # every value, from a flag, the config file or the default, goes through its option
    values = {}
    for key, opt in options.items():
        raw = getattr(args, key)
        if raw is None:
            raw = file_conf.get(key, opt.defaults[command])
        try:
            values[key] = opt.convert(raw, command)
        except ValueError as exc:
            raise _ConfigError(f"--{key.replace('_', '-')} {exc}") from None
    # a bare start position takes --velocity, where the subcommand has one
    if "start" in values and values["start"][1] is None:
        if "velocity" not in values:
            raise _ConfigError(f"--start must be {_PAIR}, got a bare position")
        values["start"] = (values["start"][0], values["velocity"])
    params = model.ModelParams(values.pop("a"), values.pop("b"))  # its ValueError exits 1 too
    common = [values.pop(key) for key in ("seed", "n", "out", "threads", "check")]
    return RunConfig(command, params, *common, values)


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


def _cmd_simulate(cfg: RunConfig, seed: int, out) -> bool:
    (pos0, vel0), horizon, process = (cfg.options[k] for k in ("start", "horizon", "process"))
    run = simulate.simulate_reflected if process == "reflected" else simulate.simulate_unreflected
    path = run(pos0, vel0, horizon, cfg.params, simulate.make_stream(seed, 0))
    paths.write_path_csv(path, out)
    if cfg.check:
        try:
            path.validate(reflected=process == "reflected")
            if process == "unreflected":
                paths.reflect_path(path).validate(reflected=True)
        except ValueError:
            return False
    return True


def _cmd_excursions(cfg: RunConfig, seed: int, out) -> bool:
    if cfg.check and cfg.n < 2:
        raise _ConfigError(f"--check needs --n of at least 2 for a standard error, got {cfg.n}")
    chunks = [
        excursions.sample_excursions(count, cfg.params, rng) for rng, count in _chunks(cfg.n, seed)
    ]
    batch = excursions.ExcursionRecord._make(map(np.concatenate, zip(*chunks)))
    excursions.write_excursions_csv(batch, out)
    if cfg.check and cfg.params.b > cfg.params.a:
        lengths = batch.length
        target = model.mean_excursion_length(cfg.params)
        se = float(lengths.std(ddof=1)) / math.sqrt(lengths.size)
        return abs(float(lengths.mean()) - target) <= GATE_Z * se
    return True


_INTEGRANDS = {
    "exponential": lambda arg: (lambda pos, v: np.exp(arg * pos)),
    "indicator": lambda arg: (lambda pos, v: (pos > arg).astype(np.float64)),
    "moment": lambda arg: (lambda pos, v: pos ** int(arg)),
}


def _invariant_reference(kind: str, arg: float, params: model.ModelParams) -> float:
    gap = params.rate_gap
    if kind == "exponential":
        ref = model.invariant_mgf(arg, params)
        if not math.isfinite(ref):
            raise _ConfigError(f"exponential rate {arg} is outside the invariant domain")
        return ref
    if kind == "indicator":
        return 1.0 if arg < 0.0 else math.exp(-gap * arg)
    if kind == "moment":  # the table admits no other integrand
        if not (arg >= 0.0 and arg.is_integer()):
            raise _ConfigError(f"moment order must be a nonnegative integer, got {arg!r}")
        k = int(arg)
        # checked in logs first, as math.factorial of a huge k does not return:
        # k! (a float only up to k = 170), (b - a)**k and k!/(b - a)**k must be floats
        log_power = k * math.log(gap)
        if k > 170 or max(log_power, math.lgamma(k + 1.0) - log_power) >= _LOG_FLOAT_MAX:
            raise _ConfigError(f"moment order {k:g}: the reference k!/(b-a)^k is not a finite float")
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


def _capped_moment(k: int, reference: float, params: model.ModelParams):
    """Gate integrand min(x, L)**k, its breakpoint L and its reference.

    At moderate k the excursion integral of x**k is so skewed that its
    standard error is no scale for a gate; capped at L, the integrand is
    bounded.  With X ~ Exp(g), g = b - a, y = g*L and P the regularized
    lower incomplete gamma function, E[min(X, L)**k] is
    (k!/g**k)*P(k+1, y) + L**k*exp(-y) = reference * exp(-y) * sum_{j>=k} y**j/j!,
    as L**k*exp(-y) is the j = k term.  The sum runs over P's tail, since
    1 - exp(-y)*sum_{j<=k} would cancel: at k = 30 the true k!*P(k+1, y) is
    about 1e12, while one ulp of 1 times 30! is about 6e16.
    """
    level = _GATE_CAP_SCALE / params.rate_gap
    y = _GATE_CAP_SCALE
    term, tail, j = y**k / math.factorial(k), 0.0, k
    while term > tail * sys.float_info.epsilon:
        tail += term
        j += 1
        term *= y / j
    return (lambda pos, v: np.minimum(pos, level) ** k), level, reference * math.exp(-y) * tail


def _mean_hitting_time(x: float, v: int, params: model.ModelParams) -> float:
    """E[T] of the origin hitting time T from (x, v), for b > a.

    From (x, -1) it is x * c'(0) = x*(a+b)/(b-a), with c the exponent of
    :func:`model.hitting_exponent`; from (x, +1) the excursion in progress
    adds its mean length 2/(b-a).
    """
    mean = x * (params.a + params.b) / params.rate_gap
    return mean + model.mean_excursion_length(params) if v == 1 else mean


def _cmd_invariant(cfg: RunConfig, seed: int, out) -> bool:
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
    elif cfg.check and kind == "moment":
        capped, level, gate_reference = _capped_moment(int(arg), reference, cfg.params)
        integrands.append((capped, (level,)))
    rng = simulate.make_stream(seed, 0)
    estimates = excursions._regenerative_estimates(integrands, cfg.n, cfg.params, rng)
    est = estimates[0]
    rows = [(est.value, est.std_error, est.n, reference)]
    paths.write_csv(out, "estimate,std_error,n,reference", zip(*rows))
    if cfg.check:
        gated = estimates[-1]
        # the estimate is a ratio of two float sums over n excursions, which
        # may stray from its exact value by about n ulps: enough to fail an
        # integrand that makes it exact, as min(x, L)**0 = 1 does with a
        # standard error of rounding noise
        rounding = cfg.n * sys.float_info.epsilon * abs(gate_reference)
        return abs(gated.value - gate_reference) <= GATE_Z * gated.std_error + rounding
    return True


def _cmd_hitting(cfg: RunConfig, seed: int, out) -> bool:
    (pos0, vel0), lam = cfg.options["start"], cfg.options["lam"]
    reference = model.hitting_mgf(pos0, vel0, lam, cfg.params)
    if not math.isfinite(model.hitting_exponent(lam, cfg.params)):
        raise _ConfigError(f"lam={lam} lies beyond the transform domain")
    if not math.isfinite(reference):
        raise _ConfigError(f"the reference at lam={lam} from {pos0} is past the float range")
    times = np.concatenate([
        excursions.sample_hitting(pos0, vel0, cfg.params, rng, size=count)
        for rng, count in _chunks(cfg.n, seed)
    ])
    values = np.exp(lam * times)
    est = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    rows = [(lam, est, se, values.size, reference)]
    paths.write_csv(out, "lam,estimate,std_error,n,reference", zip(*rows))
    if cfg.check and cfg.params.b > cfg.params.a:
        # exp(lam*T) from a far start is a rare-event mean whose standard
        # error is no scale for a gate; T itself has every moment when b > a
        target = _mean_hitting_time(pos0, vel0, cfg.params)
        se_t = float(times.std(ddof=1)) / math.sqrt(times.size)
        return abs(float(times.mean()) - target) <= GATE_Z * se_t
    return True


def _cmd_couple(cfg: RunConfig, seed: int, out) -> bool:
    start_1, start_2, horizon, process = (
        cfg.options[k] for k in ("start", "start2", "horizon", "process")
    )
    run = coupling.coalescent_couple_reflected
    if process == "unreflected":
        run = coupling.coalescent_couple_unreflected
    results = [
        run(*start_1, *start_2, horizon, cfg.params, rng, record_paths=False)
        for rng, count in _chunks(cfg.n, seed)
        for _ in range(count)
    ]
    coupling.write_coupling_batch_csv(results, out)
    if cfg.check and cfg.params.b > cfg.params.a:
        times = np.array(
            [math.inf if r.coalescence_time is None else r.coalescence_time for r in results]
        )
        for frac in (0.25, 0.5, 0.75, 1.0):
            t = frac * horizon
            surv = float((times > t).mean())
            bound = model.tv_bound(t, start_1[0], start_2[0], process, cfg.params)
            if surv > min(1.0, bound) + GATE_Z * _binom_se(surv, times.size):
                return False
    return True


def _cmd_tvcurve(cfg: RunConfig, seed: int, out) -> bool:
    opts = cfg.options
    curve = analysis.tv_curve(
        opts["start"], opts["start2"], opts["process"], opts["t_grid"], cfg.n, cfg.params,
        simulate.make_stream(seed, 0), bin_width=opts["bin_width"],
    )
    analysis.write_tv_curve_csv(curve, out)
    if cfg.check:
        for s, tv, bd, floor in zip(
            curve.coupling_survival, curve.binned_tv, curve.theoretical_bound, curve.noise_floor
        ):
            s, tv = float(s), float(tv)
            se_s = _binom_se(s, curve.n_couplings)
            # the histogram reads this high on identical laws, so the
            # sandwich slack must carry the floor on top of the 3-sigma part
            if tv > s + float(floor) + GATE_Z * (se_s + _binom_se(tv, curve.n_paths)):
                return False
            if cfg.params.b > cfg.params.a and s > min(1.0, float(bd)) + GATE_Z * se_s:
                return False
    return True


def _cmd_scaling(cfg: RunConfig, seed: int, out) -> bool:
    scales, drift, t, x0 = (cfg.options[k] for k in ("scales", "drift", "t", "x0"))
    rows = []
    for i, scale in enumerate(scales):
        rng = simulate.make_stream(seed, 2 * i)
        stat, pval = analysis.scaling_limit_check(scale, drift, t, cfg.n, rng, x0=x0)
        rows.append((scale, drift, t, stat, pval))
    paths.write_csv(out, "N,c,t,ks_stat,p_value", zip(*rows))
    # one KS test at level 0.01, at the largest scale (rows sort by scale first)
    return not cfg.check or max(rows)[4] > 0.01


def _cmd_formulas(cfg: RunConfig, seed: int, out) -> bool:
    lam = cfg.options["lam"]
    p = cfg.params
    contracting = p.b > p.a
    if cfg.check and p.b > _FORMULAS_RATIO_CAP * p.a:
        raise _ConfigError(
            f"--check holds the closed forms to 1e-10 only up to b/a = {_FORMULAS_RATIO_CAP:.0e},"
            f" got b/a = {p.b / p.a:.3g}"
        )

    def finite(value) -> float | None:  # JSON has no inf or nan: a divergent value is null
        return value if math.isfinite(value) else None

    table = {
        "a": p.a,
        "b": p.b,
        "lam": lam,
        "critical_rate": model.critical_rate(p) if contracting else 0.0,
        "mean_return_time": finite(model.mean_excursion_length(p)) if contracting else None,
        "excursion_mgf": finite(model.excursion_mgf(lam, p)),
        "hitting_exponent": finite(model.hitting_exponent(lam, p)),
        "invariant_mgf": finite(model.invariant_mgf(lam, p)) if contracting else None,
    }
    if contracting:
        consts = model.bound_constants(p)
        table["bound_prefactor"] = finite(consts.prefactor)
        table["bound_spatial_rate"] = consts.spatial_rate
        table["bound_reflected_prefactor"] = finite(consts.reflected_prefactor)
    table["meta"] = {
        "seed": cfg.seed,
        "version": __version__,
        "params": {"a": p.a, "b": p.b},
    }
    import json

    out.write(json.dumps(table, indent=2, sort_keys=True, allow_nan=False) + "\n")
    if cfg.check:
        top = model.critical_rate(p) if contracting else 0.0
        for lam_k in np.linspace(top - 5.0, top, 101):
            psi = model.excursion_mgf(float(lam_k), p)
            c = model.hitting_exponent(float(lam_k), p)
            if not (math.isfinite(psi) and math.isfinite(c)):
                return False
            square = psi**2  # psi <= sqrt(b/a), so this is at most _FORMULAS_RATIO_CAP
            res = p.a * square - (p.a + p.b - 2.0 * lam_k) * psi + p.b
            scale = p.a * square + abs(p.a + p.b - 2.0 * lam_k) * psi + p.b
            consistency = lam_k + p.a * (psi - 1.0)
            if abs(res) > 1e-10 * scale or abs(c - consistency) > 1e-10 * max(1.0, abs(c)):
                return False
    return True


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
        if cfg.command in _COSTS:
            cap, formula, item, cost = _COSTS[cfg.command]
            items, each = cost(cfg.n, cfg.params.a + cfg.params.b, cfg.options)
            _check_cost(formula, each, f"events per {item}", _PATH_CAP)
            _check_cost(f"{items:,} {item}s x {formula}", items * each, "events per call", cap)
        command = _COMMANDS[cfg.command]
        # the first attempt's text is the output; a retry writes into a throwaway stream
        text = io.StringIO()
        ok = command(cfg, cfg.seed, text)
        _write_output(cfg.out, text.getvalue())
        attempt = 1
        while cfg.check and not ok and attempt < GATE_ATTEMPTS:
            ok = command(cfg, cfg.seed + attempt * RESEED_STRIDE, io.StringIO())
            attempt += 1
    except ValueError as exc:  # an option, or a combination the library refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except excursions.RecursionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_RUNTIME
    return EXIT_GATE if cfg.check and not ok else EXIT_OK


def __getattr__(name):
    # perfbench/tracing.py patches cli.ThreadPoolExecutor on every traced run; it is
    # served on demand, as importing concurrent.futures (and logging) slows every start
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
