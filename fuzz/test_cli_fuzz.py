"""CLI fuzz over flags and --config files.

Each case runs one subcommand in a child process with its address space
capped and a wall-time limit.  The flag cases set one of ``--start``,
``--start2``, ``--horizon``, ``--lam`` or ``--arg`` to nan, an infinity, a
signed zero, 1e308 or an ordinary float.  The config cases set any option
of any subcommand, in a --config file, to a JSON string, null, a list, a
bool, 1e308 or "nan"; ``--n`` is also tried at 1 and at 2, with and
without ``--check``, and past its cap.  The edge cases run every
subcommand, and ``invariant`` with an indicator integrand, at near-critical
rates (b/a = 1 + 1e-9), at a == b, at b/a = 1e6 and at a = 1e-300, and try
``--t-grid`` at one point, at 10,000 points and with a step at the float
spacing, far starts with long horizons, paths of both processes near the
per-path event cap, calls past the per-call event caps of ``tvcurve`` and
``scaling``, and ``--lam`` = -1e300.  A case passes
when the child exits with one of the CLI's codes 0-3 inside the limit and
prints no traceback; an ``--n`` case must also print no numpy
``RuntimeWarning``, and a path near the cap must exit 0.  The example
counts and the generation are fixed, so every run tries the same cases.
Kept out of the tier-1 suite; run from the repository root:

    python3 -m pytest -q fuzz/test_cli_fuzz.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from telegraph_kit import cli  # noqa: E402

LIMIT_MB = 1024
WALL_S = 60

# caps the child's own address space, then runs the CLI on the remaining arguments
_CAPPED_CLI = (
    "import resource, sys; cap = int(sys.argv[1]) << 20; "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "from telegraph_kit.cli import main; sys.exit(main(sys.argv[2:]))"
)

# small runs of every subcommand that takes one of the fuzzed options
BASE = {
    "simulate": ["--horizon", "20"],
    "hitting": ["--n", "200"],
    "couple": ["--n", "200", "--horizon", "10"],
    "tvcurve": ["--n", "1000", "--t-grid", "1:3"],
    "invariant": ["--n", "500"],
    "formulas": [],
}
TAKES = {
    "start": ["simulate", "hitting", "couple", "tvcurve"],
    "start2": ["couple", "tvcurve"],
    "horizon": ["simulate", "couple"],
    "lam": ["hitting", "formulas"],
    "arg": ["invariant"],
}
CASES = [(option, command) for option, commands in TAKES.items() for command in commands]

values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0.0", "-0.0", "1e308", "-1e308"]),
    st.floats(-50.0, 50.0).map(repr),
)


# small runs of every subcommand, as config values the fuzzed option overrides
CONFIG_BASE = {
    "simulate": {"horizon": 20},
    "excursions": {"n": 200},
    "invariant": {"n": 500},
    "hitting": {"n": 200},
    "couple": {"n": 200, "horizon": 10},
    "tvcurve": {"n": 1000, "t_grid": "1:3"},
    "scaling": {"n": 200, "scales": "4,16"},
    "formulas": {},
}
CONFIG_CASES = [
    (command, key)
    for command in CONFIG_BASE
    for key, option in cli._OPTIONS.items()
    if command in option.defaults
]
config_values = st.sampled_from(["x", None, [1, 2], True, False, 1e308, "nan"])


def run_child(argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, str(LIMIT_MB), *argv],
        capture_output=True, text=True, timeout=WALL_S, env=env, cwd=cwd,
    )


def assert_clean(argv, proc):
    assert proc.returncode in (0, 1, 2, 3), (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])


def run_config(command, conf, argv=()):
    """The subcommand on a config file, in a temporary directory that any --out lands in."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "run.json"
        path.write_text(json.dumps(conf))
        full = [command, "--config", str(path), *argv]
        proc = run_child(full, cwd=workdir)
        assert_clean([*full, conf], proc)
        return proc


@settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(CASES),
    value=values,
    velocity=st.sampled_from(["1", "-1"]),
    process=st.sampled_from(["reflected", "unreflected"]),
    integrand=st.sampled_from(["exponential", "indicator", "moment"]),
    check=st.booleans(),
)
def test_fuzzed_option_runs_or_exits_cleanly(case, value, velocity, process, integrand, check):
    option, command = case
    if option in ("start", "start2"):
        value = f"{value},{velocity}"
    argv = [command, *BASE[command], f"--{option}={value}", "--out", os.devnull]
    if command in ("simulate", "couple", "tvcurve"):
        argv.append(f"--process={process}")
    if command == "invariant":
        argv.append(f"--integrand={integrand}")
    if check:
        argv.append("--check")
    assert_clean(argv, run_child(argv))


@settings(
    max_examples=200, derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=st.sampled_from(CONFIG_CASES), value=config_values, check=st.booleans())
def test_fuzzed_config_value_runs_or_exits_cleanly(case, value, check):
    command, key = case
    argv = ["--check"] if check and key != "check" else []
    if key != "out":
        argv += ["--out", os.devnull]
    run_config(command, {**CONFIG_BASE[command], key: value}, argv)


@pytest.mark.parametrize("command", list(CONFIG_BASE))
@pytest.mark.parametrize(
    "n, check", [("1", False), ("2", False), ("1", True), ("2", True), ("past the cap", False)]
)
def test_small_and_capped_sample_counts_run_or_exit_cleanly(command, n, check):
    if n == "past the cap":
        n = str(cli._OPTIONS["n"].caps[command] + 1)
    conf = {key: value for key, value in CONFIG_BASE[command].items() if key != "n"}
    argv = ["--n", n, "--out", os.devnull] + (["--check"] if check else [])
    proc = run_config(command, conf, argv)
    # a standard error of one draw is nan, which numpy reports with a RuntimeWarning
    assert "RuntimeWarning" not in proc.stderr, (command, argv, proc.stderr[-2000:])


# the rates where the samplers' scales run to their extremes: a mean
# excursion length 2/(b - a) of 2e9, no drift at all, flips a million times
# faster moving away from the origin than moving toward it, and almost no
# flips while moving toward it
RATES = {
    "near-critical": ["--a", "1", "--b", "1.000000001"],
    "a == b": ["--a", "1", "--b", "1"],
    "b/a = 1e6": ["--a", "1", "--b", "1e6"],
    "a = 1e-300": ["--a", "1e-300", "--b", "2"],
}
SMALL = {
    command: [arg for key, value in conf.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
    for command, conf in CONFIG_BASE.items()
}
# 900,000 expected events at a + b = 3, near the per-path cap of 1,000,000;
# each must run and pass its check
NEAR_CAP_PATHS = [
    ["simulate", "--process", process, "--horizon", "600000"] for process in ("reflected", "unreflected")
]
EDGES = [
    *([command, *SMALL[command], *rates] for rates in RATES.values() for command in SMALL),
    # the default integrand refuses the first two rates; near b == a one
    # excursion walks past the estimator's event budget
    *(["invariant", *SMALL["invariant"], "--integrand", "indicator", "--arg", "1", *rates]
      for rates in RATES.values()),
    # one grid point, 10,000 of them, and steps at and below the float spacing near 1
    ["tvcurve", "--n", "1000", "--t-grid", "1"],
    ["tvcurve", "--n", "1000", "--t-grid", "1:10000"],
    ["tvcurve", "--n", "1000", "--t-grid", "1:1.000000000000001:2.220446049250313e-16"],
    ["tvcurve", "--n", "1000", "--t-grid", "1:1.0000000000000002:1e-17"],
    # far starts with long horizons, near the event caps
    ["simulate", "--start", "1e5", "--horizon", "6e5"],
    *NEAR_CAP_PATHS,
    ["couple", "--n", "20", "--start=1e5,1", "--horizon", "1e5"],
    ["tvcurve", "--n", "1000", "--start=1e4,1", "--t-grid", "1000:5000:1000"],
    # calls whose items each sit inside the per-item cap, but hours of work in all
    ["tvcurve", "--n", "100000", "--t-grid", "1:600000:1000"],
    ["scaling", "--n", "1000000", "--scales", "1000"],
    ["scaling", "--n", "9000000"],
    ["hitting", "--n", "200", "--lam=-1e300"],
    ["hitting", "--n", "200", "--start", "1e5", "--lam=-1e300"],
    ["formulas", "--lam=-1e300"],
]


@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("argv", EDGES, ids=" ".join)
def test_edge_inputs_run_or_exit_cleanly(argv, check):
    near_cap = argv in NEAR_CAP_PATHS
    argv = [*argv, "--out", os.devnull] + (["--check"] if check else [])
    proc = run_child(argv)
    assert_clean(argv, proc)
    if near_cap:
        assert proc.returncode == 0, (argv, proc.stderr[-2000:])
