"""CLI fuzz over the start, horizon, transform and integrand options.

Each case runs one subcommand in a child process with its address space
capped and a wall-time limit, with one of ``--start``, ``--start2``,
``--horizon``, ``--lam`` or ``--arg`` set to nan, an infinity, a signed
zero, 1e308 or an ordinary float.  A case passes when the child exits with
one of the CLI's codes 0-3 inside the limit and prints no traceback.  The
example count and the generation are fixed, so every run tries the same
cases.  Kept out of the tier-1 suite; run from the repository root:

    python3 -m pytest -q fuzz/test_cli_fuzz.py
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent
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


def run_child(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, str(LIMIT_MB), *argv],
        capture_output=True, text=True, timeout=WALL_S, env=env,
    )


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
    proc = run_child(argv)
    assert proc.returncode in (0, 1, 2, 3), (argv, proc.returncode, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])
