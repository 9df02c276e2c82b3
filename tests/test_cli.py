import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from telegraph_kit import analysis, cli, model
from telegraph_kit.cli import EXIT_CONFIG, EXIT_GATE, EXIT_OK, EXIT_RUNTIME, main
from telegraph_kit.model import ModelParams


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


# caps the child's own address space, then runs the CLI on the remaining arguments
_CAPPED_CLI = (
    "import resource, sys; cap = int(sys.argv[1]) << 20; "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "from telegraph_kit.cli import main; sys.exit(main(sys.argv[2:]))"
)


def run_child(argv, limit_mb=1024, timeout=60):
    """The CLI in a child process with its address space capped and a time limit.

    An input that loops forever or builds a huge array then fails the test
    instead of hanging the suite or exhausting memory.
    """
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, str(limit_mb), *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def one_error_line(text: str) -> bool:
    return text.startswith("error: ") and text.count("\n") == 1


def test_formulas_output(tmp_path):
    code, text = run_to_file(tmp_path, "f.json", ["formulas", "--lambda", "0.0", "--seed", "5"])
    assert code == EXIT_OK
    table = json.loads(text)
    assert table["a"] == 1.0 and table["b"] == 2.0
    assert abs(table["excursion_mgf"] - 1.0) < 1e-12
    assert abs(table["critical_rate"] - 0.08578643762690485) < 1e-15
    assert table["mean_return_time"] == 2.0
    assert table["bound_reflected_prefactor"] == 3.0
    assert table["meta"]["seed"] == 5
    assert table["meta"]["params"] == {"a": 1.0, "b": 2.0}
    # --lam spells the same flag
    code2, text2 = run_to_file(tmp_path, "g.json", ["formulas", "--lam", "0.0", "--seed", "5"])
    assert code2 == EXIT_OK and text2 == text
    # beyond the domain the transforms are reported as null, not an error
    code3, text3 = run_to_file(tmp_path, "h.json", ["formulas", "--lambda", "2.0"])
    assert code3 == EXIT_OK
    assert json.loads(text3)["excursion_mgf"] is None


def test_simulate_csv_shape(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "p.csv",
        ["simulate", "--process", "unreflected", "--horizon", "20", "--start", "0.5"],
    )
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "t,position,velocity"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.5
    assert rows[-1, 0] == 20.0
    dt = np.diff(rows[:, 0])
    dx = np.diff(rows[:, 1])
    assert np.all(np.abs(np.abs(dx) - dt) <= 1e-9 * 20.0)
    assert set(np.unique(rows[:, 2])) <= {-1.0, 1.0}


def test_stdout_default(capsys):
    assert main(["simulate", "--horizon", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("t,position,velocity\n")


def test_pair_start_forms(tmp_path):
    # a pair --start carries its own velocity and beats the --velocity flag
    code, text = run_to_file(tmp_path, "pair.csv", ["simulate", "--start=2,-1", "--horizon", "5"])
    assert code == EXIT_OK
    assert text.splitlines()[1] == "0.0,2.0,-1"
    code2, text2 = run_to_file(
        tmp_path,
        "pairv.csv",
        ["simulate", "--start=2,-1", "--velocity", "1", "--horizon", "5", "--seed", "0"],
    )
    assert code2 == EXIT_OK and text2 == text

    code3, text3 = run_to_file(
        tmp_path, "hit.csv", ["hitting", "--start=1,1", "--n", "256", "--lambda", "-0.5"]
    )
    assert code3 == EXIT_OK
    from telegraph_kit.model import hitting_mgf

    ref = hitting_mgf(1.0, 1, -0.5, ModelParams(1.0, 2.0)).value
    assert float(text3.splitlines()[1].split(",")[4]) == ref

    assert main(["hitting", "--start=2,0", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["simulate", "--velocity", "3", "--out", str(tmp_path / "y")]) == EXIT_CONFIG


def test_byte_identity_reruns_and_threads(tmp_path):
    args = ["excursions", "--n", "3000", "--seed", "11"]
    _, first = run_to_file(tmp_path, "e1.csv", args + ["--threads", "1"])
    _, second = run_to_file(tmp_path, "e2.csv", args + ["--threads", "1"])
    _, pooled = run_to_file(tmp_path, "e3.csv", args + ["--threads", "8"])
    assert first == second == pooled
    assert len(first.splitlines()) == 3001
    _, other_seed = run_to_file(tmp_path, "e4.csv", ["excursions", "--n", "3000", "--seed", "12"])
    assert other_seed != first


def test_couple_threads_identical(tmp_path):
    args = ["couple", "--n", "2048", "--horizon", "30", "--seed", "3"]
    _, one = run_to_file(tmp_path, "c1.csv", args + ["--threads", "1"])
    _, eight = run_to_file(tmp_path, "c2.csv", args + ["--threads", "8"])
    assert one == eight
    assert one.splitlines()[0] == "run_id,crossing_time,coalescence_time,crossing_position,coalesced"


def test_chunks_start_no_thread(tmp_path, monkeypatch):
    # chunks run in order on one thread; --threads is accepted but starts none
    def no_thread(self):
        raise RuntimeError("a worker thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for command in ("excursions", "hitting", "couple"):
        args = [command, "--n", "3000", "--seed", "11"]
        code_1, one = run_to_file(tmp_path, f"{command}1.csv", args + ["--threads", "1"])
        code_8, eight = run_to_file(tmp_path, f"{command}8.csv", args + ["--threads", "8"])
        assert code_1 == code_8 == EXIT_OK, command
        assert one == eight, command


def test_config_file_resolution(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"b": 3.0, "n": 500, "seed": 7}))
    _, from_file = run_to_file(tmp_path, "x1.csv", ["excursions", "--config", str(conf)])
    _, from_flags = run_to_file(
        tmp_path, "x2.csv", ["excursions", "--b", "3", "--n", "500", "--seed", "7"]
    )
    assert from_file == from_flags
    # explicit flags win over the file
    _, overridden = run_to_file(
        tmp_path, "x3.csv", ["excursions", "--config", str(conf), "--seed", "8"]
    )
    assert overridden != from_file
    assert main(["excursions", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["excursions", "--config", str(bad)]) == EXIT_CONFIG


def test_threads_resolution(monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "3")
    cfg = cli._resolve(["excursions"])
    assert cfg.threads == 3
    cfg = cli._resolve(["excursions", "--threads", "5"])
    assert cfg.threads == 5
    monkeypatch.delenv(cli.THREADS_ENV)
    cfg = cli._resolve(["excursions"])
    assert cfg.threads == 1


def test_far_start_bound_does_not_crash(tmp_path):
    # the closed-form bound for a start at 1000 lies past the float range;
    # the gate must clip it rather than abort with an overflow
    code, text = run_to_file(
        tmp_path,
        "far.csv",
        ["couple", "--start", "1000,1", "--n", "100", "--horizon", "5", "--check",
         "--threads", "1"],
    )
    assert code in (EXIT_OK, EXIT_GATE)
    assert text.startswith("run_id,")


def test_config_errors_exit_one(tmp_path, capsys):
    cases = [
        [],
        ["unknown-command"],
        ["simulate", "--a", "3", "--b", "1"],
        ["simulate", "--a", "-1"],
        ["excursions", "--n", "0"],
        ["excursions", "--n", "-5"],
        ["simulate", "--process", "folded"],
        ["hitting", "--lambda", "0.5"],
        ["invariant", "--integrand", "cosine"],
        ["invariant", "--a", "2", "--b", "2"],
        ["invariant", "--integrand", "exponential", "--arg", "1.5"],
        ["couple", "--start", "1"],
        ["tvcurve", "--t-grid", "1,2,bad", "--n", "1000"],
        ["tvcurve", "--t-grid", "5:1", "--n", "1000"],
        ["scaling", "--scales", ""],
        ["scaling", "--drift", "4", "--scales", "2"],
        ["simulate", "--nope", "1"],
    ]
    for argv in cases:
        assert main(argv) == EXIT_CONFIG, argv
    capsys.readouterr()


def test_runtime_failure_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("lost a stream")

    monkeypatch.setattr(cli.excursions, "sample_excursions", boom)
    assert main(["excursions", "--n", "100"]) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert "lost a stream" in captured.err


def test_critical_tree_budget_exits_two_with_one_line(monkeypatch, capsys):
    # at a == b the excursion tree is critical; the node budget ends the
    # run with a one-line error rather than a traceback
    monkeypatch.setattr(cli.excursions, "NODE_BUDGET", 4096)
    argv = ["excursions", "--a", "1", "--b", "1", "--n", "2000", "--seed", "5"]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "4096 nodes" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_critical_hitting_budget_exits_two_with_one_line(monkeypatch, capsys):
    # hitting times grow their trees as one batch per chunk, so the per-call
    # budget also ends a critical hitting run
    monkeypatch.setattr(cli.excursions, "NODE_BUDGET", 4096)
    argv = ["hitting", "--a", "1", "--b", "1", "--n", "2000", "--seed", "5"]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and "4096 nodes" in captured.err
    assert captured.out == ""


def test_hitting_roots_past_the_budget_exit_two_before_allocating():
    # 1,024 draws of Poisson(1e7) roots per chunk are 1e10 trees: the budget
    # must refuse them before the per-root arrays (80 GB each) are built
    proc = run_child(["hitting", "--start", "1e7,-1", "--n", "2000"], timeout=30)
    assert proc.returncode == EXIT_RUNTIME
    assert one_error_line(proc.stderr) and "nodes in one call" in proc.stderr


def test_bad_hitting_starts_end_with_one_error_line():
    # a negative or non-finite start is a configuration error; a start whose root count
    # alone passes the node budget is refused before the Poisson draw
    proc = run_child(["hitting", "--start=-1,-1", "--n", "2000"], timeout=30)
    assert proc.returncode == EXIT_CONFIG
    assert one_error_line(proc.stderr) and "nonnegative" in proc.stderr
    proc = run_child(["hitting", "--start", "1e30,-1", "--n", "2000"], timeout=30)
    assert proc.returncode == EXIT_RUNTIME
    assert one_error_line(proc.stderr) and "nodes in one call" in proc.stderr
    for start in ("inf,-1", "inf,1", "nan,-1"):
        proc = run_child(["hitting", "--start", start, "--n", "2000"], timeout=30)
        assert proc.returncode == EXIT_CONFIG, start
        assert one_error_line(proc.stderr) and "finite and nonnegative" in proc.stderr, start


def test_scaling_refuses_unbounded_work_before_starting():
    cap = f"{cli._SCALING_CAP:,}"
    cases = [
        (["--t", "inf"], "finite"),
        (["--t", "nan"], "finite"),
        (["--dt", "inf"], "finite"),
        (["--scales", "1e9"], f"events per walker exceed the cap of {cap}"),
        (["--scales", "4,nan"], f"events per walker exceed the cap of {cap}"),
        (["--dt", "1e-12"], f"Euler steps exceed the cap of {cap}"),
        (["--drift", "1e200", "--scales", "1e201"], f"Euler steps exceed the cap of {cap}"),
    ]
    for extra, message in cases:
        proc = run_child(["scaling", "--n", "100", *extra], timeout=30)
        assert proc.returncode == EXIT_CONFIG, extra
        assert one_error_line(proc.stderr) and message in proc.stderr, extra
    # the defaults sit a factor 100 or more inside both caps
    t, scales, drift = (cli._OPTIONS[key].defaults["scaling"] for key in ("t", "scales", "drift"))
    assert 100 * t * max(cli._parse_floats(scales)) ** 2 <= cli._SCALING_CAP
    assert 100 * t / analysis.default_oracle_dt(drift) <= cli._SCALING_CAP
    helped = run_child(["scaling", "--help"])
    assert f"capped at {cap}" in " ".join(helped.stdout.split())


def test_tvcurve_invalid_reflected_starts_exit_one(capsys):
    for start in ("-1,1", "0,-1"):
        argv = ["tvcurve", f"--start={start}", "--n", "1000", "--t-grid", "1"]
        assert main(argv) == EXIT_CONFIG, start
        assert one_error_line(capsys.readouterr().err)


def test_tvcurve_bin_widths_are_checked_before_any_work():
    # 1e-9 would cut the reach 1 + 20 into 4.2e10 bins (a 300 GB histogram);
    # the refusal must come before the couplings, so the 2e6 runs asked for
    # here never start
    cap = f"{analysis._BIN_CAP:,}"
    base = ["tvcurve", "--n", "2000000", "--t-grid", "1:20"]
    cases = [
        (["--bin-width", "1e-9"], f"past the cap of {cap}"),
        (["--bin-width", "1e-9", "--process", "unreflected"], f"past the cap of {cap}"),
        (["--bin-width", "nan"], "finite and positive"),
        (["--bin-width", "inf"], "finite and positive"),
        (["--bin-width", "0"], "finite and positive"),
        (["--bin-width=-0.1"], "finite and positive"),
    ]
    for extra, message in cases:
        proc = run_child(base + extra, timeout=30)
        assert proc.returncode == EXIT_CONFIG, extra
        assert one_error_line(proc.stderr) and message in proc.stderr, extra
    # the reach 1 + 1 is one-sided for the reflected process, so this width
    # makes 0.75 of the cap's bins there and 1.5 times the cap unreflected
    width = 4.0 / (1.5 * analysis._BIN_CAP)
    args = ((1.0, 1), (0.0, 1))
    with pytest.raises(ValueError, match="past the cap"):
        analysis.tv_curve(*args, "unreflected", [1.0], 1000, ModelParams(1, 2), None, width)
    rng = np.random.default_rng(0)
    curve = analysis.tv_curve(*args, "reflected", [1.0], 1000, ModelParams(1, 2), rng, width)
    assert curve.binned_tv.shape == (1,)
    helped = run_child(["tvcurve", "--help"])
    assert f"more than {cap} bins" in " ".join(helped.stdout.split())


def test_non_finite_horizons_exit_one():
    for process in ("reflected", "unreflected"):
        for horizon in ("inf", "nan"):
            proc = run_child(["simulate", "--process", process, "--horizon", horizon])
            assert proc.returncode == EXIT_CONFIG, (process, horizon)
            assert one_error_line(proc.stderr) and "finite" in proc.stderr


def test_non_finite_inputs_and_unrepresentable_references_exit_one():
    # unchecked, these hang, end in a traceback, or run on a non-finite value
    cases = [
        (["tvcurve", "--start", "nan,1", "--n", "1000"], "finite"),
        (["tvcurve", "--start", "inf,1", "--n", "1000"], "finite"),
        (["simulate", "--start", "nan"], "finite"),
        (["couple", "--process", "unreflected", "--start2=nan,1", "--check"], "finite"),
        (["invariant", "--integrand", "moment", "--arg", "171"], "not a finite float"),
        (["invariant", "--integrand", "moment", "--arg", "inf"], "finite"),
        (["invariant", "--integrand", "moment", "--arg", "1e9"], "not a finite float"),
        (["invariant", "--integrand", "moment", "--a", "1", "--b", "1.01", "--arg", "150"],
         "not a finite float"),
        (["invariant", "--integrand", "indicator", "--arg", "nan", "--check"], "finite"),
        (["formulas", "--lam", "nan"], "finite"),
        (["formulas", "--lam", "inf"], "finite"),
        (["formulas", "--lam=-inf"], "finite"),
    ]
    for argv, message in cases:
        proc = run_child(argv, timeout=30)
        assert proc.returncode == EXIT_CONFIG, argv
        assert one_error_line(proc.stderr) and message in proc.stderr, argv


def test_references_past_the_float_range_exit_one(capsys):
    # the closed form is inside its domain here, but exp(x*c(lam)) is past
    # the largest float
    assert model.hitting_mgf(1e5, -1, 0.08, ModelParams(1.0, 2.0)) is model.INFINITE
    cases = [
        ["hitting", "--start", "100000,-1", "--lam", "0.08", "--n", "10"],
        ["hitting", "--start", "1e300,-1", "--lam", "0.08", "--n", "10"],
    ]
    for argv in cases:
        assert main(argv) == EXIT_CONFIG, argv
        captured = capsys.readouterr()
        assert one_error_line(captured.err) and "past the float range" in captured.err, argv
        assert captured.out == "", argv


def test_formulas_check_passes_at_large_rate_ratios(tmp_path):
    # the smaller root of the excursion transform once cancelled here, so the
    # gate's identities failed (exit 3) on valid rates, and psi(0) read 1 - 3e-8
    for a, b in (("0.001", "0.002"), ("2e-6", "2"), ("1e-12", "1")):
        code, _ = run_to_file(tmp_path, "f.json", ["formulas", "--a", a, "--b", b, "--check"])
        assert code == EXIT_OK, (a, b)
    code, text = run_to_file(tmp_path, "g.json", ["formulas", "--a", "1e-9", "--b", "1"])
    assert code == EXIT_OK and json.loads(text)["excursion_mgf"] == 1.0


def test_formulas_check_refuses_past_its_rate_ratio(capsys):
    # past b/a = 1e12 the check's own arithmetic misses its 1e-10 tolerance
    for a in ("1e-13", "1e-300"):
        assert main(["formulas", "--a", a, "--b", "1", "--check"]) == EXIT_CONFIG, a
        captured = capsys.readouterr()
        assert one_error_line(captured.err) and "b/a" in captured.err, a
        assert captured.out == "", a
    # without --check the table is written
    assert main(["formulas", "--a", "1e-300", "--b", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["excursion_mgf"] == 1.0


def test_scaling_needs_two_walkers(capsys):
    # one walker a side leaves the KS p-value undefined (it read nan)
    assert main(["scaling", "--n", "1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert one_error_line(captured.err) and "two walkers" in captured.err
    assert captured.out == ""
    assert main(["scaling", "--n", "2", "--scales", "4"]) == EXIT_OK
    p_value = float(capsys.readouterr().out.splitlines()[1].split(",")[4])
    assert 0.0 <= p_value <= 1.0


def test_moment_orders_up_to_a_float_reference_run(tmp_path):
    # 170! is the last factorial that is a float; with b - a = 1 it is the reference
    code, text = run_to_file(
        tmp_path, "m.csv", ["invariant", "--integrand", "moment", "--arg", "170", "--n", "200"]
    )
    assert code == EXIT_OK
    assert float(text.splitlines()[1].split(",")[3]) == float(math.factorial(170))


def test_invariant_integrand_failures_exit_one(monkeypatch, capsys):
    def non_finite(*args, **kwargs):
        raise ValueError("integrand returned a non-finite value")

    monkeypatch.setattr(cli.excursions, "_regenerative_estimates", non_finite)
    assert main(["invariant", "--n", "100"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert one_error_line(err) and "non-finite" in err


def test_simulate_horizons_are_capped_by_their_expected_events():
    cap = f"{cli._PATH_CAP:,}"
    # (a + b)/2 = 1.5 events per unit time at the default rates; uncapped, 1e308 would not end
    for horizon in ("7e5", "1e308"):
        proc = run_child(["simulate", "--horizon", horizon])
        assert proc.returncode == EXIT_CONFIG, horizon
        assert one_error_line(proc.stderr) and f"exceed the cap of {cap}" in proc.stderr
    assert 100 * 0.5 * 3.0 * cli._OPTIONS["horizon"].defaults["simulate"] <= cli._PATH_CAP
    helped = run_child(["simulate", "--help"])
    assert f"at {cap}" in " ".join(helped.stdout.split())


def test_couplings_and_walkers_are_capped_by_their_expected_events():
    # at b = 1e8 the folded gap of 1 closes one Exp(a+b) round at a time, 5e7 rounds a run;
    # uncapped, these do not end within the limit
    cap = f"{cli._PATH_CAP:,}"
    cases = [
        (["couple", "--b", "1e8", "--n", "1", "--horizon", "10"], "events per run"),
        (["couple", "--b", "1e308", "--n", "1", "--process", "unreflected"], "events per run"),
        (["tvcurve", "--b", "1e8", "--n", "1000", "--t-grid", "1:3", "--bin-width", "0.1"],
         "events per walker"),
    ]
    for argv, unit in cases:
        proc = run_child(argv, timeout=30)
        assert proc.returncode == EXIT_CONFIG, argv
        assert one_error_line(proc.stderr) and f"{unit} exceed the cap of {cap}" in proc.stderr
    # a coupling stops at its merge, so a long horizon alone is no cost
    assert main(["couple", "--n", "100", "--horizon", "1e6", "--out", os.devnull]) == EXIT_OK


def test_time_grids_are_capped_before_they_are_built():
    cap = cli._GRID_CAP
    for grid in ("0:1e12", "0:inf", f"0:{cap}", ",".join(["1"] * (cap + 1))):
        proc = run_child(["tvcurve", "--t-grid", grid, "--n", "1000"])
        assert proc.returncode == EXIT_CONFIG, grid[:20]
        assert one_error_line(proc.stderr) and f"at most {cap} points" in proc.stderr
    assert len(cli._parse_grid(f"1:{cap}")) == cap
    helped = run_child(["tvcurve", "--help"])
    assert f"at most {cap} points" in " ".join(helped.stdout.split())


def test_invariant_gate_rejects_a_sampler_with_the_wrong_gap(monkeypatch, tmp_path):
    # the default exponential integrand at a=1, b=2 has an infinite-variance
    # excursion integral, so its gate reads the capped integrand; a sampler
    # with b - a off by 10% fails each attempt at n = 20,000 on 99% of seeds
    # (b = 2.1) and 100% (b = 1.9), and must fail all three at n = 30,000
    code, text = run_to_file(tmp_path, "ok.csv", ["invariant", "--n", "10000", "--check"])
    assert code == EXIT_OK
    assert text.splitlines()[1].endswith(",2.0")
    run = cli.excursions._regenerative_estimates
    for b in (2.1, 1.9):

        def wrong(integrands, n, params, rng, b=b):
            return run(integrands, n, ModelParams(1.0, b), rng)

        monkeypatch.setattr(cli.excursions, "_regenerative_estimates", wrong)
        code, _ = run_to_file(tmp_path, f"b{b}.csv", ["invariant", "--n", "30000", "--check"])
        assert code == EXIT_GATE, b


def test_failed_gate_exits_three_but_writes_output(tmp_path, monkeypatch):
    # poison the reference so the gate cannot pass on any reseed; the run
    # must still write the first attempt's output and return the gate code
    monkeypatch.setattr(cli, "_invariant_reference", lambda kind, arg, params: 123.0)
    out = tmp_path / "inv.csv"
    argv = ["invariant", "--integrand", "moment", "--arg", "1", "--n", "500", "--check"]
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_GATE
    text = out.read_text()
    assert text.startswith("estimate,std_error,n,reference\n")
    assert text.strip().endswith("123.0")


def test_all_subcommands_check_smoke(tmp_path):
    runs = [
        ["simulate", "--horizon", "30"],
        ["simulate", "--process", "unreflected", "--start", "-1.5", "--velocity", "-1"],
        ["excursions", "--n", "2000"],
        ["invariant", "--n", "1500", "--integrand", "indicator", "--arg", "1.0"],
        ["invariant", "--n", "1500", "--integrand", "moment", "--arg", "1"],
        ["hitting", "--n", "2000", "--start", "1.5", "--lambda", "-0.5"],
        ["couple", "--n", "1500", "--horizon", "40"],
        ["couple", "--n", "1200", "--process", "unreflected", "--start=1,-1",
         "--start2=-0.5,1", "--horizon", "40"],
        ["tvcurve", "--n", "2000", "--t-grid", "2:10:2"],
        ["scaling", "--n", "2000", "--scales", "4,16,64"],
        ["formulas", "--lambda", "-1.0"],
    ]
    for i, argv in enumerate(runs):
        code, text = run_to_file(tmp_path, f"smoke{i}.out", argv + ["--check", "--seed", "2"])
        assert code == EXIT_OK, argv
        assert text


def test_installed_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "telegraph_kit.cli", "formulas", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(out.read_text())["mean_return_time"] == 2.0


# one wrong-typed --config value per case: a non-numeric string, null or a list;
# 'out' takes any string, and null means the computed default where that is None
_WRONG = {"string": "abc", "null": None, "list": [1]}
_CONFIG_CASES = [
    (command, key, kind)
    for command in cli._COMMANDS
    for key, opt in cli._OPTIONS.items()
    if command in opt.defaults
    for kind in _WRONG
    if not (key == "out" and kind == "string")
    and not (kind == "null" and opt.defaults[command] is None)
]


@pytest.mark.parametrize(("command", "key", "kind"), _CONFIG_CASES)
def test_wrong_typed_config_values_exit_one(command, key, kind, tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({key: _WRONG[kind]}))
    out = [] if key == "out" else ["--out", str(tmp_path / "x")]
    assert main([command, "--config", str(conf), *out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert one_error_line(err) and f"--{key.replace('_', '-')} " in err, err
    assert not (tmp_path / "x").exists()


def test_config_check_takes_only_json_booleans(tmp_path, capsys):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({"check": "false", "n": 100}))
    assert main(["excursions", "--config", str(conf)]) == EXIT_CONFIG
    assert one_error_line(capsys.readouterr().err)
    conf.write_text(json.dumps({"check": False, "n": 100}))
    _, unchecked = run_to_file(tmp_path, "u.csv", ["excursions", "--config", str(conf)])
    _, plain = run_to_file(tmp_path, "p.csv", ["excursions", "--n", "100"])
    assert unchecked == plain


def test_sample_counts_past_the_memory_cap_exit_one_at_once(capsys):
    for command in cli._COMMANDS:
        cap = cli._OPTIONS["n"].caps[command]
        # the defaults sit a factor 50 or more inside the cap
        assert 50 * cli._OPTIONS["n"].defaults[command] <= cap, command
        begun = time.perf_counter()
        assert main([command, "--n", "1000000000000"]) == EXIT_CONFIG, command
        assert time.perf_counter() - begun < 1.0, command
        err = capsys.readouterr().err
        assert one_error_line(err) and f"from 1 to {cap:,}" in err, command


def test_help_states_each_table_default_and_rule(capsys):
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helped = " ".join(capsys.readouterr().out.split())
        for key, opt in cli._OPTIONS.items():
            if command in opt.defaults:
                default = opt.defaults[command]
                shown = opt.shown if default is None else default
                assert f"{opt.rule_for(command)}; default {shown}" in helped, (command, key)
