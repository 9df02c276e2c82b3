"""Acceptance gates for the whole toolkit, one criterion per test.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Statistical gates run at level 0.01 and are retried on two
extra seeds before failing; hard tolerances and runtime limits are checked
as stated, with no slack beyond the quoted Monte Carlo error.

Reference configuration throughout: rates a=1, b=2.
"""

import json
import math
import time

import numpy as np
from scipy import stats as sps

from conftest import gate
from telegraph_kit import cli
from telegraph_kit.analysis import (
    domination_gap,
    ks_band,
    ks_two_sample,
    scaling_limit_check,
    tv_curve,
)
from telegraph_kit.coupling import (
    coalescent_couple_reflected,
    coalescent_couple_unreflected,
    sample_dominating_time,
    stick_couple,
)
from telegraph_kit.excursions import (
    first_return_time,
    regenerative_estimate,
    sample_excursions,
    sample_hitting,
)
from telegraph_kit.model import (
    ModelParams,
    bound_constants,
    critical_rate,
    excursion_mgf,
    hitting_exponent,
)
from telegraph_kit.simulate import (
    make_stream,
    sample_reflected_states,
    simulate_reflected,
)

P12 = ModelParams(1.0, 2.0)
LC_12 = critical_rate(P12)
CONSTS_12 = bound_constants(P12)
T_GRID = (5.0, 10.0, 15.0, 20.0)


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def test_criterion_01_closed_form_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)
    worst_fixed = 0.0
    worst_consistency = 0.0
    checked = 0
    for _ in range(100):
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        b = a * 10.0 ** rng.uniform(1e-3, 1.0)
        p = ModelParams(a, b)
        lc = critical_rate(p)
        lams = lc - (1.0 + a + b) * rng.uniform(0.0, 1.0, size=10)
        lams[0] = lc
        for lam in lams:
            psi = excursion_mgf(float(lam), p)
            c = hitting_exponent(float(lam), p)
            assert math.isfinite(psi) and math.isfinite(c)
            m = a + b - 2.0 * lam
            res = a * psi**2 - m * psi + b
            scale = a * psi**2 + abs(m) * psi + b
            worst_fixed = max(worst_fixed, abs(res) / scale)
            cons = lam + a * (psi - 1.0)
            worst_consistency = max(worst_consistency, abs(c - cons) / max(1.0, abs(c)))
            checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 1000 and worst_fixed <= 1e-10 and worst_consistency <= 1e-10 and dt < 1.0
    report(
        1,
        ok,
        f"1000 points, fixed-point residual {worst_fixed:.2e}, "
        f"exponent residual {worst_consistency:.2e}, {dt:.2f}s",
    )


def test_criterion_02_mean_excursion_length():
    timing = {}

    def check(seed):
        t0 = time.perf_counter()
        lengths = sample_excursions(100000, P12, make_stream(900, seed)).length
        timing["dt"] = time.perf_counter() - t0
        timing["mean"] = float(lengths.mean())
        timing["se"] = float(lengths.std(ddof=1)) / math.sqrt(lengths.size)
        return abs(timing["mean"] - 2.0) <= 3.0 * timing["se"] and timing["dt"] < 10.0

    ok = gate(check)
    report(
        2,
        ok,
        f"mean {timing['mean']:.4f} vs 2.0, 3*SE {3 * timing['se']:.4f}, {timing['dt']:.2f}s",
    )


def test_criterion_03_sampler_oracle_equivalence():
    info = {}

    def check(seed):
        t0 = time.perf_counter()
        rng = make_stream(901, seed)
        rec = sample_excursions(10000, P12, rng).length
        rng2 = make_stream(902, seed)
        event = np.array([first_return_time(P12, rng2) for _ in range(10000)])
        _, p = ks_two_sample(rec, event)
        info["p"] = p
        info["dt"] = time.perf_counter() - t0
        return p > 0.01 and info["dt"] < 30.0

    ok = gate(check)
    report(3, ok, f"KS p {info['p']:.3f} (branching vs event-driven), {info['dt']:.2f}s")


def test_criterion_04_excursion_transform():
    targets = {lam: float(excursion_mgf(lam, P12)) for lam in (-1.0, 0.5 * LC_12)}
    info = {}

    def check(seed):
        lengths = sample_excursions(100000, P12, make_stream(903, seed)).length
        for lam, target in targets.items():
            vals = np.exp(lam * lengths)
            err = abs(float(vals.mean()) - target)
            se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
            info[lam] = (err, se)
            if err > 3.0 * se:
                return False
        return True

    ok = gate(check)
    detail = ", ".join(
        f"lam={lam:+.4f}: |err| {e:.2e} vs 3*SE {3 * s:.2e}" for lam, (e, s) in info.items()
    )
    report(4, ok, detail)


def test_criterion_05_hitting_transform():
    lam = 0.5 * LC_12
    target = math.exp(2.0 * float(hitting_exponent(lam, P12)))
    info = {}

    def check(seed):
        rng = make_stream(904, seed)
        times = sample_hitting(2.0, -1, P12, rng, size=100000)
        vals = np.exp(lam * times)
        info["err"] = abs(float(vals.mean()) - target)
        info["se"] = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        return info["err"] <= 3.0 * info["se"]

    ok = gate(check)
    report(
        5,
        ok,
        f"start (2,-1), lam {lam:.4f}: |err| {info['err']:.2e} vs 3*SE {3 * info['se']:.2e}",
    )


def test_criterion_06_invariant_law_reflected():
    info = {}

    def check(seed):
        pos, vel = sample_reflected_states(0.0, 1, 50.0, 10000, P12, make_stream(905, seed))
        info["p"] = float(sps.kstest(pos, sps.expon(scale=1.0 / P12.rate_gap).cdf).pvalue)
        info["frac"] = float(np.mean(vel == 1))
        return info["p"] > 0.01 and 0.48 <= info["frac"] <= 0.52

    ok = gate(check)
    report(
        6,
        ok,
        f"t=50 endpoint KS vs Exp(1) p {info['p']:.3f}, +1 fraction {info['frac']:.4f}",
    )


def test_criterion_07_regenerative_identity():
    info = {}

    def check(seed):
        est = regenerative_estimate(
            lambda pos, v: np.exp(0.5 * pos), 100000, P12, make_stream(906, seed)
        )
        info["est"] = est.value
        info["se"] = est.std_error
        return abs(est.value - 2.0) <= 3.0 * est.std_error

    ok = gate(check)
    report(
        7,
        ok,
        f"E[exp(X/2)] estimate {info['est']:.4f} vs 2.0, 3*SE {3 * info['se']:.4f}",
    )


def test_criterion_08_coupling_leg_marginals():
    info = {}

    def check(seed):
        n = 10000
        rng = make_stream(907, seed)
        leg1 = np.empty(n)
        leg2 = np.empty(n)
        for i in range(n):
            res = coalescent_couple_reflected(1.0, 1, 0.0, 1, 4.0, P12, rng)
            leg1[i] = res.path_1.eval(4.0)[0]
            leg2[i] = res.path_2.eval(4.0)[0]
        rng_ref = make_stream(908, seed)
        ref1 = np.array(
            [simulate_reflected(1.0, 1, 4.0, P12, rng_ref).eval(4.0)[0] for _ in range(n)]
        )
        ref2 = np.array(
            [simulate_reflected(0.0, 1, 4.0, P12, rng_ref).eval(4.0)[0] for _ in range(n)]
        )
        _, info["p1"] = ks_two_sample(leg1, ref1)
        _, info["p2"] = ks_two_sample(leg2, ref2)
        return info["p1"] > 0.01 and info["p2"] > 0.01

    ok = gate(check)
    report(8, ok, f"leg KS p-values at t=4: {info['p1']:.3f}, {info['p2']:.3f}")


def _time_or_inf(coalescence_time):
    # an uncoalesced run counts as never coalescing; a genuine 0.0 stays 0.0
    return math.inf if coalescence_time is None else coalescence_time


def _survival_vs_envelope(times: np.ndarray, envelope: float):
    rows = []
    ok = True
    for t in T_GRID:
        surv = float(np.mean(times > t))
        bound = min(1.0, envelope * math.exp(-LC_12 * t))
        if surv > bound + 3.0 * binom_se(surv, times.size):
            ok = False
        rows.append(f"P(>{t:g})={surv:.4f}<=~{bound:.3f}")
    return ok, rows


def test_criterion_09_reflected_coupling_tail():
    envelope = CONSTS_12.reflected_prefactor * math.exp(CONSTS_12.spatial_rate * 1.0)
    info = {}

    def check(seed):
        rng = make_stream(909, seed)
        times = np.array(
            [
                _time_or_inf(
                    coalescent_couple_reflected(
                        1.0, 1, 0.0, 1, 21.0, P12, rng, record_paths=False
                    ).coalescence_time
                )
                for _ in range(100000)
            ]
        )
        ok, info["rows"] = _survival_vs_envelope(times, envelope)
        return ok

    ok = gate(check)
    report(9, ok, f"envelope 3e^0.75: {'; '.join(info['rows'])}")


def test_criterion_10_unreflected_coupling_tail():
    envelope = CONSTS_12.prefactor * math.exp(CONSTS_12.spatial_rate * 1.0)
    info = {}

    def check(seed):
        rng = make_stream(910, seed)
        times = np.array(
            [
                _time_or_inf(
                    coalescent_couple_unreflected(
                        1.0, 1, -1.0, -1, 21.0, P12, rng, record_paths=False
                    ).coalescence_time
                )
                for _ in range(100000)
            ]
        )
        ok, info["rows"] = _survival_vs_envelope(times, envelope)
        return ok

    ok = gate(check)
    report(10, ok, f"envelope Ce^0.75 from (1,+1) vs (-1,-1): {'; '.join(info['rows'])}")


def test_criterion_11_stochastic_dominations():
    n = 10000
    band = ks_band(n, n, 0.01)
    info = {}

    def check(seed):
        rng = make_stream(911, seed)
        merge = np.array(
            [stick_couple(3.0, P12, rng, record_paths=False).coalescence_time for _ in range(n)]
        )
        descent = sample_hitting(3.0, 1, P12, rng, size=n)
        info["gap_stick"] = domination_gap(merge, descent)
        rng2 = make_stream(912, seed)
        coal = np.array(
            [
                coalescent_couple_reflected(
                    2.0, -1, 0.0, 1, 60.0, P12, rng2, record_paths=False
                ).coalescence_time
                or 60.0
                for _ in range(n)
            ]
        )
        tbar = sample_dominating_time(2.0, 0.0, P12, rng2, size=n).value
        info["gap_bar"] = domination_gap(coal, tbar)
        return info["gap_stick"] <= band and info["gap_bar"] <= band

    ok = gate(check)
    report(
        11,
        ok,
        f"CDF excess {info['gap_stick']:.4f} (merge vs descent) and "
        f"{info['gap_bar']:.4f} (coupling vs assembled bound) within band {band:.4f}",
    )


def test_criterion_12_tv_sandwich():
    grid = np.arange(1.0, 21.0)
    info = {}

    def check(seed):
        curve = tv_curve(
            (1.0, 1), (0.0, 1), "reflected", grid, 10000, P12, make_stream(913, seed)
        )
        worst = -math.inf
        for s, tv, floor in zip(curve.coupling_survival, curve.binned_tv, curve.noise_floor):
            slack = float(floor) + 3.0 * (
                binom_se(float(s), curve.n_couplings) + binom_se(float(tv), curve.n_paths)
            )
            worst = max(worst, float(tv) - float(s) - slack)
        info["worst"] = worst
        return worst <= 0.0

    ok = gate(check)
    report(
        12,
        ok,
        f"binned TV - survival - slack <= {info['worst']:.4f} at every t in 1..20",
    )


def test_criterion_13_scaling_limit():
    info = {}

    def check(seed):
        stats_by_scale = []
        pvals = []
        for i, scale in enumerate((4.0, 16.0, 100.0)):
            stat, p = scaling_limit_check(
                scale, 1.0, 1.0, 10000, make_stream(914 + seed, 2 * i)
            )
            stats_by_scale.append(stat)
            pvals.append(p)
        info["stats"] = stats_by_scale
        info["p"] = pvals[-1]
        inversions = sum(
            1 for u, w in zip(stats_by_scale, stats_by_scale[1:]) if w > u
        )
        return pvals[-1] > 0.001 and stats_by_scale[2] < stats_by_scale[0] and inversions <= 1

    ok = gate(check)
    s = info["stats"]
    report(
        13,
        ok,
        f"KS stats N=4/16/100: {s[0]:.4f}/{s[1]:.4f}/{s[2]:.4f}, p(100) {info['p']:.3f}",
    )


def test_criterion_14_cli_determinism(tmp_path):
    runs = {
        "simulate": ["simulate", "--horizon", "25"],
        "excursions": ["excursions", "--n", "4096"],
        "invariant": ["invariant", "--n", "2000"],
        "hitting": ["hitting", "--n", "2048"],
        "couple": ["couple", "--n", "2048", "--horizon", "40"],
        "tvcurve": ["tvcurve", "--n", "1024"],
        "scaling": ["scaling", "--n", "2048", "--scales", "4,16,64"],
        "formulas": ["formulas", "--lambda", "-0.5"],
    }
    chunked = {"excursions", "hitting", "couple"}
    ok = True
    bad = []
    for name, argv in runs.items():
        outputs = []
        codes = []
        variants = [["--threads", "1"], ["--threads", "8"]] if name in chunked else [[], []]
        for k, extra in enumerate(variants):
            out = tmp_path / f"{name}{k}.out"
            codes.append(
                cli.main(argv + ["--check", "--seed", "6", "--out", str(out)] + extra)
            )
            outputs.append(out.read_bytes())
        if codes != [0, 0] or outputs[0] != outputs[1]:
            ok = False
            bad.append(name)
    detail = (
        "all 8 --check subcommands byte-identical across reruns and thread counts"
        if ok
        else f"mismatch or gate failure in: {', '.join(bad)}"
    )
    report(14, ok, detail)
