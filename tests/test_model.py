import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from telegraph_kit.coupling import dominating_time_mgf
from telegraph_kit.model import (
    BoundConstants,
    DegenerateRatesError,
    ModelParams,
    VELOCITY_WEIGHT,
    bound_constants,
    critical_rate,
    excursion_mgf,
    hitting_exponent,
    hitting_mgf,
    invariant_density,
    invariant_mgf,
    mean_excursion_length,
    tv_bound,
)

P12 = ModelParams(1.0, 2.0)

# Frozen oracle values for (a, b) = (1, 2), computed by direct substitution
# into the closed forms and cross-checked by Monte Carlo during development.
LC_12 = 0.08578643762690485          # (3 - 2*sqrt(2)) / 2
PSI_MINUS1_12 = 0.4384471871911697   # (5 - sqrt(17)) / 2
C_MINUS1_12 = -1.5615528128088303    # (1 - sqrt(17)) / 2
C_CONST_12 = 4.970562748477142       # (b/a)^{5/2} (a+b) / (sqrt(ab) + b)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(-1.0, 2.0)
    with pytest.raises(ValueError):
        ModelParams(2.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(math.nan, 1.0)
    p = ModelParams(1.5, 1.5)  # degenerate rates are a valid simulator mode
    assert p.rate_gap == 0.0
    with pytest.raises(DegenerateRatesError):
        p.require_contracting()
    with pytest.raises(DegenerateRatesError):
        critical_rate(p)
    with pytest.raises(DegenerateRatesError):
        mean_excursion_length(p)
    with pytest.raises(DegenerateRatesError):
        invariant_density(0.0, "reflected", p)
    with pytest.raises(DegenerateRatesError):
        bound_constants(p)


def test_critical_rate_frozen():
    assert critical_rate(P12) == pytest.approx(LC_12, rel=1e-12)
    assert critical_rate(ModelParams(1.0, 4.0)) == 0.5


def test_excursion_mgf_frozen_points():
    assert excursion_mgf(0.0, P12) == pytest.approx(1.0, rel=1e-12)
    assert excursion_mgf(-1.0, P12) == pytest.approx(PSI_MINUS1_12, rel=1e-12)
    lc = critical_rate(P12)
    # boundary value sqrt(b/a); the clamped discriminant costs ~1e-8 there
    assert excursion_mgf(lc, P12) == pytest.approx(math.sqrt(2.0), rel=1e-7)
    assert excursion_mgf(lc + 1e-6, P12) == math.inf


def test_hitting_exponent_frozen_points():
    assert hitting_exponent(0.0, P12) == pytest.approx(0.0, abs=1e-12)
    assert hitting_exponent(-1.0, P12) == pytest.approx(C_MINUS1_12, rel=1e-12)
    lc = critical_rate(P12)
    assert hitting_exponent(lc, P12) == pytest.approx(0.5, rel=1e-7)
    assert hitting_exponent(lc + 1e-6, P12) == math.inf


@pytest.mark.parametrize(
    "closed_form, inside, beyond",
    [
        (excursion_mgf, (-1.0, P12), (LC_12 + 1e-6, P12)),
        (hitting_exponent, (-1.0, P12), (LC_12 + 1e-6, P12)),
        (hitting_mgf, (2.0, 1, -1.0, P12), (2.0, 1, LC_12 + 1e-6, P12)),
        (hitting_mgf, (2.0, -1, LC_12, P12), (2.0, -1, LC_12 + 1e-6, P12)),
        (invariant_mgf, (0.5, P12), (1.0, P12)),
        (dominating_time_mgf, (1.0, 0.5, -1.0, P12), (1.0, 0.5, LC_12 + 1e-6, P12)),
        # far starts: inside the domain, but past the largest float
        (hitting_mgf, (2.0, 1, 0.08, P12), (1e5, 1, 0.08, P12)),
        (dominating_time_mgf, (1.0, 0.5, LC_12, P12), (3000.0, 0.0, LC_12, P12)),
    ],
)
def test_closed_forms_return_plain_floats(closed_form, inside, beyond):
    # a divergent transform is math.inf, as is a value past the float range
    assert type(closed_form(*inside)) is float
    assert closed_form(*beyond) == math.inf


def test_domain_switch_is_ulp_sharp():
    rng = np.random.default_rng(41)
    for _ in range(200):
        a = float(rng.uniform(0.05, 5.0))
        p = ModelParams(a, a + float(rng.uniform(1e-3, 5.0)))
        lc = critical_rate(p)
        assert math.isfinite(excursion_mgf(lc, p))
        assert excursion_mgf(float(np.nextafter(lc, np.inf)), p) == math.inf
        assert math.isfinite(hitting_exponent(lc, p))
        assert hitting_exponent(float(np.nextafter(lc, np.inf)), p) == math.inf


def test_fixed_point_and_consistency_identities():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = float(rng.uniform(0.05, 4.0))
        p = ModelParams(a, a + float(rng.uniform(1e-3, 4.0)))
        lc = critical_rate(p)
        for lam in rng.uniform(lc - 3.0 * (p.a + p.b), lc, size=30):
            lam = float(lam)
            psi = excursion_mgf(lam, p)
            m = p.a + p.b - 2.0 * lam
            residual = p.a * psi * psi - m * psi + p.b
            scale = p.a * psi * psi + abs(m) * psi + p.b
            assert abs(residual) <= 1e-10 * scale
            c = hitting_exponent(lam, p)
            assert c == pytest.approx(lam + p.a * (psi - 1.0), rel=1e-10, abs=1e-10)


@settings(max_examples=200, deadline=None, database=None)
@given(log_b=st.floats(-3.0, 6.0), log_ratio=st.floats(0.0, 12.0, exclude_min=True))
@example(log_b=math.log10(0.002), log_ratio=math.log10(2.0))
@example(log_b=math.log10(2.0), log_ratio=6.0)
@example(log_b=0.0, log_ratio=9.0)
@example(log_b=0.0, log_ratio=12.0)
def test_identities_hold_at_large_rate_ratios(log_b, log_ratio):
    # the formulas --check grid and tolerance, for b in [1e-3, 1e6] and b/a up
    # to 1e12: the smaller root must not cancel when 4ab << (a + b - 2*lam)**2
    b = 10.0**log_b
    p = ModelParams(b / 10.0**log_ratio, b)
    if not p.b > p.a:
        return
    top = critical_rate(p)
    for lam in np.linspace(top - 5.0, top, 101):
        lam = float(lam)
        psi = excursion_mgf(lam, p)
        assert psi <= math.sqrt(p.b / p.a) * (1.0 + 1e-15)
        m = p.a + p.b - 2.0 * lam
        residual = p.a * psi * psi - m * psi + p.b
        assert abs(residual) <= 1e-10 * (p.a * psi * psi + abs(m) * psi + p.b)
        c = hitting_exponent(lam, p)
        assert abs(c - (lam + p.a * (psi - 1.0))) <= 1e-10 * max(1.0, abs(c))


@settings(max_examples=200, deadline=None, database=None)
@given(
    log_b=st.floats(-3.0, 6.0), log_ratio=st.floats(0.0, 6.0), log_minus_lam=st.floats(0.0, 300.0)
)
@example(log_b=math.log10(2.0), log_ratio=math.log10(2.0), log_minus_lam=160.0)
@example(log_b=math.log10(2.0), log_ratio=math.log10(2.0), log_minus_lam=300.0)
def test_closed_forms_stay_finite_far_below_zero(log_b, log_ratio, log_minus_lam):
    # (a + b - 2*lam)**2 passes the float range once -lam is above about 1e154,
    # where the hitting exponent still equals lam + a*(psi - 1), about lam - a
    b = 10.0**log_b
    p = ModelParams(b / 10.0**log_ratio, b)
    lam = -(10.0**log_minus_lam)
    psi = excursion_mgf(lam, p)
    assert 0.0 < psi <= math.sqrt(p.b / p.a)
    c = hitting_exponent(lam, p)
    assert math.isfinite(c)
    assert abs(c - (lam + p.a * (psi - 1.0))) <= 1e-10 * max(1.0, abs(c))
    assert hitting_mgf(0.0, -1, lam, p) == 1.0


def test_excursion_mgf_increasing_up_to_boundary():
    for p in (P12, ModelParams(0.3, 1.9), ModelParams(2.0, 2.5)):
        lc = critical_rate(p)
        grid = np.linspace(lc - 8.0, lc, 400)
        vals = [excursion_mgf(float(l), p) for l in grid]
        assert all(np.diff(vals) > 0.0)


def test_mgf_derivative_at_zero_matches_mean_length():
    h = 1e-6
    for p in (P12, ModelParams(0.5, 3.0), ModelParams(2.0, 2.2)):
        slope = (excursion_mgf(h, p) - excursion_mgf(-h, p)) / (2.0 * h)
        assert slope == pytest.approx(mean_excursion_length(p), rel=1e-4)


def test_mean_excursion_length_values():
    assert mean_excursion_length(P12) == 2.0
    assert mean_excursion_length(ModelParams(1.0, 3.0)) == 1.0
    assert mean_excursion_length(ModelParams(2.0, 2.0001)) == pytest.approx(20000.0, rel=1e-9)


def test_hitting_mgf_cases():
    lc = critical_rate(P12)
    assert hitting_mgf(0.0, -1, lc, P12) == 1.0
    assert hitting_mgf(0.0, 1, lc, P12) == pytest.approx(math.sqrt(2.0), rel=1e-7)
    assert hitting_mgf(2.0, -1, lc, P12) == pytest.approx(math.e, rel=1e-7)
    assert hitting_mgf(1.0, -1, lc + 1e-3, P12) == math.inf
    with pytest.raises(ValueError):
        hitting_mgf(1.0, 0, 0.0, P12)
    with pytest.raises(ValueError):
        hitting_mgf(-1.0, 1, 0.0, P12)


def test_invariant_density_values_and_errors():
    assert VELOCITY_WEIGHT == 0.5  # the velocity is an independent fair sign
    assert invariant_density(0.0, "unreflected", P12) == 0.5
    assert invariant_density(0.0, "reflected", P12) == 1.0
    assert invariant_density(50.0, "unreflected", P12) < 1e-8
    assert invariant_density(-2.0, "unreflected", P12) == invariant_density(2.0, "unreflected", P12)
    with pytest.raises(ValueError):
        invariant_density(-0.1, "reflected", P12)
    with pytest.raises(ValueError):
        invariant_density(0.0, "folded", P12)


def test_invariant_density_normalization():
    for p in (P12, ModelParams(0.4, 1.7)):
        total, _ = integrate.quad(lambda y: invariant_density(y, "unreflected", p), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)
        total, _ = integrate.quad(lambda y: invariant_density(y, "reflected", p), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_invariant_mgf_values():
    assert invariant_mgf(0.0, P12) == 1.0
    assert invariant_mgf(0.5, P12) == pytest.approx(2.0, rel=1e-12)
    assert invariant_mgf(1.0, P12) == math.inf
    assert invariant_mgf(1.5, P12) == math.inf


def test_bound_constants_frozen():
    consts = bound_constants(P12)
    assert isinstance(consts, BoundConstants)
    assert consts.prefactor == pytest.approx(C_CONST_12, rel=1e-12)
    assert consts.spatial_rate == 0.75
    assert consts.reflected_prefactor == 3.0
    assert bound_constants(ModelParams(1.0, 16.0)).spatial_rate == 12.0
    # prefactor tends to 1 as the rates merge
    assert bound_constants(ModelParams(1.0, 1.0 + 1e-9)).prefactor == pytest.approx(1.0, abs=1e-6)
    # (b/a)**2.5 past the float range, or a*a below it, gives an infinite
    # prefactor rather than an OverflowError or a ZeroDivisionError
    wide = ModelParams(1.0, 1e308)
    assert bound_constants(wide).prefactor == math.inf
    assert tv_bound(1.0, 0.0, 0.0, "unreflected", wide) == math.inf
    assert bound_constants(ModelParams(1e-300, 1.0)).reflected_prefactor == math.inf
    # at the critical rate the discriminant is boundary roundoff, checked without a float **
    assert math.isfinite(excursion_mgf(critical_rate(wide), wide))


def test_spatial_rate_below_gap():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = float(rng.uniform(0.05, 5.0))
        p = ModelParams(a, a + float(rng.uniform(1e-4, 6.0)))
        assert bound_constants(p).spatial_rate < p.rate_gap


def test_tv_bound_values():
    assert tv_bound(0.0, 0.0, 0.0, "unreflected", P12) == pytest.approx(C_CONST_12, rel=1e-12)
    assert tv_bound(10.0, 0.0, 0.0, "reflected", P12) == pytest.approx(1.2722002889630792, rel=1e-12)
    assert tv_bound(500.0, 0.0, 0.0, "unreflected", P12) < 1e-10
    # decreasing in t, increasing in reach
    assert tv_bound(5.0, 1.0, 0.0, "reflected", P12) > tv_bound(6.0, 1.0, 0.0, "reflected", P12)
    assert tv_bound(5.0, 2.0, 0.0, "reflected", P12) > tv_bound(5.0, 1.0, 0.0, "reflected", P12)
    # a far start puts the bound past the float range: inf, not an
    # OverflowError; a long time brings it back through log space
    assert tv_bound(5.0, 1000.0, 1.0, "reflected", P12) == math.inf
    assert tv_bound(1e4, 1000.0, 1.0, "reflected", P12) == pytest.approx(
        math.exp(math.log(3.0) + 750.0 - LC_12 * 1e4), rel=1e-12
    )
    with pytest.raises(ValueError):
        tv_bound(-1.0, 0.0, 0.0, "reflected", P12)
    with pytest.raises(ValueError):
        tv_bound(1.0, 0.0, 0.0, "spam", P12)
