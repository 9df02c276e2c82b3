import io
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc, gammaln

from conftest import gate
from telegraph_kit import excursions
from telegraph_kit.excursions import (
    EstimateWithCI,
    ExcursionRecord,
    RecursionBudgetError,
    first_return_time,
    regenerative_estimate,
    sample_excursion_recursive,
    sample_excursions,
    sample_hitting,
    sample_sigma,
    simulate_excursion,
    write_excursions_csv,
)
from telegraph_kit.model import (
    ModelParams,
    critical_rate,
    excursion_mgf,
    hitting_mgf,
    invariant_mgf,
)
from telegraph_kit.simulate import ExpSource, make_stream

P12 = ModelParams(1.0, 2.0)


def test_record_structure():
    recs = sample_excursions(500, P12, make_stream(60, 0))
    assert isinstance(recs, ExcursionRecord)
    assert np.all(recs.length > 0.0)
    assert np.all(recs.jump_count >= 1)
    assert np.all(recs.max_height > 0.0)
    # reaching the apex and coming back already costs twice the height
    assert np.all(recs.length >= 2.0 * recs.max_height - 1e-12)
    # the no-child draw exists and pins length = 2 * ascent
    assert np.any(recs.jump_count == 1)


@pytest.mark.parametrize("n", [1, 1024, 1025])
def test_batches_come_back_as_typed_columns(n):
    recs = sample_excursions(n, P12, make_stream(60, n))
    assert isinstance(recs, ExcursionRecord)
    for column, dtype in zip(recs, (np.float64, np.int64, np.float64)):
        assert type(column) is np.ndarray
        assert column.dtype == dtype and column.shape == (n,)


def test_batch_of_one_holds_python_scalars():
    rec = sample_excursion_recursive(P12, make_stream(60, 7))
    assert isinstance(rec, ExcursionRecord)
    assert [type(value) for value in rec] == [float, int, float]
    # the same draws as the batch call, one row of its columns
    assert list(rec) == [column.item() for column in sample_excursions(1, P12, make_stream(60, 7))]


def test_mean_length_matches_closed_form():
    def check(seed):
        lengths = sample_excursions(20000, P12, make_stream(61, seed)).length
        se = lengths.std(ddof=1) / math.sqrt(lengths.size)
        return abs(lengths.mean() - 2.0) <= 3.0 * se

    assert gate(check)


def test_branching_sampler_agrees_with_event_simulation():
    def check(seed):
        n = 4000
        rng1 = make_stream(62, 2 * seed)
        rng2 = make_stream(62, 2 * seed + 1)
        branching = np.array([sample_excursion_recursive(P12, rng1).length for _ in range(n)])
        direct = np.array([first_return_time(P12, rng2) for _ in range(n)])
        _, p = stats.ks_2samp(branching, direct, method="asymp")
        return p > 0.01

    assert gate(check)


def test_batched_trees_agree_with_event_simulation():
    # length, flips before the final reflection, and the highest knot; at
    # this n the test also sees children placed in the upper half of the climb
    def check(seed):
        n = 20000
        recs = sample_excursions(n, P12, make_stream(62, 100 + 2 * seed))
        rng = make_stream(62, 101 + 2 * seed)
        paths = [simulate_excursion(P12, rng) for _ in range(n)]
        pairs = [
            (recs.length, [p.horizon for p in paths]),
            (recs.jump_count, [p.knot_times.size - 2 for p in paths]),
            (recs.max_height, [p.knot_positions.max() for p in paths]),
        ]
        return all(stats.ks_2samp(x, y, method="asymp").pvalue > 0.01 for x, y in pairs)

    assert gate(check)


def test_first_return_time_reads_few_draws_ahead(monkeypatch):
    # each call builds its own draw source and drops what it read ahead;
    # refills that start small keep that waste below the draws used + 32
    used = []

    class CountingSource(ExpSource):
        def __init__(self, rng):
            super().__init__(rng)
            used.append(0)

        def draw(self):
            used[-1] += 1
            return super().draw()

    monkeypatch.setattr(excursions, "ExpSource", CountingSource)
    for seed in range(40):
        rng = make_stream(82, seed)
        first_return_time(P12, rng)
        following = rng.standard_exponential()
        twin = make_stream(82, seed).standard_exponential(8192)
        read = int(np.flatnonzero(twin == following)[0])
        assert used[-1] <= read < 2 * used[-1] + 32


def test_length_transform_matches_closed_form():
    lc = critical_rate(P12)

    def check(seed):
        lengths = sample_excursions(20000, P12, make_stream(63, seed)).length
        ok = True
        for lam in (-1.0, 0.5 * lc):
            vals = np.exp(lam * lengths)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            ok = ok and abs(vals.mean() - excursion_mgf(lam, P12)) <= 3.0 * se
        return ok

    assert gate(check)


def _length_cdf(params: ModelParams):
    """The exact CDF of the excursion length, F(l) = sum_k P(k) * P(2k - 1, (a + b) * l / 2).

    A tree of k nodes is an M/M/1 busy period of k customers (arrival rate a,
    service rate b) with 2k - 1 flips, and its length is 2 * Gamma(2k - 1, a + b).
    k has the Catalan law P(k) = (1/k) * C(2k - 2, k - 1) * p**(k-1) * q**k, with
    p = a/(a + b) and q = b/(a + b); a term is at most 4pq times the one before,
    so the sum stops once that geometric bound on the rest is below 1e-17.
    """
    a, b = params.a, params.b
    p, q = a / (a + b), b / (a + b)
    ratio = 4.0 * p * q
    weights = []
    while not weights or weights[-1] * ratio / (1.0 - ratio) >= 1e-17:
        k = len(weights) + 1
        log_binom = math.lgamma(2 * k - 1) - 2.0 * math.lgamma(k)
        weights.append(math.exp(log_binom - math.log(k) + (k - 1) * math.log(p) + k * math.log(q)))
    assert abs(math.fsum(weights) - 1.0) < 1e-15
    shapes = 2.0 * np.arange(1, len(weights) + 1) - 1.0
    return lambda x: np.asarray(weights) @ gammainc(shapes[:, None], 0.5 * (a + b) * x[None, :])


def test_lengths_follow_the_exact_busy_period_law():
    # one-sample KS against the closed form, at fixed seeds; a sampler whose b is
    # 5% high reads p below 1e-5 on each of them
    for b in (2.0, 10.0):
        cdf = _length_cdf(ModelParams(1.0, b))
        for seed in (1, 2):
            lengths = sample_excursions(20000, ModelParams(1.0, b), make_stream(seed, 0)).length
            assert stats.kstest(lengths, cdf).pvalue > 0.01, (b, seed)
            high = ModelParams(1.0, 1.05 * b)
            lengths = sample_excursions(20000, high, make_stream(seed, 0)).length
            assert stats.kstest(lengths, cdf).pvalue < 0.01, (b, seed)


def _hitting_law(x: float, v: int, params: ModelParams):
    """P(T = x) and the CDF of T - x given T > x, for T the hitting time from (x, v).

    T is x plus the lengths of K = J + [v = +1] trees, J ~ Poisson(a*x).  K
    trees of N nodes in all have 2N - K flips and length 2 * Gamma(2N - K, a + b),
    and N has the Otter-Dwass law P(N = m) = (K/m) * C(2m - K - 1, m - K) *
    p**(m-K) * q**m, with p = a/(a + b) and q = b/(a + b).  J stops 12 standard
    deviations and 40 past its mean and N 1e-17 into its geometric tail, whose
    terms shrink by at most 4pq; the weights are summed by Gamma shape, so
    that ``gammainc`` runs once per shape and point.  The atom is K = 0.
    """
    a, b = params.a, params.b
    p, q = a / (a + b), b / (a + b)
    mean = a * x
    j = np.arange(int(mean + 12.0 * math.sqrt(mean) + 40.0))[:, None]
    k = j + (v == 1)
    m = np.arange(1, k[-1, 0] + int(math.log(1e-17) / math.log(4.0 * p * q)) + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = (
            j * math.log(mean) - mean - gammaln(j + 1.0)
            + np.log(k) - np.log(m) + gammaln(2 * m - k) - gammaln(m - k + 1.0) - gammaln(m)
            + (m - k) * math.log(p) + m * math.log(q)
        )
    tree = (m >= k) & (k > 0)
    weights = np.bincount((2 * m - k)[tree], np.exp(log_w[tree]))
    atom = math.exp(-mean) if v == -1 else 0.0
    assert abs(math.fsum(weights) + atom - 1.0) < 1e-12
    shapes = weights.nonzero()[0]
    rate = 0.5 * (a + b)
    return atom, lambda t: weights[shapes] @ gammainc(shapes[:, None], rate * t[None, :]) / (1.0 - atom)


def _hitting_p_value(draws, x, law) -> float:
    """One-sample KS p-value of the draws above x against the law above its atom."""
    atom, cdf = law
    above = draws - x
    return stats.kstest(above[above > 0.0] if atom else above, cdf).pvalue


def test_hitting_times_follow_the_exact_law():
    # from (3, -1) an atom at 3 of mass e^-3 and the law above it, and from
    # (3, +1) no atom, at a fixed seed; a sampler whose b is 5% high fails
    # from both starts, and so do draws from (3, -1) held to the (3, +1) law,
    # which a lengths kernel without the ascending root would give (at x = 1
    # the 5%-high sampler passes from (1, -1))
    x, n = 3.0, 5000
    for b in (2.0, 10.0):
        params = ModelParams(1.0, b)
        down, up = _hitting_law(x, -1, params), _hitting_law(x, 1, params)

        def draws(v, sampler=params):
            return sample_hitting(x, v, sampler, make_stream(1, 0), size=n)

        atom, descending = down[0], draws(-1)
        hits = int(np.count_nonzero(descending == x))
        assert abs(hits - n * atom) <= 3.0 * math.sqrt(n * atom * (1.0 - atom)), (b, hits)
        assert _hitting_p_value(descending, x, down) > 0.01, b
        assert _hitting_p_value(draws(1), x, up) > 0.01, b
        assert _hitting_p_value(descending, x, up) < 0.01, b
        high = ModelParams(1.0, 1.05 * b)
        assert _hitting_p_value(draws(-1, high), x, down) < 0.01, b
        assert _hitting_p_value(draws(1, high), x, up) < 0.01, b


def _beyond_domain_contrast(lengths, lam):
    """Mean of exp(lam * L) over the median of its 100 block means of 1,000.

    Beyond the transform domain the mean is carried by rare huge terms that
    few blocks hold, so the ratio sits well above 1; a law whose transform
    has finite variance at lam keeps the block means together and the ratio
    near 1.
    """
    vals = np.exp(lam * np.asarray(lengths))
    return vals.mean() / np.median(vals.reshape(100, 1000).mean(axis=1))


def test_transform_domain_boundary_is_visible_in_samples():
    """Means settle inside the domain; beyond it a few blocks carry the mean."""
    lc = critical_rate(P12)

    def check(seed):
        rng = make_stream(64, seed)
        lengths = sample_excursions(100000, P12, rng).length
        inside = np.exp(0.9 * lc * lengths)
        target = excursion_mgf(0.9 * lc, P12)
        settled = abs(inside.mean() - target) <= 0.15 * target
        return settled and _beyond_domain_contrast(lengths, 2.0 * lc) > 1.3

    assert gate(check)


def test_domain_contrast_rejects_light_tailed_lengths():
    # Exp lengths with the right mean 2/(b-a) have a finite transform at
    # 2*lc, so the contrast must not see a domain boundary there
    lc = critical_rate(P12)
    mean = 2.0 / (P12.b - P12.a)
    for seed in range(3):
        lengths = make_stream(64, 100 + seed).exponential(mean, 100000)
        assert _beyond_domain_contrast(lengths, 2.0 * lc) <= 1.3


def test_hitting_sampler_cases():
    rng = make_stream(65, 0)
    assert sample_hitting(0.0, -1, P12, rng) == 0.0
    assert type(sample_hitting(1.0, 1, P12, rng)) is float
    assert np.all(sample_hitting(0.0, -1, P12, rng, size=5) == 0.0)
    batch = sample_hitting(1.0, 1, P12, rng, size=(2, 3))
    assert batch.shape == (2, 3) and np.all(batch > 1.0)
    # a batch of starts, one draw each; a descent from x takes at least x
    starts = np.array([0.0, 0.5, 3.0])
    assert np.all(sample_hitting(starts, -1, P12, rng) >= starts)
    with pytest.raises(ValueError):
        sample_hitting(-1.0, -1, P12, rng)
    with pytest.raises(ValueError):
        sample_hitting(np.array([1.0, -1.0]), -1, P12, rng)
    with pytest.raises(ValueError):
        sample_hitting(1.0, 0, P12, rng)


def test_hitting_transform_matches_closed_form():
    lam = 0.5 * critical_rate(P12)
    target = hitting_mgf(2.0, -1, lam, P12)

    def check(seed):
        rng = make_stream(66, seed)
        draws = sample_hitting(2.0, -1, P12, rng, size=20000)
        vals = np.exp(lam * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        return abs(vals.mean() - target) <= 3.0 * se

    assert gate(check)


def test_hitting_transform_matches_closed_form_at_b_over_a_ten():
    # criterion 05's check at a large rate ratio, where a descent from 2
    # takes few excursions and each is short; also at the CLI's lam = -1
    params = ModelParams(1.0, 10.0)
    for lam in (0.5 * critical_rate(params), -1.0):
        target = hitting_mgf(2.0, -1, lam, params)

        def check(seed):
            draws = sample_hitting(2.0, -1, params, make_stream(74, seed), size=20000)
            vals = np.exp(lam * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            return abs(vals.mean() - target) <= 3.0 * se

        assert gate(check)


def test_hitting_additivity_in_start_position():
    def check(seed):
        n = 4000
        rng1 = make_stream(67, 2 * seed)
        rng2 = make_stream(67, 2 * seed + 1)
        joint = sample_hitting(1.9, -1, P12, rng1, size=n)
        split = sample_hitting(1.2, -1, P12, rng2, size=n) + sample_hitting(
            0.7, -1, P12, rng2, size=n
        )
        _, p = stats.ks_2samp(joint, split, method="asymp")
        return p > 0.01

    assert gate(check)


def test_hitting_from_up_state_prepends_one_excursion():
    def check(seed):
        n = 4000
        rng1 = make_stream(68, 2 * seed)
        rng2 = make_stream(68, 2 * seed + 1)
        direct = sample_hitting(1.5, 1, P12, rng1, size=n)
        composed = sample_excursions(n, P12, rng2).length + sample_hitting(
            1.5, -1, P12, rng2, size=n
        )
        _, p = stats.ks_2samp(direct, composed, method="asymp")
        return p > 0.01

    assert gate(check)


def test_sigma_zero_and_mean():
    rng = make_stream(69, 0)
    assert sample_sigma(0.0, P12, rng) == 0.0
    assert np.all(sample_sigma(0.0, P12, rng, size=5) == 0.0)
    with pytest.raises(ValueError):
        sample_sigma(-1.0, P12, rng)

    def check(seed):
        rng = make_stream(69, seed + 1)
        draws = sample_sigma(2.0, P12, rng, size=20000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        # Poisson(a*u/2) excursions of mean length 2/(b-a)
        return abs(draws.mean() - 2.0) <= 3.0 * se

    assert gate(check)


def test_sigma_additivity():
    def check(seed):
        n = 4000
        rng1 = make_stream(70, 2 * seed)
        rng2 = make_stream(70, 2 * seed + 1)
        joint = sample_sigma(3.0, P12, rng1, size=n)
        split = sample_sigma(1.0, P12, rng2, size=n) + sample_sigma(2.0, P12, rng2, size=n)
        _, p = stats.ks_2samp(joint, split, method="asymp")
        return p > 0.01

    assert gate(check)


def test_node_budget_aborts_critical_trees(monkeypatch):
    # at a == b the offspring mean is 1 and the tree is critical; a tiny
    # budget must abort instead of hanging
    monkeypatch.setattr(excursions, "NODE_BUDGET", 25)
    p = ModelParams(1.0, 1.0)
    rng = make_stream(71, 0)
    with pytest.raises(RecursionBudgetError):
        for _ in range(2000):
            sample_excursion_recursive(p, rng)


def test_jump_count_mean_stabilizes_across_batches():
    rng = make_stream(72, 0)
    batches = [
        sample_excursions(4000, P12, rng).jump_count.astype(np.float64)
        for _ in range(3)
    ]
    means = [b.mean() for b in batches]
    pooled_se = math.sqrt(sum(b.var(ddof=1) / b.size for b in batches[:2]))
    assert abs(means[0] - means[1]) <= 3.0 * pooled_se
    pooled_se = math.sqrt(sum(b.var(ddof=1) / b.size for b in batches[1:]))
    assert abs(means[1] - means[2]) <= 3.0 * pooled_se


def test_simulate_excursion_path_shape():
    for seed in range(5):
        path = simulate_excursion(P12, make_stream(73, seed))
        path.validate(reflected=True)
        assert path.initial_state == (0.0, 1)
        assert path.knot_positions[-1] == 0.0
        assert path.knot_velocities[-1] == 1
        assert path.horizon == path.knot_times[-1]


def test_regenerative_constant_is_exact():
    est = regenerative_estimate(lambda pos, v: np.ones_like(pos), 200, P12, make_stream(74, 0))
    assert isinstance(est, EstimateWithCI)
    assert est.value == 1.0
    # the 16 quadrature weights sum to 1 only to machine precision
    assert est.std_error <= 1e-15
    assert est.n == 200


def test_regenerative_velocity_marginal_is_fair():
    def check(seed):
        est = regenerative_estimate(
            lambda pos, v: np.full_like(pos, 1.0 if v > 0 else 0.0),
            20000,
            P12,
            make_stream(75, seed),
        )
        return abs(est.value - 0.5) <= est.half_width()

    assert gate(check)


def test_regenerative_exponential_moment():
    target = invariant_mgf(0.5, P12)  # 2.0

    def check(seed):
        est = regenerative_estimate(
            lambda pos, v: np.exp(0.5 * pos), 30000, P12, make_stream(76, seed)
        )
        return abs(est.value - target) <= est.half_width()

    assert gate(check)


def test_regenerative_reproduces_equilibrium_cdf():
    def check(seed):
        ok = True
        rng = make_stream(77, seed)
        for q in (0.5, 1.0, 2.0):
            est = regenerative_estimate(
                lambda pos, v, q=q: (pos <= q).astype(np.float64),
                20000,
                P12,
                rng,
                breakpoints=(q,),
            )
            ok = ok and abs(est.value - (1.0 - math.exp(-q))) <= est.half_width()
        return ok

    assert gate(check)


def test_regenerative_first_moment():
    def check(seed):
        est = regenerative_estimate(lambda pos, v: pos, 20000, P12, make_stream(78, seed))
        return abs(est.value - 1.0) <= est.half_width()

    assert gate(check)


def test_regenerative_input_errors():
    with pytest.raises(ValueError):
        regenerative_estimate(lambda pos, v: pos, 1, P12, make_stream(80, 0))
    with pytest.raises(ValueError):
        regenerative_estimate(
            lambda pos, v: np.full_like(pos, np.nan), 10, P12, make_stream(80, 0)
        )
    with pytest.raises(Exception):
        regenerative_estimate(lambda pos, v: pos, 10, ModelParams(1.0, 1.0), make_stream(80, 0))


def test_write_excursions_csv():
    recs = sample_excursions(20, P12, make_stream(81, 0))
    buf = io.StringIO()
    write_excursions_csv(recs, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "length,jump_count,max_height"
    assert len(lines) == 21
    first = lines[1].split(",")
    assert float(first[0]) == recs.length[0]
    assert int(first[1]) == recs.jump_count[0]
    assert float(first[2]) == recs.max_height[0]
    # numpy 2 prints a bare np.float64 as np.float64(...), so each field must
    # be written from the Python value
    columns = (column.tolist() for column in recs)
    rows = [f"{length!r},{jumps},{height!r}" for length, jumps, height in zip(*columns)]
    assert lines[1:] == rows
