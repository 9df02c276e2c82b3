"""
Invariant law of the reflected process
======================================

Long-run endpoint samples against the closed form Exp(b - a) position law
with a fair velocity split, plus a regenerative estimate of a stationary
expectation that has an exact value.
"""

import numpy as np
from scipy import stats

from telegraph_kit.excursions import regenerative_estimate
from telegraph_kit.model import ModelParams, invariant_mgf
from telegraph_kit.simulate import make_stream, sample_reflected_states

params = ModelParams(a=1.0, b=2.0)
rng = make_stream(11, 0)

# t = 50 is ~4 mixing times at these rates, enough to forget the start
pos, vel = sample_reflected_states(0.0, 1, 50.0, 20000, params, rng)

print(f"rates a={params.a}, b={params.b}, invariant position law Exp({params.rate_gap})")
print(f"sample mean position   {pos.mean():.4f}   (exact {1.0 / params.rate_gap:.4f})")
print(f"sample var  position   {pos.var():.4f}   (exact {1.0 / params.rate_gap**2:.4f})")
print(f"fraction moving up     {np.mean(vel == 1):.4f}   (exact 0.5000)")

ks = stats.kstest(pos, stats.expon(scale=1.0 / params.rate_gap).cdf)
print(f"KS against Exp({params.rate_gap}): stat {ks.statistic:.4f}, p {ks.pvalue:.3f}")

# same expectation two ways: excursion averaging vs the closed form
target = invariant_mgf(0.5, params)
est = regenerative_estimate(lambda x, v: np.exp(0.5 * x), 50000, params, make_stream(11, 1))
print(f"\nE[exp(X/2)] regenerative  {est.value:.4f} +- {est.std_error:.4f}")
print(f"E[exp(X/2)] closed form   {target:.4f}")
