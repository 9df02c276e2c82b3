import numpy as np
from scipy import stats

from telegraph_kit.analysis import scaling_limit_check, sde_oracle
from telegraph_kit.simulate import make_stream

# speeding up the flips while keeping the rate asymmetry fixed drives the
# centred particle toward a drifted Brownian motion; the one-sample KS
# distance to that limit's exact law shrinks with the scale until it
# flattens into sampling noise (about 0.006 at this n)
print("scale      KS stat    p-value")
for i, scale in enumerate((1.05, 1.2, 2.0, 8.0, 32.0)):
    stat, p = scaling_limit_check(scale, 1.0, 1.0, 20000, make_stream(43, 20 + i))
    print(f"{scale:5.2f}   {stat:10.4f}   {p:8.4f}")

# the limit law itself, cross-checked by an exact Gaussian-increment scheme
x = sde_oracle(0.0, 0.0, 0.05, 1.0, 8000, make_stream(41, 99))
ks = stats.kstest(x, stats.norm(scale=1.0).cdf)
print(f"\nzero-drift oracle vs N(0, t) at t=1: stat {ks.statistic:.4f}, p {ks.pvalue:.3f}")
