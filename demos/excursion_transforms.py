"""
Excursion lengths and their exponential moments
===============================================

The return time to the origin has an explicit moment generating function
with a finite critical exponent.  This script samples excursions by the
branching recursion, checks the mean and two transform values against the
closed forms, and shows the blow-up past the critical rate, where the
closed form returns ``math.inf``.
"""

import numpy as np

from telegraph_kit.excursions import sample_excursions
from telegraph_kit.model import ModelParams, critical_rate, excursion_mgf, mean_excursion_length
from telegraph_kit.simulate import make_stream

params = ModelParams(a=1.0, b=2.0)
lam_c = critical_rate(params)

lengths = sample_excursions(200000, params, make_stream(23, 0)).length
se = lengths.std(ddof=1) / np.sqrt(lengths.size)
print(f"mean excursion length  {lengths.mean():.4f} +- {se:.4f}"
      f"   (exact {mean_excursion_length(params):.4f})")
print(f"critical exponent      {lam_c:.6f}\n")

for lam in (-1.0, 0.5 * lam_c):
    emp = np.exp(lam * lengths).mean()
    ref = excursion_mgf(lam, params)
    print(f"lam {lam:+.6f}: sampled {emp:.6f}, closed form {ref:.6f}")

# at the critical point the MGF is still finite but the Monte Carlo
# average has infinite variance, so only the closed form is trustworthy
at_c = excursion_mgf(lam_c, params)
print(f"lam {lam_c:+.6f}: closed form {at_c:.6f} (sampling no longer concentrates)")
beyond = excursion_mgf(lam_c + 1e-6, params)
print(f"lam {lam_c + 1e-6:+.6f}: closed form {beyond} (divergent)")
