"""Exact simulation, couplings and verification for a mean-reverting telegraph particle."""

from .analysis import (
    EstimateWithCI,
    TvCurve,
    binned_tv_estimate,
    domination_gap,
    empirical_decay_rate,
    ks_band,
    ks_two_sample,
    scaling_limit_check,
    sde_oracle,
    tv_curve,
    write_tv_curve_csv,
)
from .coupling import (
    CouplingResult,
    DominatingTimeSample,
    coalescent_couple_reflected,
    coalescent_couple_unreflected,
    crossing_couple,
    dominating_time_mgf,
    sample_dominating_time,
    stick_couple,
    write_coupling_batch_csv,
)
from .excursions import (
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
from .model import (
    INFINITE,
    VELOCITY_WEIGHT,
    BoundConstants,
    DegenerateRatesError,
    LaplaceValue,
    ModelParams,
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
from .paths import PiecewisePath, eval_path, reflect_path, unreflect_path, write_path_csv
from .simulate import (
    make_stream,
    sample_reflected_states,
    sample_unreflected_states,
    simulate_reflected,
    simulate_unreflected,
    split_streams,
)

__version__ = "0.1.0"
