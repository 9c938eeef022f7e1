"""Partition-function ratio estimation for discrete Gibbs distributions.

Estimates Z(beta)/Z(0) with the paired product estimator on adaptively
built well-balanced cooling schedules, alongside importance-sampling and
multistage product baselines and brute-force oracles for verification.
"""

from .models import (
    ENUMERATION_GUARD,
    EnumerationGuardError,
    GibbsModel,
    IsingGraph,
    constant_model,
    cycle_edges,
    grid_edges,
    grid_model,
    ising_model,
    load_model,
    log_partition_exact,
    log_ratio_exact,
    model_from_dict,
    path_edges,
    shift_hamiltonian,
    table_model,
)
from .samplers import (
    DrawCounter,
    ExactOracle,
    RestartOracle,
    SamplerOracle,
    coupling_failure_bound,
    exact_oracle,
    gibbs_distribution,
    mcmc_draw_distribution,
    mcmc_oracle,
    mcmc_tv_curve,
)
from .tpa import (
    thin,
    tpa_run,
    tpa_runs,
)
from .schedule import (
    CoolingSchedule,
    REGIME_INTEGER_NONNEGATIVE,
    REGIME_INTEGER_NONPOSITIVE,
    REGIME_SHIFTED,
    ScheduleParams,
    initial_estimate,
    load_schedule,
    regime_for_model,
    save_schedule,
    select_params,
    well_balanced_schedule,
)
from .estimators import (
    PairedEstimate,
    ParamOverrides,
    bezakova_schedule,
    epsilon_tilde,
    exp_or_inf,
    median_boosted_estimate,
    paired_product_estimate,
    paired_replicate_logs,
    prepare,
    product_baseline_log_estimate,
    product_log_estimate,
    replicate_count,
    sample_bound_integer,
    sample_bound_shifted,
)
from .streams import stage_stream

__version__ = "0.1.0"
