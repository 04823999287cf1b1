"""Robust parametric regression by kernel discrepancy minimization.

The package fits regression families by driving the maximum mean
discrepancy between the empirical sample and the model's induced
distribution to a minimum with stochastic gradients.  Two estimators
are provided: a quadratic-cost fit over all covariate pairs and a
linear-cost fit over the diagonal, together with classical baselines,
outlier-injection utilities, and a replicated benchmark harness.
"""

from .bench import (
    ExperimentPlan,
    ResultTable,
    plan_from_config,
    plan_to_config,
    rmse,
    run_plan,
    write_results,
)
from .contamination import (
    ContaminationSpec,
    contaminate,
    register_custom_sampler,
    spec_from_config,
    spec_to_config,
)
from .dataio import (
    export_contaminated,
    fit_config_from_dict,
    fit_result_to_dict,
    load_config,
    load_csv,
    write_csv,
    write_fit_result,
)
from .errors import ConfigError, DomainError, FormatError, NumericalError
from .fitting import (
    ESTIMATORS,
    FitConfig,
    FitResult,
    default_kernel,
    fit,
    fit_baseline,
    fit_mmd,
)
from .gradients import (
    GradValue,
    PairCache,
    build_pair_cache,
    grad_objective_estimate,
    sample_pair_indices,
    top_pairs,
)
from .kernels import (
    KernelSpec,
    affine_shift_kernel,
    default_covariate_kernel,
    default_response_kernel,
    elementwise,
    exponential_kernel,
    gaussian_kernel,
    gram,
    kernel_eval,
    matern_halfint,
    matern_kernel,
    product_kernel,
    psi,
    psi_inverse,
    psi_matern_kernel,
    spec_from_dict,
    spec_to_dict,
)
from .models import (
    Dataset,
    Scenario,
    get_family,
    get_scenario,
    list_scenarios,
    simulate_dataset,
)
from .objective import (
    ObjectiveValue,
    link_term,
    mmd_sq_vstat,
    objective,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "FormatError", "NumericalError",
    "KernelSpec", "psi", "psi_inverse", "matern_halfint",
    "exponential_kernel", "gaussian_kernel", "matern_kernel",
    "psi_matern_kernel", "affine_shift_kernel", "product_kernel",
    "default_covariate_kernel", "default_response_kernel",
    "gram", "elementwise", "kernel_eval", "spec_from_dict", "spec_to_dict",
    "Dataset", "Scenario", "get_family", "get_scenario", "list_scenarios",
    "simulate_dataset",
    "mmd_sq_vstat", "ObjectiveValue", "objective", "link_term",
    "GradValue", "grad_objective_estimate", "PairCache", "build_pair_cache",
    "top_pairs", "sample_pair_indices",
    "ESTIMATORS", "FitConfig", "FitResult", "default_kernel",
    "fit", "fit_mmd", "fit_baseline",
    "ContaminationSpec", "contaminate", "register_custom_sampler",
    "spec_from_config", "spec_to_config",
    "load_csv", "write_csv", "export_contaminated", "load_config",
    "fit_config_from_dict", "fit_result_to_dict", "write_fit_result",
    "ExperimentPlan", "ResultTable", "plan_from_config", "plan_to_config",
    "run_plan", "write_results", "rmse",
    "__version__",
]
