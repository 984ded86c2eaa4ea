"""Monte Carlo toolkit for nearest-neighbour functionals of Poisson point processes."""

__version__ = "0.1.0"

from .special import (delta_alpha, delta_alpha_sq, exp_moment, gauss_2f1,
                      v_alpha)
from .regions import Box, CubeCover, Region, covering, packing
from .point_process import (DensitySpec, PointConfiguration, sample_binomial,
                            sample_homogeneous_line, sample_poisson)
from .functionals import (DIRECTED_NN, KNN_UNDIRECTED, FunctionalSpec,
                          TestFunctionSpec, l_alpha, nn_distance,
                          stabilization_probe, t_statistic, t_vector,
                          xi_directed_nn, xi_knn)
from .experiments import (ExperimentPlan, ExperimentReport, RateFit,
                          compare_poisson_binomial, estimate_moments, fit_rate,
                          ks_to_normal, product_form_discrepancy,
                          run_experiment, run_replicates, standardize,
                          directed_nn_experiment)

__all__ = [
    "__version__",
    "delta_alpha", "delta_alpha_sq", "exp_moment", "gauss_2f1", "v_alpha",
    "Box", "CubeCover", "Region", "covering", "packing",
    "DensitySpec", "PointConfiguration", "sample_binomial",
    "sample_homogeneous_line", "sample_poisson",
    "DIRECTED_NN", "KNN_UNDIRECTED", "FunctionalSpec", "TestFunctionSpec",
    "l_alpha", "nn_distance", "stabilization_probe", "t_statistic",
    "t_vector", "xi_directed_nn", "xi_knn",
    "ExperimentPlan", "ExperimentReport", "RateFit",
    "compare_poisson_binomial", "estimate_moments", "fit_rate",
    "ks_to_normal", "product_form_discrepancy", "run_experiment",
    "run_replicates", "standardize", "directed_nn_experiment",
]
