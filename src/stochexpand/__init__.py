"""Truncated series expansion of multiple (iterated) stochastic integrals.

Expand integrals driven by Wiener processes, compensated Poisson random
measures and Gaussian martingales into truncated multiple Fourier series
over orthonormal (optionally weighted) function systems, compute the
coefficient tensors, sample the drivers, and validate the mean-square
convergence against brute-force discretized sums.
"""

from .basis import (Interval, OrthonormalSystem, bessel_roots, bessel_unit,
                    bessel_weighted, gram_matrix, haar, legendre, trigonometric,
                    walsh)
from .drivers import (GaussianMartingalePath, IntensityMeasure, Partition,
                      PoissonRealization, WienerPath, exponential_measure,
                      make_partition, sample_gaussian_martingale, sample_poisson,
                      sample_wiener, trial_seed)
from .errors import ConfigError, QuadratureError, SizeError, StochexpandError
from .expansions import (BasisVariables, ExpansionSample, expand, expand_weighted,
                         martingale_variables, pi_from_realization, poisson_variables,
                         wiener_variables, zeta_from_path)
from .harness import (DriverConfig, ExperimentSpec, MCReport, moment_suite,
                      power_mark, run_experiment)
from .kernel import (CoeffTensor, Factor, Kernel, coeff, coeff_tensor,
                     kernel_norm_sq, tensor_from_csv, tensor_from_json, tensor_to_csv,
                     tensor_to_json, unit_kernel)
from .oracle import iterated_sum

__version__ = "0.1.0"

__all__ = [
    "Interval", "OrthonormalSystem", "bessel_roots", "bessel_unit",
    "bessel_weighted", "gram_matrix", "haar", "legendre", "trigonometric", "walsh",
    "GaussianMartingalePath", "IntensityMeasure", "Partition", "PoissonRealization",
    "WienerPath", "exponential_measure", "make_partition",
    "sample_gaussian_martingale", "sample_poisson", "sample_wiener", "trial_seed",
    "ConfigError", "QuadratureError", "SizeError", "StochexpandError",
    "BasisVariables", "ExpansionSample", "expand", "expand_weighted",
    "martingale_variables", "pi_from_realization", "poisson_variables",
    "wiener_variables", "zeta_from_path",
    "DriverConfig", "ExperimentSpec", "MCReport", "moment_suite", "power_mark",
    "run_experiment",
    "CoeffTensor", "Factor", "Kernel", "coeff", "coeff_tensor", "kernel_norm_sq",
    "tensor_from_csv", "tensor_from_json", "tensor_to_csv", "tensor_to_json",
    "unit_kernel",
    "iterated_sum",
    "__version__",
]
