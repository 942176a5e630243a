"""Truncated series expansion of multiple (iterated) stochastic integrals.

Expand integrals driven by Gaussian martingales (the Wiener process among
them) and compensated Poisson random measures into truncated multiple Fourier series
over orthonormal (optionally weighted) function systems, compute the
coefficient tensors, sample the drivers, and validate the mean-square
convergence against brute-force discretized sums.
"""

from .basis import (Interval, OrthonormalSystem, bessel_roots, bessel_unit,
                    bessel_weighted, gram_matrix, haar, legendre, trigonometric,
                    walsh)
from .drivers import (GaussianMartingalePath, IntensityMeasure, Partition,
                      PoissonRealization, exponential_measure, make_partition,
                      sample_gaussian_martingale, sample_poisson, sample_wiener,
                      trial_seed)
from .errors import ConfigError, QuadratureError, SizeError, StochexpandError
from .expansions import (BasisVariables, ExpansionSample, expand, martingale_variables,
                         poisson_variables, wiener_variables)
from .harness import (DriverConfig, ExperimentSpec, MCReport, moment_suite,
                      power_mark, run_experiment)
from .kernel import (CoeffTensor, Factor, Kernel, coeff, coeff_tensor,
                     kernel_norm_sq, tensor_from_csv, tensor_from_json, tensor_to_csv,
                     tensor_to_files, tensor_to_json, unit_kernel)
from .oracle import iterated_sum

__version__ = "0.1.0"

__all__ = [
    "Interval", "OrthonormalSystem", "bessel_roots", "bessel_unit",
    "bessel_weighted", "gram_matrix", "haar", "legendre", "trigonometric", "walsh",
    "GaussianMartingalePath", "IntensityMeasure", "Partition", "PoissonRealization",
    "exponential_measure", "make_partition",
    "sample_gaussian_martingale", "sample_poisson", "sample_wiener", "trial_seed",
    "ConfigError", "QuadratureError", "SizeError", "StochexpandError",
    "BasisVariables", "ExpansionSample", "expand", "martingale_variables",
    "poisson_variables", "wiener_variables",
    "DriverConfig", "ExperimentSpec", "MCReport", "moment_suite", "power_mark",
    "run_experiment",
    "CoeffTensor", "Factor", "Kernel", "coeff", "coeff_tensor", "kernel_norm_sq",
    "tensor_from_csv", "tensor_from_json", "tensor_to_csv", "tensor_to_files",
    "tensor_to_json", "unit_kernel",
    "iterated_sum",
    "__version__",
]
