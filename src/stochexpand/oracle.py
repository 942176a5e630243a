"""Independent brute-force evaluation of multiple stochastic integrals.

Ground truth for all expansion tests: the strictly nested left-point sum
over a partition, computed in O(k N) by running prefix accumulation, plus
the coincident-index ("diagonal") sums over G_k = H_k \\ L_k used by the
pre-limit correction of the expansions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import GaussianMartingalePath, Partition, PoissonRealization, WienerPath, interval_measures
from .errors import SizeError
from .kernel import Kernel

__all__ = [
    "OracleResult",
    "slot_increments",
    "iterated_sum",
    "nested_sum",
    "iterated_sum_naive",
    "prelimit_gk_sum",
    "gk_correction_tensor",
]

MAX_NESTING = 3  # largest multiplicity of gk_correction_tensor


@dataclass(frozen=True)
class OracleResult:
    value: float
    n_steps: int
    driver_kind: str
    combo: tuple[int, ...]


def _driver_kind(realization) -> str:
    if isinstance(realization, WienerPath):
        return "wiener"
    if isinstance(realization, GaussianMartingalePath):
        return "martingale"
    if isinstance(realization, PoissonRealization):
        return "poisson"
    raise TypeError(f"unsupported realization type {type(realization).__name__}")


def slot_increments(realization, combo, partition: Partition | None = None,
                    mark_factors=None) -> tuple[Partition, list[np.ndarray]]:
    """Per-slot driver increments Delta D^(i_l) on the partition.

    Wiener/martingale paths carry their own partition; Poisson realizations
    are discretized onto the given partition with one compensated interval
    measure per slot (slot l uses mark factor phi_l)."""
    kind = _driver_kind(realization)
    if kind == "poisson":
        if partition is None:
            raise ValueError("a partition is required to discretize a Poisson realization")
        if mark_factors is None or len(mark_factors) != len(combo):
            raise ValueError("one mark factor per slot is required for Poisson drivers")
        incs = [interval_measures(realization, i, phi, partition)
                for i, phi in zip(combo, mark_factors)]
        return partition, incs
    if partition is not None and not np.array_equal(partition.nodes, realization.partition.nodes):
        raise ValueError("path realizations can only be summed on their own partition")
    return realization.partition, [realization.increment(i) for i in combo]


def iterated_sum(kernel: Kernel, realization, combo, partition: Partition | None = None,
                 mark_factors=None) -> OracleResult:
    """Strictly nested left-point sum over tau_{j_1} < ... < tau_{j_k}."""
    combo = tuple(int(i) for i in combo)
    k = kernel.multiplicity
    if len(combo) != k:
        raise ValueError("combo length must equal kernel multiplicity")
    part, incs = slot_increments(realization, combo, partition, mark_factors)
    left = part.left_nodes
    f = np.stack([kernel.factor_values(l, left) * incs[l] for l in range(k)])
    return OracleResult(float(nested_sum(f)), part.n_steps, _driver_kind(realization), combo)


def nested_sum(f: np.ndarray) -> np.ndarray:
    """sum over q_1 < ... < q_k of f[..., 0, q_1] * ... * f[..., k-1, q_k].

    f has shape (..., k, N); one running exclusive prefix sum per level
    along the last axis.  Every leading index is summed by the same
    operations, so its value does not depend on what it is batched with."""
    running = None
    for l in range(f.shape[-2] - 1):
        term = f[..., l, :] if running is None else f[..., l, :] * running
        running = np.zeros_like(term)
        np.cumsum(term[..., :-1], axis=-1, out=running[..., 1:])
    top = f[..., -1, :] if running is None else f[..., -1, :] * running
    return np.sum(top, axis=-1)


def iterated_sum_naive(kernel: Kernel, realization, combo, partition: Partition | None = None,
                       mark_factors=None) -> float:
    """O(N^k) nested loops; validation-only reference for the prefix algorithm."""
    combo = tuple(int(i) for i in combo)
    part, incs = slot_increments(realization, combo, partition, mark_factors)
    left = part.left_nodes
    k = kernel.multiplicity
    f = [kernel.factor_values(l, left) * incs[l] for l in range(k)]
    n = part.n_steps

    # innermost index runs first: iterate from the outermost slot downward
    def rec_outer(level, hi):
        if level < 0:
            return 1.0
        return sum(f[level][q] * rec_outer(level - 1, q) for q in range(hi))

    return float(rec_outer(k - 1, n))


def gk_correction_tensor(phi_tables, incs) -> np.ndarray:
    """Sum over coincident index tuples (G_k) for every multi-index in a box.

    phi_tables[g] has shape (p_g + 1, N): basis values at the left nodes;
    incs[g] has shape (N,).  Returns an array of shape (p_1+1, ..., p_k+1)
    via inclusion-exclusion on the distinct-tuple set L_k (k <= 3)."""
    k = len(phi_tables)
    f = [phi_tables[g] * incs[g][None, :] for g in range(k)]
    if k == 1:
        return np.zeros(f[0].shape[0])
    if k == 2:
        return f[0] @ f[1].T
    if k == 3:
        s = [fg.sum(axis=1) for fg in f]
        d12 = f[0] @ f[1].T
        d13 = f[0] @ f[2].T
        d23 = f[1] @ f[2].T
        d123 = np.einsum("al,bl,cl->abc", f[0], f[1], f[2])
        return (d12[:, :, None] * s[2][None, None, :]
                + d13[:, None, :] * s[1][None, :, None]
                + d23[None, :, :] * s[0][:, None, None]
                - 2.0 * d123)
    raise SizeError(f"coincident-index sums are limited to multiplicity {MAX_NESTING}")


def prelimit_gk_sum(realization, system, js, combo, partition: Partition | None = None,
                    mark_factors=None) -> float:
    """G_k sum for one multi-index (j_1, ..., j_k), computed exactly."""
    combo = tuple(int(i) for i in combo)
    part, incs = slot_increments(realization, combo, partition, mark_factors)
    left = part.left_nodes
    tables = [system.eval(j, left)[None, :] for j in js]
    return float(gk_correction_tensor(tables, incs).ravel()[0])
