"""Independent brute-force evaluation of multiple stochastic integrals.

Ground truth for all expansion tests: the strictly nested left-point sum
over a partition, computed in O(k N) by running prefix accumulation, plus
the coincident-index ("diagonal") sums over G_k = H_k \\ L_k used by the
pre-limit correction of the expansions.  Both it and the pairing bracket are
Moebius sums over the set partitions of the k slots (Rota 1964): set_partitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .drivers import GaussianMartingalePath, Partition, PoissonRealization, interval_measures
from .kernel import Kernel

__all__ = [
    "OracleResult",
    "slot_increments",
    "iterated_sum",
    "nested_sum",
    "iterated_sum_naive",
    "set_partitions",
    "gk_correction_tensor",
]


@dataclass(frozen=True)
class OracleResult:
    value: float
    n_steps: int
    combo: tuple[int, ...]


def slot_increments(realization, combo, partition: Partition | None = None,
                    mark_factors=None) -> tuple[Partition, list[np.ndarray]]:
    """Per-slot driver increments Delta D^(i_l) on the partition.

    Gaussian paths (Wiener or martingale) carry their own partition; Poisson
    realizations are discretized onto the given partition with one compensated
    interval measure per distinct (component, mark factor) pair (slot l uses
    mark factor phi_l); slots of one pair get the same read-only array."""
    if isinstance(realization, PoissonRealization):
        if partition is None:
            raise ValueError("a partition is required to discretize a Poisson realization")
        if mark_factors is None or len(mark_factors) != len(combo):
            raise ValueError("one mark factor per slot is required for Poisson drivers")
        measures = {}
        for i, phi in zip(combo, mark_factors):
            if (i, phi) not in measures:
                inc = measures[i, phi] = interval_measures(realization, i, phi, partition)
                inc.flags.writeable = False
        return partition, [measures[i, phi] for i, phi in zip(combo, mark_factors)]
    if not isinstance(realization, GaussianMartingalePath):
        raise TypeError(f"unsupported realization type {type(realization).__name__}")
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
    return OracleResult(float(nested_sum(f)), part.n_steps, combo)


def nested_sum(f: np.ndarray) -> np.ndarray:
    """sum over q_1 < ... < q_k of f[..., 0, q_1] * ... * f[..., k-1, q_k].

    f has shape (..., k, N); one running exclusive prefix sum per level
    along the last axis.  Every leading index is summed by the same
    operations, so its value does not depend on what it is batched with."""
    running = None
    for l in range(f.shape[-2] - 1):
        term = f[..., l, :] if running is None else f[..., l, :] * running
        running = np.empty_like(term)
        running[..., 0] = 0.0
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


@functools.lru_cache(maxsize=None)
def set_partitions(k: int) -> tuple:
    """(blocks, mu) for every set partition of the slots 0..k-1, finest first; blocks by
    smallest slot, slots increasing, and the Moebius weight mu = prod_B (-1)^(|B|-1) (|B|-1)!."""
    parts = [()]
    for s in range(k):  # slot s joins one block of each partition, or opens its own
        parts = [p[:b] + (p[b] + (s,),) + p[b + 1:] for p in parts for b in range(len(p))] \
            + [p + ((s,),) for p in parts]
    return tuple((p, math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in p))
                 for p in sorted(parts, key=len, reverse=True))


def gk_correction_tensor(phi_tables, incs) -> np.ndarray:
    """Sum over coincident index tuples (G_k) for every multi-index in a box.

    phi_tables[g] has shape (p_g + 1, N): basis values at the left nodes;
    incs[g] has shape (N,).  Returns an array of shape (p_1+1, ..., p_k+1), all tuples minus the
    distinct ones: -sum_{pi not finest} mu(pi) prod_{B in pi} X_B, with
    X_B[j_B] = sum_l prod_{g in B} phi_{j_g}(tau_l) dD_{g,l}.

    Slots that share their table (the same object) and increments (equal values)
    share one product table * inc, with results bitwise those of separate products."""
    f = []
    for g, (table, inc) in enumerate(zip(phi_tables, incs)):
        shared = [f[h] for h in range(g) if phi_tables[h] is table and np.array_equal(incs[h], inc)]
        f.append(shared[0] if shared else table * inc[None, :])
    shape = tuple(len(fg) for fg in f)
    blocks = {}
    total = np.zeros(shape)
    for partition, mu in set_partitions(len(f))[1:]:
        term = 1.0
        for b in partition:
            if b not in blocks:  # its slots increase, so its axes broadcast in slot order
                head = f[b[0]]
                for g in b[1:-1]:  # all slots but the last multiplied out, then one matmul
                    head = (head[:, None, :] * f[g]).reshape(-1, head.shape[1])
                if len(b) == 1:
                    x = head.sum(axis=1)
                else:  # a shared product times its own transpose would run BLAS syrk,
                    # which rounds unlike the gemm of two distinct products: copy it
                    last = f[b[-1]]
                    x = head @ (last.copy() if last is head else last).T
                blocks[b] = x.reshape([n if g in b else 1 for g, n in enumerate(shape)])
            term = term * blocks[b]
        total -= mu * term
    return total
