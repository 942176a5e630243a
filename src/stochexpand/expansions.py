"""Basis random variables and truncated expansion samples.

From a driver realization we form the basis variables (projections of the
driver onto basis members), then evaluate the truncated multiple series
with one of two diagonal-correction modes, both Moebius sums over the set
partitions of the slots (``oracle.set_partitions``):

* ``pairing_general`` -- over the partitions into singletons and pairs with equal
  nonzero components, pairs tied (j_a = j_b): the quadratic variation when the
  basis variables are orthonormal (``pairing_bracket``, any k).  For k <= 4 it
  equals the transformed indicator formulas, which are written out as its
  independent oracle in ``validation.explicit_bracket``;
* ``prelimit`` -- subtract the coincident-index sum over all partitions on the
  realization's partition (``oracle.gk_correction_tensor``, any k), the finite-N
  fallback and the only mode for repeated Poisson components, and for repeated
  Gaussian components whose variables are not orthonormal.

expand does not see rho or the system's weight.  Whether the variables are
orthonormal (rho == 1 on a unit-weight system, rho equal to the weight on the
weighted one) and whether rho is compatible with the weight at all is decided
by the driver's law in ``harness`` (its ``slot_scales``, which
``harness.ExperimentSpec.slot_scales`` calls once).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import oracle, quadrature
from .basis import OrthonormalSystem
from .drivers import (GaussianMartingalePath, Partition, PoissonRealization, _batch_jumps,
                      _poisson_batch, compensated_integral)
from .kernel import CoeffTensor

__all__ = [
    "BasisVariables",
    "zeta_from_path",
    "pi_from_realization",
    "gaussian_variables",
    "wiener_variables",
    "martingale_variables",
    "poisson_variables",
    "ExpansionSample",
    "expand",
    "pairing_bracket",
]


@dataclass(frozen=True)
class BasisVariables:
    """Table of basis random variables.

    For Gaussian drivers the table is keyed by (component, j) and has shape
    (m + 1, p_max + 1); for Poisson drivers it is keyed by (slot, j) with
    shape (k, p_max + 1) because every slot carries its own mark factor.
    Leading axes, if any, index independent trials (one expand call then
    evaluates all of them).
    """

    kind: str  # "gaussian" | "poisson"
    table: np.ndarray
    combo: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "poisson"):
            raise ValueError(f"basis variable kind must be 'gaussian' or 'poisson', "
                             f"got {self.kind!r}")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("basis variable table contains non-finite values")

    @property
    def by_slot(self) -> bool:
        return self.kind == "poisson"

    @property
    def p_max(self) -> int:
        return self.table.shape[-1] - 1

    def slot_vector(self, slot: int, component: int, p: int) -> np.ndarray:
        return self.table[..., slot if self.by_slot else component, : p + 1]


def zeta_from_path(path: GaussianMartingalePath, system: OrthonormalSystem,
                   j: int, i: int) -> float:
    """Left-point discretization of int phi_j dM^(i), xi_j^(i) (zeta_j^(i) of
    int phi_j dw^(i) on a Wiener path); i = 0 integrates against dt."""
    return float(np.dot(system.eval(j, path.partition.left_nodes), path.increment(i)))


def gaussian_variables(increments: np.ndarray, phi: np.ndarray) -> BasisVariables:
    """Component-keyed table sum_l phi_j(tau_l) Delta D^(i)_l.

    increments has shape (..., m + 1, N) and phi (p_max + 1, N) holds the
    basis on the partition's left nodes; leading axes are multiplied slice
    by slice, so a trial's table does not depend on what it is batched with."""
    return BasisVariables("gaussian", increments @ phi.T)


def wiener_variables(path: GaussianMartingalePath, system: OrthonormalSystem,
                     p_max: int) -> BasisVariables:
    """Basis variables xi_j^(i) of a Gaussian path (zeta_j^(i) of a Wiener
    path) for j = 0..p_max."""
    return gaussian_variables(path.increments, system.eval_table(p_max, path.partition.left_nodes))


martingale_variables = wiener_variables


@functools.lru_cache(maxsize=64)
def _compensator_row(system: OrthonormalSystem, p_max: int, intensity, mark_factor,
                     moment_order: float) -> np.ndarray:
    """int phi_j dt * int phi dPi for j = 0..p_max, read-only; one adaptive
    quadrature over the basis table serves every degree.

    Checks first that the mark moment of the given order is finite; a failed
    check raises ValueError and is not cached, so it raises on every call."""
    intensity.moment(mark_factor, moment_order)
    m1 = intensity.mark_integral(mark_factor)
    time_ints, _, _ = quadrature.adaptive(
        lambda grid: np.sum(grid.weights * system.eval_table(p_max, grid.nodes), axis=(1, 2)),
        system.interval.start, system.interval.end, system.breakpoints(p_max))
    row = time_ints * m1
    row.flags.writeable = False
    return row


def pi_from_realization(realization: PoissonRealization, system: OrthonormalSystem,
                        j: int, mark_factor, i: int) -> float:
    """pi_j for one slot: the compensated integral of phi_j (exact jump sum
    minus the compensator).

    For i = 0 the measure is Pi(dy) dt and the value is deterministic."""
    return compensated_integral(realization, i, lambda x: system.eval(j, x), mark_factor,
                                system.breakpoints(j))


def poisson_variables(realizations, system: OrthonormalSystem, mark_factors, combo,
                      p_max: int) -> BasisVariables:
    """Slot-keyed table of pi_j^(g, i_g) variables, exact in the jump times, of shape
    (k, p_max + 1) for one realization and (trials, k, p_max + 1) for a list or
    tuple of them.

    Every mark factor needs a finite mark moment of order 2^(k+1); the
    compensators come from a cache, so Monte Carlo loops pay for the
    quadrature once.  Each nonzero component's basis is evaluated once on the
    jump times of all trials; a trial's row multiplies its column block of that
    table, the same matrix-vector product as on its jumps alone, so each trial's
    table is bitwise what it gives alone."""
    batch, alone = _poisson_batch(realizations)
    combo = tuple(int(i) for i in combo)
    if len(mark_factors) != len(combo):
        raise ValueError("one mark factor per slot is required")
    k = len(combo)
    rows = [_compensator_row(system, p_max, batch[0].intensity, phi, 2.0 ** (k + 1))
            for phi in mark_factors]
    table = np.empty((len(batch), k, p_max + 1))
    for g, (i, row) in enumerate(zip(combo, rows)):
        table[:, g] = -row if i else row  # a trial without jumps keeps -row
    for i in sorted(set(combo) - {0}):  # one table on the jump times per component
        times, marks, counts = _batch_jumps(batch, i)
        jump_table = system.eval_table(p_max, times)
        ends = np.cumsum(counts)
        for g in (g for g, c in enumerate(combo) if c == i):
            weights = mark_factors[g](marks)
            for t in np.flatnonzero(counts):
                block = slice(ends[t] - counts[t], ends[t])
                table[t, g] = jump_table[:, block] @ weights[block] - rows[g]
    return BasisVariables("poisson", table[0] if alone else table, combo=combo)


@dataclass(frozen=True)
class ExpansionSample:
    value: float  # or an array over the variables' leading trial axes
    box: tuple[int, ...]
    combo: tuple[int, ...]
    correction: str


@functools.lru_cache(maxsize=None)
def _pairings(combo: tuple[int, ...]) -> tuple:
    """(pairs, mu) for the set partitions of the slots into singletons and
    pairs with equal nonzero components (the others contribute nothing)."""
    return tuple((tuple(b for b in blocks if len(b) == 2), mu)
                 for blocks, mu in oracle.set_partitions(len(combo))
                 if all(len(b) == 1 or len(b) == 2 and combo[b[0]] == combo[b[1]] != 0
                        for b in blocks))


def _contract(values: np.ndarray, vectors, pairs=()) -> np.ndarray:
    """sum_J values[J] prod_g vectors[g][j_g] over the slots g in no pair,
    with each pair (a, b) tied (j_a = j_b over the common extent).

    vectors[g] may carry leading trial axes (the same for every slot).  The
    tensor is traced over the pairs, then contracted with one slot vector
    at a time by a stacked matmul, so every trial runs the same operations
    whatever it is batched with."""
    arr = values
    slots = list(range(values.ndim))
    for a, b in pairs:
        ia, ib = slots.index(a), slots.index(b)
        n = min(arr.shape[ia], arr.shape[ib])
        trim = [slice(None)] * arr.ndim
        trim[ia] = trim[ib] = slice(0, n)
        arr = np.trace(arr[tuple(trim)], axis1=ia, axis2=ib)
        slots = [g for g in slots if g not in (a, b)]
    lead = 0  # trial axes at the front of arr
    for g in reversed(slots):
        vec = vectors[g]
        rest = arr.shape[lead:-1]
        arr = arr.reshape((*arr.shape[:lead], -1, arr.shape[-1])) @ vec[..., :, None]
        arr = arr.reshape((*vec.shape[:-1], *rest))
        lead = vec.ndim - 1
    return arr


def _scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def pairing_bracket(values: np.ndarray, vectors, combo):
    """sum_J C[J] * (prod zeta - pair corrections) via the pairing expansion.

    vectors[g] is the basis-variable vector for slot g; each partition into
    singletons and pairs (a, b) with i_a = i_b != 0, j_a = j_b contracted,
    enters with its Moebius weight mu = (-1)^#pairs.
    Returns a float, or an array over the vectors' leading axes."""
    total = 0.0
    for pairs, mu in _pairings(tuple(combo)):
        total = total + mu * _contract(values, vectors, pairs)
    return _scalar(total)


def _distinct_nonzero(combo) -> bool:
    nz = [i for i in combo if i != 0]
    return len(nz) == len(set(nz))


def expand(tensor: CoeffTensor, variables: BasisVariables, combo,
           correction: str = "pairing_general", realization=None,
           mark_factors=None, partition: Partition | None = None,
           gk_sums: np.ndarray | None = None) -> ExpansionSample:
    """Truncated expansion sample for one component combination.

    correction is "pairing_general" or "prelimit".
    Variables with leading trial axes give an array of values, one per
    trial.  The prelimit correction takes the realization's G_k sums from
    gk_sums (covering the box, with the variables' leading axes) or
    computes them from the realization."""
    combo = tuple(int(i) for i in combo)
    k = len(tensor.box)
    if len(combo) != k:
        raise ValueError("combo length must equal tensor multiplicity")
    if variables.by_slot and variables.combo != combo:
        raise ValueError("slot-keyed variables were built for a different combo")
    if any(p > variables.p_max for p in tensor.box):
        raise ValueError("variable table does not cover the truncation box")
    vectors = [variables.slot_vector(g, combo[g], tensor.box[g]) for g in range(k)]
    if correction == "pairing_general":
        if not (variables.kind == "gaussian" or _distinct_nonzero(combo)):
            raise ValueError("the pairing_general correction requires a Gaussian driver "
                             "or pairwise-distinct nonzero components")
        value = pairing_bracket(tensor.values, vectors, combo)
    elif correction == "prelimit":
        if gk_sums is None:
            if realization is None:
                raise ValueError("prelimit correction requires the underlying realization")
            part, incs = oracle.slot_increments(realization, combo, partition, mark_factors)
            phi = tensor.system.eval_table(max(tensor.box), part.left_nodes)
            gk_sums = oracle.gk_correction_tensor([phi[: p + 1] for p in tensor.box], incs)
        box_sums = gk_sums[(..., *(slice(0, p + 1) for p in tensor.box))] * tensor.values
        corr = box_sums.reshape((*box_sums.shape[: box_sums.ndim - k], -1)).sum(axis=-1)
        value = _scalar(_contract(tensor.values, vectors) - corr)
    else:
        raise ValueError(f"unknown correction mode: {correction}")
    return ExpansionSample(value, tensor.box, combo, correction)

