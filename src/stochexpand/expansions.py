"""Basis random variables and truncated expansion samples.

From a driver realization we form the basis variables (projections of the
driver onto basis members), then evaluate the truncated multiple series
with one of two diagonal-correction modes, both Moebius sums over the set
partitions of the slots (``oracle.set_partitions``):

* ``pairing_general`` -- the limit form: over the partitions into singletons and
  pairs with equal nonzero components, each pair contracted with its quadratic
  covariation [xi_a, xi_b] = int phi_a phi_b rho dt (``pairing_bracket``, any k).
  For a Gaussian driver that is the deterministic rho-Gram matrix G, which the
  variables carry (``gaussian_gram``); G = I for orthonormal variables.  For
  k <= 4 the bracket equals the transformed indicator formulas, which are
  written out as its independent oracle in ``validation.explicit_bracket``;
* ``prelimit`` -- subtract the coincident-index sum over all partitions on the
  realization's partition (``oracle.gk_correction_tensor``, any k): the only mode
  for repeated Poisson components, whose ties' quadratic variation is random,
  and for any realization a finite-N reference.

expand does not see rho or the system's weight: a Gaussian table's G comes with
it, built from the path's rho (``wiener_variables``) or, in the trial loop, by
the driver's law in ``harness``, which also decides the mode
(``harness.ExperimentSpec.correction``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import oracle, quadrature
from .basis import OrthonormalSystem, gram_matrix
from .drivers import (GaussianMartingalePath, Partition, _as_callable, _batch_jumps,
                      _checked_density, _poisson_batch)
from .kernel import CoeffTensor

__all__ = [
    "BasisVariables",
    "gaussian_gram",
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
    evaluates all of them).  A Gaussian table carries gram, the (p_max + 1)^2
    quadratic covariations [xi_j, xi_j'] of one component's variables, with
    which pairing_bracket contracts a tie, or None for combos without a tie,
    which never read it; a Poisson table has none.
    """

    kind: str  # "gaussian" | "poisson"
    table: np.ndarray
    combo: tuple[int, ...] | None = None
    gram: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "poisson"):
            raise ValueError(f"basis variable kind must be 'gaussian' or 'poisson', "
                             f"got {self.kind!r}")
        if not np.all(np.isfinite(self.table)):
            raise ValueError("basis variable table contains non-finite values")
        if self.gram is not None and (self.by_slot
                                      or np.shape(self.gram) != (self.p_max + 1,) * 2):
            raise ValueError("Gaussian basis variables take the (p_max + 1)^2 Gram matrix of "
                             "their ties or None, and Poisson ones take none")

    @property
    def by_slot(self) -> bool:
        return self.kind == "poisson"

    @property
    def p_max(self) -> int:
        return self.table.shape[-1] - 1

    def slot_vector(self, slot: int, component: int, p: int) -> np.ndarray:
        return self.table[..., slot if self.by_slot else component, : p + 1]


@functools.lru_cache(maxsize=64)
def gaussian_gram(system: OrthonormalSystem, rho, count: int) -> np.ndarray:
    """G_jj' = int phi_j phi_j' rho dt for j, j' < count, read-only: the quadratic
    covariation [xi_j, xi_j'] of the basis variables of a Gaussian martingale of
    variance density rho (None: 1, a Wiener path), deterministic.

    Exactly rho * I for a number rho on a unit-weight system, else
    basis.gram_matrix against the density rho (about I when rho is the weight of
    a weighted system); ValueError if rho is negative or not finite at a
    quadrature node.  Cached, so a Monte Carlo loop pays for the quadrature
    once; a density must not change after its first use here."""
    if callable(rho) or system.weighted:
        density = _as_callable(1.0 if rho is None else rho)
        gram = gram_matrix(system, count, lambda x: _checked_density(density(x)))
    else:
        gram = np.eye(count) * (1.0 if rho is None else float(rho))
    gram.flags.writeable = False
    return gram


def gaussian_variables(increments: np.ndarray, phi: np.ndarray,
                       gram: np.ndarray | None) -> BasisVariables:
    """Component-keyed table sum_l phi_j(tau_l) Delta D^(i)_l, with the Gram
    matrix gram of its ties (gaussian_gram), or None for a combo without a tie.

    increments has shape (..., m + 1, N) and phi (p_max + 1, N) holds the
    basis on the partition's left nodes; leading axes are multiplied slice
    by slice, so a trial's table does not depend on what it is batched with."""
    return BasisVariables("gaussian", increments @ phi.T, gram=gram)


def wiener_variables(path: GaussianMartingalePath, system: OrthonormalSystem,
                     p_max: int) -> BasisVariables:
    """Basis variables xi_j^(i) of a Gaussian path (zeta_j^(i) of a Wiener
    path) for j = 0..p_max, with the Gram matrix of the path's rho."""
    return gaussian_variables(path.increments, system.eval_table(p_max, path.partition.left_nodes),
                              gaussian_gram(system, path.rho, p_max + 1))


martingale_variables = wiener_variables


@functools.lru_cache(maxsize=64)
def _compensator_row(system: OrthonormalSystem, p_max: int, intensity, mark_factor,
                     moment_order: float) -> np.ndarray:
    """int phi_j dt * int phi dPi for j = 0..p_max, read-only; one adaptive
    quadrature over the basis table serves every degree.  Keyed on the
    intensity object: exponential_measure gives one per total mass, so a row
    is built once per process for each configuration, not once per run.

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


def poisson_variables(realizations, system: OrthonormalSystem, mark_factors, combo,
                      p_max: int) -> BasisVariables:
    """Slot-keyed table of pi_j^(g, i_g) variables, exact in the jump times, of shape
    (k, p_max + 1) for one realization and (trials, k, p_max + 1) for a list or
    tuple of them.

    Every mark factor needs a finite mark moment of order 2^(k+1); the
    compensators come from a cache, so Monte Carlo loops pay for the
    quadrature once.  A slot's variables depend on it only through its
    (component, mark factor) pair, so equal slots share one row, built once.
    Each nonzero component's basis is evaluated once on the jump times of all
    trials; a trial's row multiplies its column block of that table, the same
    matrix-vector product as on its jumps alone, so each trial's table is
    bitwise what it gives alone."""
    batch, alone = _poisson_batch(realizations)
    combo = tuple(int(i) for i in combo)
    if len(mark_factors) != len(combo):
        raise ValueError("one mark factor per slot is required")
    k, pis = len(combo), {}
    for i, phi in dict.fromkeys(zip(combo, mark_factors)):  # one row per pair
        row = _compensator_row(system, p_max, batch[0].intensity, phi, 2.0 ** (k + 1))
        pis[i, phi] = np.tile(-row if i else row, (len(batch), 1))  # a trial without jumps keeps it
    for i in sorted(set(combo) - {0}):  # one table on the jump times per component
        times, marks, counts = _batch_jumps(batch, i)
        jump_table = system.eval_table(p_max, times)
        ends = np.cumsum(counts).tolist()  # each trial's column block, in Python ints
        blocks = [(t, ends[t] - n, ends[t]) for t, n in enumerate(counts.tolist()) if n]
        for phi in (phi for c, phi in pis if c == i):
            weights, rows = phi(marks), pis[i, phi]
            for t, lo, hi in blocks:  # jump sum + (-row): bitwise jump sum - row
                rows[t] += jump_table[:, lo:hi] @ weights[lo:hi]
    table = np.stack([pis[pair] for pair in zip(combo, mark_factors)], axis=1)
    return BasisVariables("poisson", table[0] if alone else table, combo=combo)


@dataclass(frozen=True)
class ExpansionSample:
    value: float  # or an array over the variables' leading trial axes


@functools.lru_cache(maxsize=None)
def _pairings(combo: tuple[int, ...]) -> tuple:
    """(pairs, mu) for the set partitions of the slots into singletons and
    pairs with equal nonzero components (the others contribute nothing)."""
    return tuple((tuple(b for b in blocks if len(b) == 2), mu)
                 for blocks, mu in oracle.set_partitions(len(combo))
                 if all(len(b) == 1 or len(b) == 2 and combo[b[0]] == combo[b[1]] != 0
                        for b in blocks))


def _contract(values: np.ndarray, vectors, pairs=(), gram=None) -> np.ndarray:
    """sum_J values[J] prod_g vectors[g][j_g] over the slots g in no pair,
    with each pair (a, b) contracted with gram: sum_{j_a, j_b} gram[j_a, j_b].

    vectors[g] may carry leading trial axes (the same for every slot).  The
    tensor is contracted over the pairs first, each tie as the trace of the
    slice times gram's diagonal plus the sum of its product with gram's
    off-diagonal part, so a tie with gram = I is np.trace bitwise; then it is
    contracted with one slot vector at a time by a stacked matmul, so every
    trial runs the same operations whatever it is batched with."""
    arr = values
    slots = list(range(values.ndim))
    for a, b in pairs:
        ia, ib = slots.index(a), slots.index(b)
        tie = gram[:arr.shape[ia], :arr.shape[ib]]
        on = tie * np.eye(*tie.shape)  # its diagonal, zeros elsewhere
        n = min(tie.shape)
        trim = [slice(None)] * arr.ndim
        trim[ia] = trim[ib] = slice(0, n)
        axes = [1] * arr.ndim  # a tie matrix on the axes ia and ib, broadcast over the others
        axes[ia], axes[ib] = n, n
        diag = on[:n, :n].reshape(axes)
        axes[ia], axes[ib] = tie.shape
        arr = (np.trace(arr[tuple(trim)] * diag, axis1=ia, axis2=ib)
               + np.sum(arr * (tie - on).reshape(axes), axis=(ia, ib)))
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


def pairing_bracket(values: np.ndarray, vectors, combo, gram):
    """sum_J C[J] * (prod xi - pair corrections) via the pairing expansion.

    vectors[g] is the basis-variable vector for slot g; each partition into
    singletons and pairs (a, b) with i_a = i_b != 0, each pair contracted with
    the quadratic covariations gram[j_a, j_b] (the Kronecker delta when
    gram = I), enters with its Moebius weight mu = (-1)^#pairs.  gram is read
    only if a pair exists: ValueError if one does and gram is None.
    Returns a float, or an array over the vectors' leading axes."""
    if gram is None and not _distinct_nonzero(combo):
        raise ValueError(f"combo {tuple(combo)} has a tie, which needs the Gram matrix "
                         f"of the variables' quadratic covariations, got None")
    total = 0.0
    for pairs, mu in _pairings(tuple(combo)):
        total = total + mu * _contract(values, vectors, pairs, gram)
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
        value = pairing_bracket(tensor.values, vectors, combo, variables.gram)
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
    return ExpansionSample(value)

