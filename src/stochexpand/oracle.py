"""Independent brute-force evaluation of multiple stochastic integrals.

Ground truth for all expansion tests: the strictly nested left-point sum
over a partition, computed in O(k N) by running prefix accumulation, plus
the coincident-index ("diagonal") sums over G_k = H_k \\ L_k used by the
pre-limit correction of the expansions: the correction of repeated Poisson
components, and for any one realization a finite-N reference.  Both it and
the pairing bracket are Moebius sums over the set partitions of the k slots
(Rota 1964): set_partitions.  Both forms of the G_k sum (one realization, or a
chunk of Poisson trials from its base) build their block sums X_B from two
helpers, _outer (the one Khatri-Rao product of a block's slot tables) and
_block_sums (one realization's X_B, for every block), and each
gk_correction_tensor call runs one Moebius sum, over all of its trials at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .drivers import GaussianMartingalePath, Partition, _poisson_batch, interval_measures
from .kernel import Kernel

__all__ = [
    "OracleResult",
    "slot_increments",
    "iterated_sum",
    "nested_sum",
    "set_partitions",
    "GkBase",
    "gk_base",
    "gk_correction_tensor",
]


@dataclass(frozen=True)
class OracleResult:
    value: float


def slot_increments(realizations, combo, partition: Partition | None = None,
                    mark_factors=None, out: np.ndarray | None = None
                    ) -> tuple[Partition, list[np.ndarray]]:
    """Per-slot driver increments Delta D^(i_l) on the partition.

    Gaussian paths (Wiener or martingale) carry their own partition, and the
    slots of one component share one view of its increments.  Poisson
    realizations, one or a list or tuple of them, are discretized onto the given
    partition with one compensated interval measure per distinct (component,
    mark factor) pair (slot l uses mark factor phi_l), of shape (N,) for one
    realization and (trials, N) for a list, written into the row of the pair's
    first slot in out (a (trials, k, N) array) if given; slots of one pair get
    the same read-only array."""
    if isinstance(realizations, GaussianMartingalePath):
        if partition is not None and not np.array_equal(partition.nodes,
                                                        realizations.partition.nodes):
            raise ValueError("path realizations can only be summed on their own partition")
        rows = {i: realizations.increment(i) for i in dict.fromkeys(combo)}
        return realizations.partition, [rows[i] for i in combo]
    _poisson_batch(realizations)  # the type check comes first
    if partition is None:
        raise ValueError("a partition is required to discretize a Poisson realization")
    if mark_factors is None or len(mark_factors) != len(combo):
        raise ValueError("one mark factor per slot is required for Poisson drivers")
    measures = {}
    for g, (i, phi) in enumerate(zip(combo, mark_factors)):
        if (i, phi) not in measures:
            inc = measures[i, phi] = interval_measures(
                realizations, i, phi, partition, None if out is None else out[:, g])
            inc.flags.writeable = False
    return partition, [measures[i, phi] for i, phi in zip(combo, mark_factors)]


def iterated_sum(kernel: Kernel, realization, combo, partition: Partition | None = None,
                 mark_factors=None) -> OracleResult:
    """Strictly nested left-point sum over tau_{j_1} < ... < tau_{j_k}."""
    combo = tuple(int(i) for i in combo)
    k = kernel.multiplicity
    if len(combo) != k:
        raise ValueError("combo length must equal kernel multiplicity")
    part, incs = slot_increments(realization, combo, partition, mark_factors)
    left = part.left_nodes
    f = [kernel.factor_values(l, left) * incs[l] for l in range(k)]
    return OracleResult(float(nested_sum(f)))


def nested_sum(levels, scratch: np.ndarray | None = None) -> np.ndarray:
    """sum over q_1 < ... < q_k of levels[0][..., q_1] * ... * levels[k-1][..., q_k].

    levels are k arrays of one shape (..., N), read where they lie; one
    running exclusive prefix sum per level along the last axis, kept with
    each level's product in the two rows of scratch, a (2, ..., N) float64
    array (allocated if None).  Every leading index is summed by the same
    operations, so its value does not depend on what it is batched with."""
    *lower, last = levels
    if not lower:
        return np.sum(last, axis=-1)
    running, top = np.empty((2, *np.shape(last))) if scratch is None else scratch
    for l, level in enumerate(lower):
        term = level if l == 0 else np.multiply(level, running, out=top)
        running[..., 0] = 0.0
        np.cumsum(term[..., :-1], axis=-1, out=running[..., 1:])
    return np.sum(np.multiply(last, running, out=top), axis=-1)


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


def _blocks(k: int) -> tuple:
    """Every block of the set partitions of k slots but the finest, once."""
    return tuple(dict.fromkeys(b for blocks, _ in set_partitions(k)[1:] for b in blocks))


def _holders(phi_tables, incs) -> list:
    """For each slot, the first slot that holds the same table and increment objects."""
    return [next(h for h in range(g + 1) if phi_tables[h] is phi_tables[g] and incs[h] is incs[g])
            for g in range(len(incs))]


def _outer(rows) -> np.ndarray:
    """The Khatri-Rao product of a block's slot tables rows[g], (p_g + 1, L) each:
    prod_g rows[g][j_g, l] at [(j_1, ..., j_|B|) flattened in slot order, l]."""
    out = rows[0]
    for row in rows[1:]:
        out = (out[:, None, :] * row).reshape(len(out) * len(row), -1)  # L may be 0
    return out


def _block_sums(phi_tables, incs) -> dict:
    """X_B = sum_l prod_{g in B} phi_{j_g}(tau_l) dD_{g,l} of one realization, flattened
    over the block's indices in slot order, for every block of _blocks.  Slots with one
    table object and one increment object (_holders) share one product table * inc,
    bitwise what separate products give."""
    f = []
    for g, h in enumerate(_holders(phi_tables, incs)):
        f.append(phi_tables[g] * incs[g] if h == g else f[h])
    sums = {}
    for b in _blocks(len(f)):
        if len(b) == 1:
            sums[b] = f[b[0]].sum(axis=1)
            continue
        # all slots but the last multiplied out, then one matmul; a shared product times its
        # own transpose would run BLAS syrk, which rounds unlike the gemm of two distinct
        # products: copy it
        head, last = _outer([f[g] for g in b[:-1]]), f[b[-1]]
        sums[b] = (head @ (last.copy() if last is head else last).T).ravel()
    return sums


def _moebius(sums, shape, lead=()) -> np.ndarray:
    """-sum_{pi not finest} mu(pi) prod_{B in pi} X_B over (*lead, *shape), from the
    block sums sums[B], (*lead, size of B) each, flattened over B's indices; each is
    broadcast over the axes of shape, 1 off its block."""
    blocks = {b: x.reshape((*lead, *(n if g in b else 1 for g, n in enumerate(shape))))
              for b, x in sums.items()}
    total = np.zeros((*lead, *shape))
    for partition, mu in set_partitions(len(shape))[1:]:
        term = 1.0
        for b in partition:
            term = term * blocks[b]
        total -= mu * term
    return total


@dataclass(frozen=True)
class GkBase:
    """Base rows of the slot increments, (N,) each, and their block sums D_B
    (flattened over each block's indices), on the basis tables they were
    built with: see gk_base."""

    tables: tuple
    incs: tuple
    blocks: dict


def gk_base(phi_tables, incs) -> GkBase:
    """The G_k block sums of one realization's slot increments incs, kept for
    gk_correction_tensor's chunk form.  The base rows of Poisson slots are a
    realization without jumps: on every step without a jump, each trial's
    increment equals them (the compensator's share)."""
    return GkBase(tuple(phi_tables), tuple(incs), _block_sums(phi_tables, incs))


def gk_correction_tensor(phi_tables, incs, base: GkBase | None = None) -> np.ndarray:
    """Sum over coincident index tuples (G_k) for every multi-index in a box.

    phi_tables[g] has shape (p_g + 1, N): basis values at the left nodes;
    incs[g] has shape (N,) for one realization, or (trials, N) for a chunk of
    trials with a base, which adds a leading trial axis to the result
    (ValueError without one).  Returns an array of shape
    (..., p_1+1, ..., p_k+1), all tuples minus the distinct ones:
    -sum_{pi not finest} mu(pi) prod_{B in pi} X_B, with
    X_B[j_B] = sum_l prod_{g in B} phi_{j_g}(tau_l) dD_{g,l}.

    Both forms build their block sums X_B with _block_sums or, for a chunk's
    jump steps, _outer, and then run one Moebius sum (_moebius) over all of
    their trials at once.  One realization's blocks are dense (p+1)^|B| x N
    products.  Slots that share their table and their increments (the same
    objects) share one product table * inc, with results bitwise those of
    separate products.

    A chunk's sums start from a base (gk_base on the same tables), which only a
    Poisson pass has: X_B = D_B + sum_l P_B[l] (prod_g dD_{g,l} - prod_g base_{g,l})
    over the steps l where some slot of B leaves its base row, P_B[l] the outer
    product of the tables' columns at l: O(jumps p^|B|) per trial, exact for any
    base rows.  Each trial's steps are added to D_B one by one in step order, so
    a trial's result does not depend on what it is batched with, bitwise."""
    shape = tuple(len(t) for t in phi_tables)
    if base is None:
        if np.ndim(incs[0]) != 1:
            raise ValueError("the G_k sums of a chunk of trials start from a base (gk_base)")
        return _moebius(_block_sums(phi_tables, incs), shape)
    holders, trials = _holders(phi_tables, incs), len(incs[0])
    sums = {b: np.empty((trials, math.prod(shape[g] for g in b))) for b in _blocks(len(shape))}
    if len(base.tables) != len(shape) or any(t is not u for t, u in zip(base.tables, phi_tables)):
        raise ValueError("the base was built on other basis tables")
    off = {h: incs[h] != base.incs[h] for h in set(holders)}  # steps off the base row
    for b, x in sums.items():
        mask = functools.reduce(np.logical_or, [off[h] for h in dict.fromkeys(holders[g] for g in b)])
        # in trial order, then step order (np.nonzero is 10x slower on a 2-d mask)
        trial, step = np.divmod(np.flatnonzero(mask), mask.shape[1])
        jump = (math.prod(incs[g][trial, step] for g in b)
                - math.prod(base.incs[g][step] for g in b))
        x[...] = base.blocks[b]
        # one flat scattered add: each entry takes its trial's terms in step order
        np.add.at(x.reshape(-1), (trial * x.shape[1] + np.arange(x.shape[1])[:, None]).ravel(),
                  (_outer([phi_tables[g][:, step] for g in b]) * jump).ravel())
    return _moebius(sums, shape, (trials,))
