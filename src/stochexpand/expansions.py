"""Basis random variables and truncated expansion samples.

From a driver realization we form the basis variables (projections of the
driver onto basis members), then evaluate the truncated multiple series
with one of three diagonal-correction modes:

* ``explicit_k_le_4`` -- the transformed indicator formulas for k = 1..4
  (Gaussian drivers only);
* ``pairing_general`` -- sum over partitions of the slots into singletons
  and disjoint pairs, each pair contributing -1{i_a=i_b!=0} 1{j_a=j_b};
  identical to the explicit formulas for k <= 4;
* ``prelimit`` -- subtract the coincident-index sum evaluated on the
  realization's partition, the universal (finite-N) fallback and the only
  mode for Poisson combos with coincident components.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import oracle, quadrature
from .basis import OrthonormalSystem
from .drivers import GaussianMartingalePath, Partition, PoissonRealization, WienerPath
from .kernel import CoeffTensor

__all__ = [
    "BasisVariables",
    "zeta_from_path",
    "xi_from_path",
    "pi_from_realization",
    "gaussian_variables",
    "wiener_variables",
    "martingale_variables",
    "poisson_variables",
    "ExpansionSample",
    "expand",
    "expand_weighted",
    "pairing_bracket",
    "explicit_bracket",
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

    kind: str  # "wiener" | "martingale" | "poisson"
    table: np.ndarray
    by_slot: bool
    combo: tuple[int, ...] | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.table)):
            raise ValueError("basis variable table contains non-finite values")

    @property
    def p_max(self) -> int:
        return self.table.shape[-1] - 1

    def slot_vector(self, slot: int, component: int, p: int) -> np.ndarray:
        return self.table[..., slot if self.by_slot else component, : p + 1]


def zeta_from_path(path: WienerPath | GaussianMartingalePath, system: OrthonormalSystem,
                   j: int, i: int) -> float:
    """Left-point discretization of int phi_j dw^(i) (or of int phi_j dM^(i),
    xi_j^(i), on a Gaussian-martingale path); i = 0 integrates against dt."""
    return float(np.dot(system.eval(j, path.partition.left_nodes), path.increment(i)))


xi_from_path = zeta_from_path


def gaussian_variables(kind: str, increments: np.ndarray, phi: np.ndarray) -> BasisVariables:
    """Component-keyed table sum_l phi_j(tau_l) Delta D^(i)_l.

    increments has shape (..., m + 1, N) and phi (p_max + 1, N) holds the
    basis on the partition's left nodes; leading axes are multiplied slice
    by slice, so a trial's table does not depend on what it is batched with."""
    return BasisVariables(kind, increments @ phi.T, by_slot=False)


def wiener_variables(path: WienerPath | GaussianMartingalePath, system: OrthonormalSystem,
                     p_max: int) -> BasisVariables:
    """Basis variables zeta_j^(i) of a Wiener path, or xi_j^(i) of a
    Gaussian-martingale path, for j = 0..p_max."""
    kind = "martingale" if isinstance(path, GaussianMartingalePath) else "wiener"
    return gaussian_variables(kind, path.increments,
                              system.eval_table(p_max, path.partition.left_nodes))


martingale_variables = wiener_variables


def _basis_time_integrals(system: OrthonormalSystem, p_max: int) -> np.ndarray:
    """int phi_j dt over the interval for j = 0..p_max."""
    a, b = system.interval.start, system.interval.end
    brk = system.breakpoints(p_max)
    out = np.empty(p_max + 1)
    for j in range(p_max + 1):
        out[j], _ = quadrature.integrate(lambda x, j=j: system.eval(j, x), a, b, brk)
    return out


def pi_from_realization(realization: PoissonRealization, system: OrthonormalSystem,
                        j: int, mark_factor, i: int, compensated: bool = True,
                        moment_order: float | None = None) -> float:
    """pi_j for one slot: exact jump sum minus the compensator.

    For i = 0 the measure is Pi(dy) dt and the value is deterministic."""
    if moment_order is not None:
        realization.intensity.moment(mark_factor, moment_order)
    m1 = realization.intensity.mark_integral(mark_factor)
    time_int, _ = quadrature.integrate(lambda x: system.eval(j, x),
                                       realization.interval.start, realization.interval.end,
                                       system.breakpoints(j))
    if i == 0:
        return time_int * m1
    times, marks = realization.jumps(i)
    jump_sum = float(np.sum(system.eval(j, times) * mark_factor(marks))) if len(times) else 0.0
    if not compensated:
        return jump_sum
    return jump_sum - time_int * m1


def poisson_variables(realization: PoissonRealization, system: OrthonormalSystem,
                      mark_factors, combo, p_max: int,
                      moment_order: float | None = None,
                      time_integrals: np.ndarray | None = None) -> BasisVariables:
    """Slot-keyed table of pi_j^(g, i_g) variables, exact in the jump times.

    time_integrals can carry precomputed int phi_j dt values (one per j) to
    avoid re-quadrature inside Monte Carlo loops."""
    combo = tuple(int(i) for i in combo)
    if len(mark_factors) != len(combo):
        raise ValueError("one mark factor per slot is required")
    k = len(combo)
    if moment_order is None:
        moment_order = 2.0 ** (k + 1)
    time_ints = (_basis_time_integrals(system, p_max) if time_integrals is None
                 else np.asarray(time_integrals, dtype=float))
    table = np.empty((k, p_max + 1))
    for g, (i, phi) in enumerate(zip(combo, mark_factors)):
        realization.intensity.moment(phi, moment_order)
        m1 = realization.intensity.mark_integral(phi)
        if i == 0:
            table[g] = time_ints * m1
            continue
        times, marks = realization.jumps(i)
        if len(times):
            basis_vals = system.eval_table(p_max, times)
            table[g] = basis_vals @ phi(marks) - time_ints * m1
        else:
            table[g] = -time_ints * m1
    return BasisVariables("poisson", table, by_slot=True, combo=combo)


CORRECTIONS = ("explicit_k_le_4", "pairing_general", "prelimit")


@dataclass(frozen=True)
class ExpansionSample:
    value: float  # or an array over the variables' leading trial axes
    box: tuple[int, ...]
    combo: tuple[int, ...]
    correction: str


@functools.lru_cache(maxsize=None)
def _pairings(combo: tuple[int, ...]) -> tuple:
    """The ways to split the slots into singletons and disjoint pairs whose
    pairs have equal nonzero components (the others contribute nothing)."""

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first, rest = remaining[0], remaining[1:]
        # first stays a singleton
        yield from rec(rest)
        for other in rest:
            if combo[first] == combo[other] != 0:
                reduced = tuple(s for s in rest if s != other)
                for tail in rec(reduced):
                    yield ((first, other),) + tail

    return tuple(rec(tuple(range(len(combo)))))


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

    vectors[g] is the basis-variable vector for slot g; pairs (a, b)
    contribute a factor -1{i_a = i_b != 0} (with j_a = j_b contracted).
    Returns a float, or an array over the vectors' leading axes."""
    total = 0.0
    for pairs in _pairings(tuple(combo)):
        total = total + (-1.0) ** len(pairs) * _contract(values, vectors, pairs)
    return _scalar(total)


def explicit_bracket(values: np.ndarray, vectors, combo):
    """The transformed indicator formulas, written out verbatim for k = 1..4."""
    k = values.ndim
    i = combo

    def ind(a, b):
        return 1.0 if (i[a] == i[b] and i[a] != 0) else 0.0

    def tie(*pairs):
        return _contract(values, vectors, pairs)

    full = tie()
    if k == 1:
        out = full
    elif k == 2:
        out = full - ind(0, 1) * tie((0, 1))
    elif k == 3:
        out = (full
               - ind(0, 1) * tie((0, 1))
               - ind(1, 2) * tie((1, 2))
               - ind(0, 2) * tie((0, 2)))
    elif k == 4:
        out = full
        out -= ind(0, 1) * tie((0, 1))
        out -= ind(0, 2) * tie((0, 2))
        out -= ind(0, 3) * tie((0, 3))
        out -= ind(1, 2) * tie((1, 2))
        out -= ind(1, 3) * tie((1, 3))
        out -= ind(2, 3) * tie((2, 3))
        out += ind(0, 1) * ind(2, 3) * tie((0, 1), (2, 3))
        out += ind(0, 2) * ind(1, 3) * tie((0, 2), (1, 3))
        out += ind(0, 3) * ind(1, 2) * tie((0, 3), (1, 2))
    else:
        raise ValueError("explicit formulas cover multiplicities 1..4 only")
    return _scalar(out)


def _distinct_nonzero(combo) -> bool:
    nz = [i for i in combo if i != 0]
    return len(nz) == len(set(nz))


def expand(tensor: CoeffTensor, variables: BasisVariables, combo,
           correction: str = "pairing_general", realization=None,
           mark_factors=None, partition: Partition | None = None,
           gk_sums: np.ndarray | None = None) -> ExpansionSample:
    """Truncated expansion sample for one component combination.

    correction is "explicit_k_le_4", "pairing_general" or "prelimit".
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
    gaussian = variables.kind in ("wiener", "martingale")
    if correction == "explicit_k_le_4":
        if not (gaussian or _distinct_nonzero(combo)):
            raise ValueError("explicit correction requires a Gaussian driver "
                             "or pairwise-distinct nonzero components")
        if k > 4:
            raise ValueError("explicit correction covers multiplicities 1..4 only")
        value = explicit_bracket(tensor.values, vectors, combo)
    elif correction == "pairing_general":
        if not (gaussian or _distinct_nonzero(combo)):
            raise ValueError("pairing correction requires a Gaussian driver "
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


def expand_weighted(tensor: CoeffTensor, variables: BasisVariables, combo, rho,
                    correction: str = "pairing_general", ratio_bound: float = 1e6,
                    grid_size: int = 2048, **kw) -> ExpansionSample:
    """Expansion with weighted coefficients and a weighted basis.

    Checks the compatibility condition sup rho / r < bound on a dense grid
    before delegating to expand; with rho == r == 1 this is exactly expand."""
    if not callable(rho):
        rho_val = float(rho)
        rho = lambda x: np.full_like(np.asarray(x, dtype=float), rho_val)
    interval = tensor.system.interval
    # avoid the endpoints where a vanishing weight is harmless (measure zero)
    x = np.linspace(interval.start, interval.end, grid_size + 2)[1:-1]
    r = tensor.system.weight(x)
    ratio = np.asarray(rho(x), dtype=float) / np.where(r > 0, r, np.inf)
    if np.max(ratio) > ratio_bound:
        raise ValueError(
            f"variance density / weight ratio appears unbounded (sup over grid "
            f"{np.max(ratio):.3g} exceeds {ratio_bound:.3g})")
    return expand(tensor, variables, combo, correction=correction, **kw)
