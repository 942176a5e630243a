"""Simplex kernels and their multiple Fourier coefficient tensors.

The kernel of multiplicity k is K(t_1, ..., t_k) = prod psi_l(t_l) on the
simplex t_1 < ... < t_k and zero elsewhere (ties included).  Coefficients
are iterated integrals over one shared panel grid.  The tensor is built
level by level on the grid nodes: level l multiplies the running
primitives of all index prefixes (prod_{q<l} (p_q + 1) rows) by the table of
factor x basis x weight values for its p_l + 1 indices, and integrates
every row at once with the spectral integration matrix of
quadrature.PanelGrid (Greengard, SIAM J. Numer. Anal. 28, 1991).  The last
level is one matrix product with the quadrature weights, so a dense tensor
costs O(prod p_l * nodes) work and never leaves the grid nodes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .basis import MEMORY_BUDGET, Interval, OrthonormalSystem
from .errors import SizeError
from .quadrature import PanelGrid

__all__ = [
    "Factor",
    "Kernel",
    "unit_kernel",
    "CoeffTensor",
    "coeff",
    "coeff_tensor",
    "kernel_norm_sq",
    "tensor_to_csv",
    "tensor_from_csv",
    "tensor_to_json",
    "tensor_from_json",
]

_FACTOR_NAMES = ("const", "pow", "sqrt_shift", "exp")


@dataclass(frozen=True)
class Factor:
    """One whitelisted kernel factor psi(s), parameterized by the interval start.

    const: c; pow: (s - t)^a with a > -1/2, so that psi^2 is integrable;
    sqrt_shift: sqrt(s - t); exp: e^(c (s - t)).
    """

    name: str
    param: float = 1.0

    def __post_init__(self):
        if self.name not in _FACTOR_NAMES:
            raise ValueError(f"factor {self.name!r} is not in the whitelist {_FACTOR_NAMES}")
        object.__setattr__(self, "param", float(self.param))
        if self.name == "pow" and not self.param > -0.5:
            raise ValueError(f"pow exponent must be above -1/2 (psi^2 integrable), "
                             f"got {self.param}")

    def power(self):
        """Exponent when the factor is a pure power of (s - t), else None."""
        if self.name == "const":
            return 0.0
        if self.name == "pow":
            return self.param
        if self.name == "sqrt_shift":
            return 0.5
        return None

    def scale(self) -> float:
        return self.param if self.name == "const" else 1.0

    def __call__(self, x, start: float):
        x = np.asarray(x, dtype=float)
        if self.name == "const":
            return np.full_like(x, self.param)
        if self.name == "pow":
            return (x - start) ** self.param
        if self.name == "sqrt_shift":
            return np.sqrt(np.maximum(x - start, 0.0))
        return np.exp(self.param * (x - start))


@dataclass(frozen=True)
class Kernel:
    """Multiplicity-k simplex kernel built from whitelisted factors."""

    factors: tuple[Factor, ...]
    interval: Interval

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a kernel needs at least one factor")

    @property
    def multiplicity(self) -> int:
        return len(self.factors)

    def factor_values(self, level: int, x) -> np.ndarray:
        return self.factors[level](x, self.interval.start)

    def eval(self, *points: float) -> float:
        """K at one point of the hypercube; zero off the open simplex (ties -> 0)."""
        if len(points) != self.multiplicity:
            raise ValueError("point dimension does not match kernel multiplicity")
        for a, b in zip(points[:-1], points[1:]):
            if not a < b:
                return 0.0
        return float(np.prod([f(p, self.interval.start) for f, p in zip(self.factors, points)]))


def unit_kernel(multiplicity: int, interval: Interval) -> Kernel:
    """Kernel with psi_l == 1, the workhorse of the closed-form examples."""
    return Kernel(tuple(Factor("const", 1.0) for _ in range(multiplicity)), interval)


@dataclass
class CoeffTensor:
    """Dense Fourier coefficient tensor over a truncation box.

    values[j_1, ..., j_k] is the coefficient with inner index j_1 first.
    """

    kernel: Kernel
    system: OrthonormalSystem
    weighted: bool
    box: tuple[int, ...]
    values: np.ndarray
    quad_error: float
    quad_info: dict

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coefficient tensor contains non-finite entries")

    def partial_sum(self, box: tuple[int, ...] | None = None) -> float:
        """Sum of squared coefficients over a sub-box (default: the full box)."""
        if box is None:
            box = self.box
        sl = tuple(slice(0, p + 1) for p in box)
        return float(np.sum(self.values[sl] ** 2))


def _check_box(box) -> tuple[int, ...]:
    box = tuple(int(p) for p in box)
    if any(p < 0 for p in box):
        raise ValueError("truncation orders must be nonnegative")
    entries = math.prod(p + 1 for p in box)
    if entries > MEMORY_BUDGET:
        raise SizeError(f"tensor would hold {entries} entries, over the budget {MEMORY_BUDGET}")
    return box


def _level_factor(kernel: Kernel, system: OrthonormalSystem, level: int, j: int, weighted: bool):
    """Integrand of one nesting level for a single basis index, as a plain callable."""

    def f(x):
        v = kernel.factor_values(level, x) * system.eval(j, x)
        if weighted:
            v = v * system.weight(x)
        return v

    return f


def _tensor_on_grid(kernel: Kernel, system: OrthonormalSystem, box, weighted: bool,
                    grid: PanelGrid) -> np.ndarray:
    x = grid.nodes.ravel()
    # the basis table bounds the last level's table too, which holds its first rows
    entries = (max(box) + 1) * x.size
    if entries > MEMORY_BUDGET:
        raise SizeError(f"the basis table would hold {entries} node values, "
                        f"over the budget {MEMORY_BUDGET}")
    phi = system.eval_table(max(box), x)
    if weighted:
        phi = phi * system.weight(x)
    # prim[J, :] is the level primitive for index prefix J on the nodes
    prim = np.ones((1, x.size))
    for level, p in enumerate(box[:-1]):
        entries = prim.shape[0] * (p + 1) * x.size
        if entries > MEMORY_BUDGET:
            raise SizeError(f"level {level} of the tensor would hold {entries} node values, "
                            f"over the budget {MEMORY_BUDGET}")
        table = kernel.factor_values(level, x) * phi[:p + 1]
        integrand = (prim[:, None, :] * table[None]).reshape((-1,) + grid.nodes.shape)
        prim = grid.primitive_node_values(integrand).reshape(-1, x.size)
    top = kernel.factor_values(len(box) - 1, x) * phi[:box[-1] + 1] * grid.weights.ravel()
    return (prim @ top.T).reshape(tuple(p + 1 for p in box))


def coeff_tensor(kernel: Kernel, system: OrthonormalSystem, box,
                 weighted: bool = False) -> CoeffTensor:
    """Dense tensor of Fourier coefficients over the truncation box."""
    box = _check_box(box)
    if len(box) != kernel.multiplicity:
        raise ValueError("box length must equal kernel multiplicity")
    if weighted and not system.weighted:
        raise ValueError("weighted coefficients require a weighted system")
    if system.interval != kernel.interval:
        raise ValueError("system and kernel intervals differ")
    brk = system.breakpoints(max(box))
    values, err, grid = quadrature.adaptive(
        lambda g: _tensor_on_grid(kernel, system, box, weighted, g),
        kernel.interval.start, kernel.interval.end, brk)
    info = {"order": grid.order, "panels": grid.n_panels, "estimated_error": err}
    return CoeffTensor(kernel, system, weighted, box, values, err, info)


def coeff(kernel: Kernel, system: OrthonormalSystem, idx, weighted: bool = False) -> float:
    """Single Fourier coefficient C_{j_k ... j_1} for idx = (j_1, ..., j_k)."""
    idx = tuple(int(j) for j in idx)
    if len(idx) != kernel.multiplicity:
        raise ValueError("index length must equal kernel multiplicity")
    if weighted and not system.weighted:
        raise ValueError("weighted coefficients require a weighted system")
    factors = []
    for level, j in enumerate(idx):
        factors.append(_level_factor(kernel, system, level, j, weighted))
    value, _ = quadrature.nested_simplex_integral(
        factors, kernel.interval.start, kernel.interval.end,
        system.breakpoints(max(idx)))
    return value


def kernel_norm_sq(kernel: Kernel, weighted_system: OrthonormalSystem | None = None) -> float:
    """Squared L2 norm of K over the hypercube, optionally with weight prod r(t_l).

    Pure-power factor products (with the weight x of the Bessel system) have
    the closed form span^(sum b + k) / prod_l (l + sum_{q<=l} b_q); anything
    else falls back to iterated quadrature of prod psi_l^2 r.
    """
    # first, so that a scale beyond the float range raises OverflowError for every kernel
    scale = math.prod(f.scale() ** 2 for f in kernel.factors)
    if weighted_system is not None and not weighted_system.weighted:
        raise ValueError("weighted norm requires a weighted system")
    if all(f.power() is not None for f in kernel.factors):
        span = kernel.interval.length
        # b holds the psi_l^2 exponent plus 1 for the weight x when present
        b = []
        for f in kernel.factors:
            e = 2 * f.power()
            if weighted_system is not None:
                e += 1
            b.append(e)
        denom = 1.0
        acc = 0.0
        for l, e in enumerate(b, start=1):
            acc += e
            denom *= acc + l
        return scale * span ** (sum(b) + kernel.multiplicity) / denom
    factors = []
    for level in range(kernel.multiplicity):
        def f(x, level=level):
            v = kernel.factor_values(level, x) ** 2
            if weighted_system is not None:
                v = v * weighted_system.weight(x)
            return v
        factors.append(f)
    value, _ = quadrature.nested_simplex_integral(
        factors, kernel.interval.start, kernel.interval.end)
    return value


# ----------------------------------------------------------------------------
# export / import

def _kernel_meta(kernel: Kernel) -> dict:
    return {
        "interval": [kernel.interval.start, kernel.interval.end],
        "factors": [{"name": f.name, "param": f.param} for f in kernel.factors],
    }


def _kernel_from_meta(meta: dict) -> Kernel:
    interval = Interval(*meta["interval"])
    factors = tuple(Factor(d["name"], d.get("param", 1.0)) for d in meta["factors"])
    return Kernel(factors, interval)


def _system_meta(system: OrthonormalSystem) -> dict:
    return {
        "kind": system.kind,
        "interval": [system.interval.start, system.interval.end],
        "bessel_order": system.bessel_order,
        "max_walsh_bits": system.max_walsh_bits,
    }


def _system_from_meta(meta: dict) -> OrthonormalSystem:
    return OrthonormalSystem(meta["kind"], Interval(*meta["interval"]),
                             bessel_order=meta.get("bessel_order", 0),
                             max_walsh_bits=meta.get("max_walsh_bits", 10))


def tensor_to_csv(tensor: CoeffTensor, path) -> None:
    """CSV with header j_1,...,j_k,value; 17 significant digits, '.' decimal."""
    k = len(tensor.box)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"j_{l}" for l in range(1, k + 1)] + ["value"])
        for idx in np.ndindex(*(p + 1 for p in tensor.box)):
            writer.writerow([*idx, format(tensor.values[idx], ".17g")])


def tensor_from_csv(path) -> tuple[tuple[int, ...], np.ndarray]:
    """Read back a coefficient CSV; returns (box, values)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    k = len(header) - 1
    idxs = np.array([[int(v) for v in row[:k]] for row in rows])
    vals = np.array([float(row[k]) for row in rows])
    box = tuple(int(m) for m in idxs.max(axis=0))
    values = np.zeros(tuple(p + 1 for p in box))
    values[tuple(idxs.T)] = vals
    return box, values


def tensor_to_json(tensor: CoeffTensor, path) -> None:
    doc = {
        "kernel": _kernel_meta(tensor.kernel),
        "system": _system_meta(tensor.system),
        "weighted": tensor.weighted,
        "box": list(tensor.box),
        "quadrature": tensor.quad_info,
        "values": tensor.values.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def tensor_from_json(path) -> CoeffTensor:
    with open(path) as fh:
        doc = json.load(fh)
    box = tuple(doc["box"])
    values = np.asarray(doc["values"]).reshape(tuple(p + 1 for p in box))
    return CoeffTensor(_kernel_from_meta(doc["kernel"]), _system_from_meta(doc["system"]),
                       doc["weighted"], box, values,
                       doc["quadrature"].get("estimated_error", float("nan")),
                       doc["quadrature"])
