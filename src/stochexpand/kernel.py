"""Simplex kernels and their multiple Fourier coefficient tensors.

The kernel of multiplicity k is K(t_1, ..., t_k) = prod psi_l(t_l) on the
simplex t_1 < ... < t_k and zero elsewhere (ties included).  Coefficients
are iterated integrals over one shared panel grid.  The tensor is built
level by level on the grid nodes: level l multiplies the running
primitives of all index prefixes (prod_{q<l} (p_q + 1) rows) by the table of
factor x basis x weight values for its p_l + 1 indices, and levels up to
k - 3 integrate every row at once with the spectral integration matrix of
quadrature.PanelGrid (Greengard, SIAM J. Numer. Anal. 28, 1991).  The
outermost two integrals swap (Fubini): the last level's weighted table
takes the transposed primitive on its own p_k + 1 rows, and one matrix
product with the integrand of level k - 2 gives the tensor.  A dense tensor
costs O(prod p_l * nodes) work and never leaves the grid nodes.

A tensor is exported as CSV and JSON by tensor_to_files, which converts each
coefficient to decimal once, block by block, for both files; tensor_from_csv
and tensor_from_json read them back bitwise.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .basis import MEMORY_BUDGET, WALSH_BITS, Interval, OrthonormalSystem, check_table
from .errors import ConfigError, SizeError, check_integer
from .quadrature import PanelGrid

__all__ = [
    "Factor",
    "Kernel",
    "unit_kernel",
    "CoeffTensor",
    "coeff",
    "coeff_tensor",
    "kernel_norm_sq",
    "tensor_to_files",
    "tensor_to_csv",
    "tensor_from_csv",
    "tensor_to_json",
    "tensor_from_json",
]

_FACTOR_NAMES = ("const", "pow", "sqrt_shift", "exp")
EXPORT_BLOCK = 2**10  # tensor entries that an export converts to decimal at a time


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


def check_orders(kernel: Kernel, system: OrthonormalSystem, orders) -> tuple[int, ...]:
    """orders as ints, the rules of every coefficient box and index: ConfigError
    unless orders is a list or tuple of one integer >= 0 (not a bool) per
    kernel factor, the system shares the kernel's interval, and the system
    has members of those orders (below its member bound, if any)."""
    if not isinstance(orders, (list, tuple)) or len(orders) != kernel.multiplicity:
        raise ConfigError(f"a box must list one order per kernel factor, got {orders!r}")
    orders = tuple(check_integer("box order", p, 0) for p in orders)
    if system.interval != kernel.interval:
        raise ConfigError(f"the system lives on {system.interval}, the kernel on {kernel.interval}")
    if system.members is not None and max(orders) >= system.members:
        raise ConfigError(f"{system.kind.capitalize()} box orders must be below "
                          f"{system.members}, its member count, got {max(orders)}")
    return orders


def check_box(kernel: Kernel, system: OrthonormalSystem, box) -> tuple[int, ...]:
    """The pre-flight of a tensor over box, before anything is built:
    check_orders, then SizeError when the tensor or the basis table of the
    first quadrature grid would hold more than MEMORY_BUDGET entries."""
    box = check_orders(kernel, system, box)
    entries = math.prod(p + 1 for p in box)
    if entries > MEMORY_BUDGET:
        raise SizeError(f"tensor would hold {entries} entries, over the budget {MEMORY_BUDGET}")
    check_table(max(box) + 1, system.first_grid_nodes(max(box)))
    return box


def _level_factor(kernel: Kernel, system: OrthonormalSystem, level: int, j: int):
    """Integrand of one nesting level for a single basis index, as a plain callable."""

    def f(x):
        v = kernel.factor_values(level, x) * system.eval(j, x)
        if system.weighted:
            v = v * system.weight(x)
        return v

    return f


def _tensor_on_grid(kernel: Kernel, system: OrthonormalSystem, box,
                    grid: PanelGrid) -> np.ndarray:
    x = grid.nodes.ravel()
    # the basis table bounds the last level's table too, which holds its first rows
    check_table(max(box) + 1, x.size)
    phi = system.eval_table(max(box), x)
    if system.weighted:
        phi = phi * system.weight(x)
    # rows[J, :] holds, on the nodes, the running primitive of index prefix J at the
    # start of a level and that level's integrand after it; the last level enters
    # through the adjoint primitive instead, so the integrand of level k - 2 takes none
    rows = None  # level 0's integrand is its table
    for level, p in enumerate(box[:-1]):
        entries = (rows.shape[0] if level else 1) * (p + 1) * x.size
        if entries > MEMORY_BUDGET:
            raise SizeError(f"level {level} of the tensor would hold {entries} node values, "
                            f"over the budget {MEMORY_BUDGET}")
        table = kernel.factor_values(level, x) * phi[:p + 1]
        if level:
            rows = grid.primitive_node_values(rows.reshape((-1,) + grid.nodes.shape))
            table = (rows.reshape(-1, 1, x.size) * table[None]).reshape(-1, x.size)
        rows = table
    top = kernel.factor_values(len(box) - 1, x) * phi[:box[-1] + 1]
    top *= grid.weights.ravel()
    if len(box) == 1:
        rows = np.ones((1, x.size))  # the one level's integral: a sum over the nodes
    else:
        top = grid.adjoint_primitive_node_values(top.reshape((-1,) + grid.nodes.shape))
    return (rows @ top.reshape(-1, x.size).T).reshape(tuple(p + 1 for p in box))


def coeff_tensor(kernel: Kernel, system: OrthonormalSystem, box) -> CoeffTensor:
    """Dense tensor of Fourier coefficients over the truncation box, in the system's
    inner product: each level carries the weight r of a weighted system; check_box runs first."""
    box = check_box(kernel, system, box)
    brk = system.breakpoints(max(box))
    values, err, grid = quadrature.adaptive(
        lambda g: _tensor_on_grid(kernel, system, box, g),
        kernel.interval.start, kernel.interval.end, brk)
    info = {"order": grid.order, "panels": grid.n_panels, "estimated_error": err}
    return CoeffTensor(kernel, system, box, values, err, info)


def coeff(kernel: Kernel, system: OrthonormalSystem, idx) -> float:
    """Single Fourier coefficient C_{j_k ... j_1} for idx = (j_1, ..., j_k).

    check_orders runs first; SizeError, before the breakpoints are built, when
    one basis row on the first quadrature grid would exceed MEMORY_BUDGET."""
    idx = check_orders(kernel, system, idx)
    check_table(1, system.first_grid_nodes(max(idx)))
    factors = []
    for level, j in enumerate(idx):
        factors.append(_level_factor(kernel, system, level, j))
    value, _ = quadrature.nested_simplex_integral(
        factors, kernel.interval.start, kernel.interval.end,
        system.breakpoints(max(idx)))
    return value


def kernel_norm_sq(kernel: Kernel, system: OrthonormalSystem | None = None) -> float:
    """Squared L2 norm of K over the hypercube, with weight prod r(t_l) when
    `system` is weighted (as coeff_tensor's coefficients carry it).

    Pure-power factor products (with the weight x of the Bessel system) have
    the closed form span^(sum b + k) / prod_l (l + sum_{q<=l} b_q); anything
    else falls back to iterated quadrature of prod psi_l^2 r.
    """
    # first, so that a scale beyond the float range raises OverflowError for every kernel
    scale = math.prod(f.scale() ** 2 for f in kernel.factors)
    weighted = system is not None and system.weighted
    if all(f.power() is not None for f in kernel.factors):
        span = kernel.interval.length
        # b holds the psi_l^2 exponent plus 1 for the weight x when present
        b = [2 * f.power() + (1 if weighted else 0) for f in kernel.factors]
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
            if weighted:
                v = v * system.weight(x)
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
        "max_walsh_bits": WALSH_BITS,
    }


def _system_from_meta(meta: dict) -> OrthonormalSystem:
    return OrthonormalSystem(meta["kind"], Interval(*meta["interval"]),
                             bessel_order=meta.get("bessel_order", 0))


def tensor_to_files(tensor: CoeffTensor, csv_path=None, json_path=None) -> None:
    """Write tensor_to_csv's file at csv_path and tensor_to_json's at json_path
    (None writes no such file) in one pass over the values.

    Each block of EXPORT_BLOCK values is converted to decimal once, by
    json.dumps (Python's shortest round-trip repr of each float); that text
    goes into the JSON and, split on ", ", is the CSV's value column, so both
    files hold every value as the same characters and no whole-file string
    is held."""
    doc = {
        "kernel": _kernel_meta(tensor.kernel),
        "system": _system_meta(tensor.system),
        "weighted": tensor.system.weighted,
        "box": list(tensor.box),
        "quadrature": tensor.quad_info,
        "values": [],
    }
    head, tail = json.dumps(doc).rsplit("[]", 1)  # "values" is the last key
    flat = tensor.values.ravel()  # C order, the order of itertools.product over the indices
    prefixes = map("".join, itertools.product(*([f"{j}," for j in range(p + 1)]
                                                 for p in tensor.box)))
    with contextlib.ExitStack() as stack:
        csv_fh = csv_path is not None and stack.enter_context(open(csv_path, "w", newline=""))
        json_fh = json_path is not None and stack.enter_context(open(json_path, "w"))
        if csv_fh:
            names = [f"j_{l}" for l in range(1, len(tensor.box) + 1)]
            csv_fh.write(",".join(names + ["value"]) + "\r\n")
        if json_fh:
            json_fh.write(head + "[")
        for i in range(0, flat.size, EXPORT_BLOCK):
            text = json.dumps(flat[i:i + EXPORT_BLOCK].tolist())[1:-1]
            if json_fh:
                json_fh.write(", " + text if i else text)
            if csv_fh:
                values = text.split(", ")
                rows = map(operator.add, itertools.islice(prefixes, len(values)), values)
                csv_fh.write("\r\n".join(rows) + "\r\n")
        if json_fh:
            json_fh.write("]" + tail)


def tensor_to_csv(tensor: CoeffTensor, path) -> None:
    """CSV with header j_1,...,j_k,value, one row per entry in C order, each
    value as the JSON writes it (repr: shortest round trip, NaN and
    +-Infinity for non-finite values), CRLF line ends (the csv module's
    default dialect); tensor_to_files with this one file."""
    tensor_to_files(tensor, csv_path=path)


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
    """One line, json.dumps(doc) byte for byte, with doc's keys kernel, system,
    weighted, box, quadrature and values (C order); tensor_to_files with this
    one file."""
    tensor_to_files(tensor, json_path=path)


def tensor_from_json(path) -> CoeffTensor:
    """Read back a coefficient JSON; ValueError when its "weighted" flag disagrees
    with its system, whose coefficients coeff_tensor takes in the other convention."""
    with open(path) as fh:
        doc = json.load(fh)
    system = _system_from_meta(doc["system"])
    if doc["weighted"] != system.weighted:
        raise ValueError(f"\"weighted\": {json.dumps(doc['weighted'])} disagrees with "
                         f"the {system.kind} system")
    box = tuple(doc["box"])
    values = np.asarray(doc["values"]).reshape(tuple(p + 1 for p in box))
    return CoeffTensor(_kernel_from_meta(doc["kernel"]), system, box, values,
                       doc["quadrature"].get("estimated_error", float("nan")),
                       doc["quadrature"])
