"""Orthonormal function systems on an interval [t, T].

Implemented systems: Legendre polynomials, trigonometric functions, Haar
functions, Rademacher-Walsh functions (all with unit weight), the Bessel
system orthonormal with weight x on [0, T], and its sqrt(x)-scaled variant
which is orthonormal with unit weight.  All members with finite index are
right-continuous with finitely many finite jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import quadrature
from .errors import StochexpandError

__all__ = [
    "Interval",
    "OrthonormalSystem",
    "BesselRootTable",
    "bessel_roots",
    "legendre",
    "trigonometric",
    "haar",
    "walsh",
    "bessel_weighted",
    "bessel_unit",
    "gram_matrix",
    "haar_index",
]

ROOT_TOL = 1e-13


@dataclass(frozen=True)
class Interval:
    start: float
    end: float

    def __post_init__(self):
        if not (np.isfinite(self.start) and np.isfinite(self.end)):
            raise ValueError("interval endpoints must be finite")
        if not self.start < self.end:
            raise ValueError(f"interval start must be below end, got [{self.start}, {self.end}]")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class BesselRootTable:
    """First positive zeros of J_order, ascending."""

    order: int
    roots: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.roots) <= 0):
            raise StochexpandError("Bessel roots are not strictly increasing")


def bessel_roots(order: int, count: int) -> BesselRootTable:
    """First `count` positive zeros of J_order, bracketed by McMahon asymptotics
    and polished with Brent's method on the direct evaluation."""
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy import optimize  # only the root search needs it; it costs ~0.3 s to import
    roots = []
    for j in range(1, count + 1):
        beta = (j + order / 2.0 - 0.25) * math.pi
        guess = beta - (4.0 * order**2 - 1.0) / (8.0 * beta)
        lo, hi = guess - 0.5, guess + 0.5
        flo, fhi = special.jv(order, lo), special.jv(order, hi)
        if flo * fhi > 0:  # widen once; McMahon is tight for all n, j used here
            lo, hi = guess - 1.5, guess + 1.5
            flo, fhi = special.jv(order, lo), special.jv(order, hi)
            if flo * fhi > 0:
                raise StochexpandError(
                    f"failed to bracket zero {j} of J_{order} near {guess:.6f}"
                )
        root = optimize.brentq(lambda x: special.jv(order, x), lo, hi, xtol=1e-14, rtol=1e-15)
        if abs(special.jv(order, root)) > ROOT_TOL * max(1.0, root):
            raise StochexpandError(f"zero {j} of J_{order} not polished: {root}")
        roots.append(root)
    return BesselRootTable(order, np.asarray(roots))


def haar_index(j: int) -> tuple[int, int]:
    """Linear index j >= 1 to the dyadic pair (n, k), n = floor(log2 j), k = j - 2^n + 1."""
    if j < 1:
        raise ValueError("haar_index expects j >= 1")
    n = int(math.floor(math.log2(j)))
    return n, j - 2**n + 1


@dataclass(frozen=True)
class OrthonormalSystem:
    """A concrete orthonormal (possibly weighted) system on an interval.

    kind is one of "legendre", "trigonometric", "haar", "walsh",
    "bessel_weighted" (weight x, interval must start at 0) or "bessel_unit"
    (the sqrt(x)-scaled Bessel system, unit weight).
    """

    kind: str
    interval: Interval
    bessel_order: int = 0
    max_walsh_bits: int = 10
    _roots: BesselRootTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("legendre", "trigonometric", "haar", "walsh",
                             "bessel_weighted", "bessel_unit"):
            raise ValueError(f"unknown system kind: {self.kind}")
        if self.kind.startswith("bessel"):
            if self.interval.start != 0.0:
                raise ValueError("Bessel systems require the interval to start at 0")
            if self.bessel_order < 0:
                raise ValueError("Bessel order must be nonnegative")

    @property
    def weighted(self) -> bool:
        return self.kind == "bessel_weighted"

    def weight(self, x):
        x = np.asarray(x, dtype=float)
        if self.weighted:
            return x
        return np.ones_like(x)

    def _root_table(self, j_max: int) -> np.ndarray:
        table = self._roots
        if table is None or len(table.roots) <= j_max:
            table = bessel_roots(self.bessel_order, j_max + 1)
            object.__setattr__(self, "_roots", table)
        return table.roots

    def eval(self, j: int, x) -> np.ndarray:
        """phi_j(x) (or Psi_j for the weighted Bessel system), vectorized in x."""
        if j < 0:
            raise IndexError("basis index must be nonnegative")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        t0, t1 = self.interval.start, self.interval.end
        span = self.interval.length
        if self.kind == "legendre":
            u = (x - (t1 + t0) / 2.0) * 2.0 / span
            out = math.sqrt((2 * j + 1) / span) * special.eval_legendre(j, u)
        elif self.kind == "trigonometric":
            u = (x - t0) / span
            if j == 0:
                out = np.full_like(x, 1.0 / math.sqrt(span))
            elif j % 2 == 1:
                r = (j + 1) // 2
                out = math.sqrt(2.0 / span) * np.sin(2.0 * math.pi * r * u)
            else:
                r = j // 2
                out = math.sqrt(2.0 / span) * np.cos(2.0 * math.pi * r * u)
        elif self.kind == "haar":
            if j == 0:
                out = np.full_like(x, 1.0 / math.sqrt(span))
            else:
                n, k = haar_index(j)
                u = (x - t0) / span
                left = (k - 1) / 2.0**n
                mid = left + 1.0 / 2.0 ** (n + 1)
                right = k / 2.0**n
                amp = 2.0 ** (n / 2.0) / math.sqrt(span)
                out = np.where((u >= left) & (u < mid), amp,
                               np.where((u >= mid) & (u < right), -amp, 0.0))
        elif self.kind == "walsh":
            if j == 0:
                out = np.full_like(x, 1.0 / math.sqrt(span))
            else:
                if j >= 2**self.max_walsh_bits:
                    raise IndexError(
                        f"Walsh index {j} exceeds configured max order "
                        f"({self.max_walsh_bits} bits)"
                    )
                u = (x - t0) / span
                out = np.full_like(x, 1.0 / math.sqrt(span))
                for bit in range(self.max_walsh_bits):
                    if j >> bit & 1:
                        m = bit + 1
                        out = out * (-1.0) ** np.floor(2.0**m * u)
        else:  # bessel_weighted / bessel_unit
            mu = self._root_table(j)[j]
            n = self.bessel_order
            out = (math.sqrt(2.0) / (t1 * special.jv(n + 1, mu))) * special.jv(n, mu * x / t1)
            if self.kind == "bessel_unit":
                out = np.sqrt(np.maximum(x, 0.0)) * out
            # weighted system returns Psi_j itself; the weight x lives in the inner product
        return out[0] if scalar else out

    def eval_table(self, j_max: int, x) -> np.ndarray:
        """Stacked values, shape (j_max + 1, len(x))."""
        return np.stack([self.eval(j, x) for j in range(j_max + 1)])

    def breakpoints(self, j_max: int):
        """Jump locations of members with index <= j_max (empty for smooth systems)."""
        t0, span = self.interval.start, self.interval.length
        if self.kind == "haar":
            if j_max < 1:
                return ()
            n_max = haar_index(j_max)[0]
            grid = np.arange(1, 2 ** (n_max + 1)) / 2.0 ** (n_max + 1)
            return tuple(t0 + span * grid)
        if self.kind == "walsh":
            if j_max < 1:
                return ()
            m_max = j_max.bit_length()
            grid = np.arange(1, 2**m_max) / 2.0**m_max
            return tuple(t0 + span * grid)
        return ()


def legendre(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("legendre", interval)


def trigonometric(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("trigonometric", interval)


def haar(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("haar", interval)


def walsh(interval: Interval, max_bits: int = 10) -> OrthonormalSystem:
    return OrthonormalSystem("walsh", interval, max_walsh_bits=max_bits)


def bessel_weighted(end: float, order: int = 0) -> OrthonormalSystem:
    """Bessel system orthonormal with weight x on [0, end]."""
    return OrthonormalSystem("bessel_weighted", Interval(0.0, end), bessel_order=order)


def bessel_unit(end: float, order: int = 0) -> OrthonormalSystem:
    """sqrt(x)-scaled Bessel system, orthonormal with unit weight on [0, end]."""
    return OrthonormalSystem("bessel_unit", Interval(0.0, end), bessel_order=order)


def gram_matrix(system: OrthonormalSystem, count: int,
                spec: quadrature.QuadratureSpec = quadrature.DEFAULT_SPEC) -> np.ndarray:
    """Matrix of inner products int phi_i phi_j weight dx over the interval."""
    if count < 1:
        raise ValueError("count must be >= 1")
    a, b = system.interval.start, system.interval.end
    brk = system.breakpoints(count - 1)

    def value_on(grid):
        x = grid.nodes.ravel()
        vals = system.eval_table(count - 1, x) * np.sqrt(system.weight(x))[None, :]
        w = grid.weights.ravel()
        return (vals * w[None, :]) @ vals.T

    gram, _, _ = quadrature.adaptive(value_on, a, b, brk, spec)
    return gram
