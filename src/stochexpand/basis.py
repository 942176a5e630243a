"""Orthonormal function systems on an interval [t, T].

Implemented systems: Legendre polynomials, trigonometric functions, Haar
functions, Rademacher-Walsh functions (all with unit weight), the Bessel
system orthonormal with weight x on [0, T], and its sqrt(x)-scaled variant
which is orthonormal with unit weight.  All members with finite index are
right-continuous with finitely many finite jumps.

Every system has one evaluator, OrthonormalSystem._rows, which fills a
range of degrees at once: eval_table is the range 0..j_max and eval(j, x)
its one-row case.  Legendre rows come from Bonnet's three-term recurrence
(DLMF 18.9.1) in float64, not from a closed form; for degrees up to 63 on
[-1, 1] they agree with 40-digit values to 3e-14 in P_n.  The other systems
broadcast their closed form over the degree axis.  scipy is imported only
by the Bessel systems, which need J_n and its zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import SizeError, StochexpandError

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
    "GRAM_TOLERANCES",
]

ROOT_TOL = 1e-13
MAX_BESSEL_ORDER = 2**52  # bessel_roots steps x by 1.0 from x = order, exact below 2^53
MEMORY_BUDGET = 10**7  # entries of one basis table, Gram matrix or coefficient tensor
WALSH_BITS = 10  # a Walsh system has the 2^WALSH_BITS members of indices below it
# bound on max |Gram - I| (gram_matrix) for each system kind;
# OrthonormalSystem accepts exactly these kinds
GRAM_TOLERANCES = {"legendre": 1e-12, "trigonometric": 1e-12, "haar": 1e-13, "walsh": 1e-13,
                   "bessel_weighted": 1e-8, "bessel_unit": 1e-8}


@dataclass(frozen=True)
class Interval:
    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "end", float(self.end))
        if not np.isfinite(self.end - self.start):
            raise ValueError("interval endpoints and length must be finite")
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
    """First `count` positive zeros of J_order, polished with Brent's method.

    The j-th zero is located by scanning J_order for sign changes on a step
    of 1 from x = order: j_{n,1} > n and consecutive zeros are more than 3
    apart, so each step holds at most one zero."""
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy import optimize, special  # ~0.3 s to import; only Bessel systems need them

    def f(x):
        return special.jv(order, x)

    roots = []
    lo, flo = float(order), f(order)
    while len(roots) < count:
        hi, fhi = lo + 1.0, f(lo + 1.0)
        if flo * fhi < 0 or fhi == 0:
            root = optimize.brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)
            if abs(f(root)) > ROOT_TOL * max(1.0, root):
                raise StochexpandError(f"zero {len(roots) + 1} of J_{order} not polished: {root}")
            roots.append(root)
        lo, flo = hi, fhi
    return BesselRootTable(order, np.asarray(roots))


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
    _roots: BesselRootTable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in GRAM_TOLERANCES:
            raise ValueError(f"unknown system kind: {self.kind}")
        if self.kind.startswith("bessel") and self.interval.start != 0.0:
            raise ValueError("Bessel systems require the interval to start at 0")
        if not 0 <= self.bessel_order <= MAX_BESSEL_ORDER:
            raise ValueError(f"bessel_order must lie in 0..2^52, got {self.bessel_order}")

    @property
    def weighted(self) -> bool:
        return self.kind == "bessel_weighted"

    @property
    def members(self) -> int | None:
        """How many members the system has, of indices below it; None if unbounded."""
        return 2**WALSH_BITS if self.kind == "walsh" else None

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
        """phi_j(x) (or Psi_j for the weighted Bessel system), vectorized in x:
        row j of eval_table, bitwise."""
        if j < 0:
            raise IndexError("basis index must be nonnegative")
        x = np.asarray(x, dtype=float)
        out = self._rows(j, j, np.atleast_1d(x))[0]
        return out[0] if x.ndim == 0 else out

    def eval_table(self, j_max: int, x) -> np.ndarray:
        """Stacked values phi_0..phi_{j_max} at x, shape (j_max + 1, *x.shape)."""
        return self._rows(0, j_max, np.asarray(x, dtype=float))

    def _rows(self, j_lo: int, j_hi: int, x: np.ndarray) -> np.ndarray:
        """phi_j(x) for the degrees j_lo..j_hi, shape (j_hi - j_lo + 1, *x.shape);
        the one evaluator of every system.

        Legendre: Bonnet's recurrence P_{n+1} = u P_n + n/(n+1) (u P_n - P_{n-1})
        in place on u, two rolling rows and one scratch row; only the requested
        degrees are stored, so memory is O((j_hi - j_lo + 5) len(x)) for any
        degree.  Every degree runs the same operations whatever j_lo is, so
        eval(j, x) is bitwise row j of eval_table.  Against 40-digit values,
        |P_n error| <= 3e-14 for n <= 63 (tests/test_basis.py).  The other
        systems broadcast their closed form over the degree axis, so each
        element is the scalar formula of its degree whatever the range."""
        if self.members is not None and j_hi >= self.members:
            raise IndexError(f"{self.kind} index {j_hi} is beyond the {self.members} members")
        t0, t1 = self.interval.start, self.interval.end
        span = self.interval.length
        if self.kind == "legendre":
            u = (x - (t1 + t0) / 2.0) * 2.0 / span
            out = np.empty((j_hi - j_lo + 1,) + x.shape)
            prev, cur, scratch = np.zeros_like(u), np.ones_like(u), np.empty_like(u)
            for n in range(j_hi + 1):
                if n:  # cur = P_{n-1}, prev = P_{n-2}  ->  cur = P_n, prev = P_{n-1}
                    np.multiply(u, cur, out=scratch)
                    np.subtract(scratch, prev, out=prev)
                    np.multiply(prev, (n - 1) / n, out=prev)
                    np.add(scratch, prev, out=prev)
                    prev, cur = cur, prev
                if n >= j_lo:
                    np.multiply(cur, math.sqrt((2 * n + 1) / span), out=out[n - j_lo, ...])
            return out
        js = np.arange(j_lo, j_hi + 1)
        col = js.reshape((-1,) + (1,) * x.ndim)
        if self.kind.startswith("bessel"):
            from scipy import special
            mu = self._root_table(j_hi)[j_lo:j_hi + 1].reshape(col.shape)
            n = self.bessel_order
            out = (math.sqrt(2.0) / (t1 * special.jv(n + 1, mu))) * special.jv(n, mu * x / t1)
            # the weighted system returns Psi_j itself; the weight x lives in the inner product
            return np.sqrt(np.maximum(x, 0.0)) * out if self.kind == "bessel_unit" else out
        u = (x - t0) / span
        if self.kind == "trigonometric":
            arg = 2.0 * math.pi * ((col + 1) // 2) * u
            odd = js % 2 == 1
            out = np.empty(arg.shape)
            out[odd] = np.sin(arg[odd])
            out[~odd] = np.cos(arg[~odd])
            out *= math.sqrt(2.0 / span)
        elif self.kind == "haar":
            # level n holds j = 2^n .. 2^(n+1) - 1.  u lies in its half-interval
            # h = floor(2^(n+1) u), exactly (a power-of-2 scaling), where member
            # j = 2^n + h // 2 is +amp for even h (u in [left, mid)) and -amp for
            # odd h (u in [mid, right)); every other member of the level is 0
            out = np.zeros((len(js), u.size))
            for n in range(int(max(j_lo, 1)).bit_length() - 1, int(j_hi).bit_length()):
                lo, hi = max(j_lo, 2**n) - 2**n, min(j_hi + 1, 2 ** (n + 1)) - 2**n
                h = np.floor(2.0 ** (n + 1) * u.ravel())
                at = np.flatnonzero((h >= 2 * lo) & (h < 2 * hi))  # members in j_lo..j_hi
                h = h[at].astype(np.int64)
                amp = 2.0 ** (n / 2.0) / math.sqrt(span)
                out[2**n + (h >> 1) - j_lo, at] = np.where(h & 1, -amp, amp)
            out = out.reshape((len(js),) + x.shape)
        else:  # walsh: the product of the Rademacher functions r_{bit+1} over j's set bits
            out = np.full((len(js),) + x.shape, 1.0 / math.sqrt(span))
            for bit in range(int(j_hi).bit_length()):
                np.multiply(out, (-1.0) ** np.floor(2.0 ** (bit + 1) * u), out=out,
                            where=(col >> bit & 1) == 1)
        out[js == 0] = 1.0 / math.sqrt(span)
        return out

    def breakpoints(self, j_max: int):
        """Jump locations of members with index <= j_max (empty for smooth systems)."""
        if self.kind not in ("haar", "walsh") or j_max < 1:
            return ()
        m = int(j_max).bit_length()  # members up to j_max jump on the dyadic grid of level m
        return tuple(self.interval.start + self.interval.length * (np.arange(1, 2**m) / 2.0**m))

    def first_grid_nodes(self, j_max: int) -> int:
        """Nodes of quadrature.adaptive's first grid over the members up to j_max,
        one panel per gap between the breakpoints, without building them."""
        gaps = 2 ** int(j_max).bit_length() if self.kind in ("haar", "walsh") else 1
        return max(quadrature.MIN_PANELS, gaps) * quadrature.ORDER


def legendre(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("legendre", interval)


def trigonometric(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("trigonometric", interval)


def haar(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("haar", interval)


def walsh(interval: Interval) -> OrthonormalSystem:
    return OrthonormalSystem("walsh", interval)


def bessel_weighted(end: float, order: int = 0) -> OrthonormalSystem:
    """Bessel system orthonormal with weight x on [0, end]."""
    return OrthonormalSystem("bessel_weighted", Interval(0.0, end), bessel_order=order)


def bessel_unit(end: float, order: int = 0) -> OrthonormalSystem:
    """sqrt(x)-scaled Bessel system, orthonormal with unit weight on [0, end]."""
    return OrthonormalSystem("bessel_unit", Interval(0.0, end), bessel_order=order)


def check_table(rows: int, nodes: int) -> None:
    """SizeError when a basis table of rows x nodes values would exceed MEMORY_BUDGET."""
    if rows * nodes > MEMORY_BUDGET:
        raise SizeError(f"the basis table would hold {rows * nodes} node values, "
                        f"over the budget {MEMORY_BUDGET}")


def gram_matrix(system: OrthonormalSystem, count: int, density=None) -> np.ndarray:
    """Matrix of inner products int phi_i phi_j density dx over the interval;
    density (a function of an array of points, >= 0) defaults to the system's
    weight, against which the system is orthonormal.

    Raises ValueError for a count the system does not have, and SizeError,
    before the breakpoints or a basis table are built, when the count x count
    matrix or the count x nodes table of a grid would exceed MEMORY_BUDGET."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if system.members is not None and count > system.members:
        raise ValueError(f"count must be at most {system.members}, the members "
                         f"of a {system.kind} system")
    if count * count > MEMORY_BUDGET:
        raise SizeError(f"the Gram matrix would hold {count * count} entries, "
                        f"over the budget {MEMORY_BUDGET}")
    a, b = system.interval.start, system.interval.end
    brk = system.breakpoints(count - 1)

    def value_on(grid):
        x = grid.nodes.ravel()
        check_table(count, x.size)
        dens = system.weight(x) if density is None else density(x)
        vals = system.eval_table(count - 1, x) * np.sqrt(dens)[None, :]
        w = grid.weights.ravel()
        return (vals * w[None, :]) @ vals.T

    gram, _, _ = quadrature.adaptive(value_on, a, b, brk)
    return gram
