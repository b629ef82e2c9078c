"""Radial quantization: certified roots of j_nu and of d/dx [x j_nu(x)].

TE resonances sit at zeros of j_nu (x_{nu,n}); TM resonances at zeros of the
Riccati derivative d/dx [x j_nu(x)] (x'_{nu,n}).  Both conditions are
specfun.spherical_j and specfun.riccati_deriv, called on arrays for the scan
(one nu per row where sweeps advance together, in rounds) and on floats for
Brent's method.  Frequencies follow from f = c * x / (2 pi a).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, RootSearchError
from .specfun import refined_root, riccati_deriv, spherical_j

__all__ = [
    "RootKind",
    "RadialRoot",
    "RadialSweep",
    "advance",
    "SPEED_OF_LIGHT",
    "j_zero",
    "riccati_deriv_zero",
    "mcmahon_seed",
    "AIRY_ZEROS",
    "AIRY_PRIME_ZEROS",
    "frequency_from_root",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact

_CBRT2 = 2.0 ** (1.0 / 3.0)
# magnitudes z_n of the first Airy zeros, Ai(-z_n) = 0, and z'_n of Ai'(-z'_n) = 0
AIRY_ZEROS = (2.33810741045977, 4.08794944413097, 5.52055982809555, 6.78670809007176, 7.94413358712085)
AIRY_PRIME_ZEROS = (1.01879297164747, 3.24819758217984, 4.82009921117874, 6.16330735563949, 7.37217725504777)


class RootKind(enum.Enum):
    TE_JZERO = "TE"
    TM_RICCATI_DERIV_ZERO = "TM"


@dataclass(frozen=True)
class RadialRoot:
    """A certified root of the radial boundary condition."""

    nu: float
    n: int
    kind: RootKind
    x: float
    residual: float


def mcmahon_seed(nu: float, n: int, kind: RootKind) -> float:
    """Airy-seeded large-order estimate of the n-th root.

    The zeros of j_nu coincide with those of the cylindrical J_{nu+1/2}, so
    the expansion parameter is mu = nu + 1/2:

        TE:  x ~ mu + c_n mu^(1/3) + (3 c_n^2 / 10) mu^(-1/3)
        TM:  x ~ mu + c'_n mu^(1/3) + (3 c'_n^2 / 10 + 3/(20 c'_n)) mu^(-1/3)

    with c_n = 2^(-1/3) z_n (z_n the n-th Airy zero) and c'_n = 2^(-1/3) z'_n
    (Airy-derivative zeros).  The extra 3/(20 c'_n) in the TM branch accounts
    for the j/(2x) shift between zeros of J' and zeros of [x j_nu]'.
    Good to well under 1% for nu >= 5, n = 1.
    """
    if nu < 0.5:
        raise DomainError("mcmahon_seed is calibrated for nu >= 0.5; use a scan below that")
    if n < 1:
        raise DomainError("n must be >= 1")
    mu = nu + 0.5
    mu13 = mu ** (1.0 / 3.0)
    if kind is RootKind.TE_JZERO:
        if n > len(AIRY_ZEROS):
            raise DomainError(f"no stored Airy zero for n={n}")
        c = AIRY_ZEROS[n - 1] / _CBRT2
        return mu + c * mu13 + 0.3 * c * c / mu13
    if n > len(AIRY_PRIME_ZEROS):
        raise DomainError(f"no stored Airy-derivative zero for n={n}")
    c = AIRY_PRIME_ZEROS[n - 1] / _CBRT2
    return mu + c * mu13 + (0.3 * c * c + 0.15 / c) / mu13


# Consecutive roots of either kind are at least pi apart for nu >= 0.  psi = x j_nu solves
# psi'' + q psi = 0 with q = 1 - nu(nu+1)/x^2, and its Pruefer angle (psi = rho sin t,
# psi' = rho cos t) grows at t' = cos^2 t + q sin^2 t <= 1 wherever q <= 1.  TE: the zeros of
# j_nu, those of J_{nu+1/2}, are zeros of psi, so they are at least pi apart (Sturm
# comparison; Watson, Treatise on Bessel Functions, 15.8).  TM: each zero of psi' lies at
# least pi/2 from the zero of psi that interlaces with it, so zeros of psi' are at least pi
# apart too.  For -1/2 < nu < 0, q exceeds 1 by at most 1/(4 x^2); the least spacing
# measured there is 3.02, as nu -> -1/2.  A coarse interval of x-width 1.0 thus holds at
# most one root and shows it as a sign change.
_STEP = 0.05  # the first root exceeds nu, so a scan from nu in these steps skips none
_COARSE = 20  # scan steps per coarse interval (x-width 1.0)
_WINDOW = 12.0  # the scan grid is summed window by window, each clamped to its end
_BLOCK = 64  # scan steps from one cap of nth to the next, about one root spacing


class RadialSweep:
    """Every root of one radial condition, found in increasing order and kept.

    The scan starts at max(nu, 1e-3) and steps by 0.05 in windows of 12, each
    window's last step clamped to its end, and Brent's method refines each sign
    change to xtol = 1e-12.  The scan is advanced by ``advance``, alone or in
    rounds shared with other sweeps; later requests continue it, so no root is
    bracketed or refined twice.  ``below`` is ``advance`` on this sweep alone,
    and ``nth`` is ``below`` with a cap at the McMahon estimate, moved up until
    the n-th root is kept.
    """

    def __init__(self, nu: float, kind: RootKind):
        if not -0.5 < nu < math.inf:
            raise DomainError(f"radial roots require a finite nu > -1/2, got nu={nu}")
        self.nu, self.kind = nu, kind
        self._te = kind is RootKind.TE_JZERO  # read once: an enum member lookup costs 0.1 us a call
        self._what = f"{kind.value} radial condition for nu={nu}"
        self.lo = self._x = max(nu, 1e-3)
        self._hi = self.lo + _WINDOW
        self.roots: list[RadialRoot] = []

    def value(self, x):
        """The wall condition at x, a float or an array: spherical_j (TE) or riccati_deriv (TM),
        looked up at each call, as the scan and Brent's method evaluate it."""
        return (spherical_j if self._te else riccati_deriv)(self.nu, x)

    def below(self, x_cap: float) -> list[RadialRoot]:
        """The roots found so far, once they hold every root <= x_cap (the last may exceed it)."""
        advance([self], x_cap)
        return list(self.roots)

    def nth(self, n: int) -> RadialRoot:
        """The n-th root; RootSearchError once a cap's scan passes lo + (40 + 4n) max(1, nu)^(1/3)
        without it, a stop that grows as root n does, about z_n (nu/2)^(1/3) above nu."""
        if n < 1:
            raise DomainError("radial index n must be >= 1")
        limit = self.lo + (40.0 + 4.0 * n) * max(1.0, self.nu) ** (1.0 / 3.0)
        # the first cap is the Airy estimate, above roots 1-5 as measured for nu <= 200; each
        # later one lies _BLOCK steps past the scan
        cap = mcmahon_seed(max(self.nu, 0.5), min(n, 5), self.kind) + math.pi * max(0, n - 5)
        while len(self.below(cap)) < n:
            if self._x > limit:
                raise RootSearchError(f"failed to bracket root n={n} for nu={self.nu}", window=(self.lo, self._x))
            cap = self._x + _BLOCK * _STEP
        return self.roots[n - 1]


def advance(sweeps, x_cap: float) -> None:
    """Scan every sweep of ``sweeps`` until it has passed x_cap, keeping each root it brackets.

    All pending sweeps advance together, round by round.  In a round each sweep
    scans what one call of a lone scan would: from its last point to the cap or
    to its window's end, whichever comes first.  The rows of every sweep's grid
    are summed by one cumsum, each in order as a scalar loop would, so every
    grid point has the bits it has when the sweep advances alone.  The round
    evaluates each row at every 20th grid point (an x-stride of 1.0) and its last,
    all rows in one spherical_j and one riccati_deriv call with one nu per row.
    Roots are more than 1.0 apart (above _STEP), so a coarse interval that changes
    sign holds one root and one grid interval that changes sign; lockstep
    bisection over the grid indices finds it, one call per kind and step and at
    most 5 steps.  A round of one sweep evaluates those intervals densely instead,
    at less cost alone, and a lone row of at most 2 * 20 grid steps at every point.
    Either way Brent's method gets the brackets of a dense scan, and a zero at a
    grid point is a root as is: the roots are those of the dense scan bit for bit.
    """
    if not math.isfinite(x_cap):
        raise DomainError(f"root cap must be finite, got {x_cap}")
    pending = [s for s in dict.fromkeys(sweeps) if s._x < x_cap]
    while pending:
        _round(pending, x_cap)
        pending = [s for s in pending if s._x < x_cap]


def _conditions(te, nu, x):
    """The wall condition of each row's sweep at x: ``te`` is True (TE) or False (TM) for
    every row, or a bool array per row; ``nu`` broadcasts against ``x``.  One call per kind."""
    if isinstance(te, bool):
        return (spherical_j if te else riccati_deriv)(nu, x)
    out = np.empty(x.shape)
    out[te], out[~te] = spherical_j(nu[te], x[te]), riccati_deriv(nu[~te], x[~te])
    return out


def _not_finite(values, rows, sweeps, grid, last) -> RootSearchError:
    """The error for the first row whose evaluated ``values`` are not all finite; row i of the
    round holds ``values[rows == i]``."""
    i = int(np.broadcast_to(rows, values.shape)[~np.isfinite(values)][0])
    return RootSearchError(f"{sweeps[i]._what} is not finite on the scan", window=(grid[i, 0], grid[i, last[i]]))


def _round(sweeps: list[RadialSweep], x_cap: float) -> None:
    """One round of ``advance``: each sweep scans one block, keeps its roots and moves on."""
    n = len(sweeps)
    starts, counts, steps, his = [], [], [], []
    for s in sweeps:
        if s._x >= s._hi:
            s._hi += _WINDOW
        # the grid points up to the cap, with no step summed more than two past the window end
        count = int((x_cap - s._x) / _STEP) + 1
        starts.append(s._x)
        counts.append(count)
        steps.append(min(count, int((s._hi - s._x) / _STEP) + 2))
        his.append(s._hi)
    width = max(steps) + 2
    grid = np.empty((n, width))
    grid.fill(_STEP)
    grid[:, 0] = starts
    np.add.accumulate(grid, axis=1, out=grid)  # a cumsum: each row summed in order, as a scalar loop would
    last = []  # per row, the index of its last point: the cap's, or the window end's
    for i, (x, step, count, hi) in enumerate(zip(starts, steps, counts, his)):
        # the points before the window end, at most step + 1: from the step estimate, give or
        # take the rounding of the sum
        inside = min(int((hi - x) / _STEP), step + 1)
        while inside > 1 and grid.item(i, inside - 1) >= hi:
            inside -= 1
        while inside <= step and grid.item(i, inside) < hi:
            inside += 1
        if inside <= count:  # cut short by the window: the row ends at its end
            grid[i, inside] = hi
            last.append(inside)
        else:
            last.append(inside - 1)
    top = max(last)
    stride = 1 if n == 1 and top < 2 * _COARSE else _COARSE
    cols = [*range(0, top, stride), top]  # the coarse points: every stride-th, and the last
    for i, end in enumerate(last):  # a shorter row repeats its last point to the end of the longest
        if end < top:
            grid[i, end + 1 : top + 1] = grid.item(i, end)
    kinds = {s._te for s in sweeps}
    te = kinds.pop() if len(kinds) == 1 else np.array([s._te for s in sweeps])
    coarse = grid[:, : top + 1 : stride] if top % stride == 0 else grid[:, cols]  # a view if a slice serves
    if n == 1:
        nu = sweeps[0].nu
        values = _conditions(te, nu, coarse)
    else:  # per row its coarse points up to the first at or past its last; the rest copy that
        nu = np.array([s.nu for s in sweeps])[:, None]
        new = np.empty(coarse.shape, dtype=bool)
        new[:, 0] = True
        np.less(cols[:-1], np.array(last)[:, None], out=new[:, 1:])
        te_new = te if isinstance(te, bool) else np.broadcast_to(te[:, None], coarse.shape)[new]
        values = _conditions(te_new, np.broadcast_to(nu, coarse.shape)[new], coarse[new])
        values = values[new.cumsum() - 1].reshape(coarse.shape)
    if not np.isfinite(values).all():
        raise _not_finite(values, np.arange(n)[:, None], sweeps, grid, last)
    # a sign change between coarse points brackets a root, and a zero at one is a root unless
    # it is the row's last point
    rows, k = np.nonzero(values[:, :-1] * values[:, 1:] <= 0.0)
    a, b, va, hits = [], [], [], []
    for i, j in zip(rows.tolist(), k.tolist()):
        a_, v = cols[j], values.item(i, j)
        if a_ < last[i] and (v == 0.0 or v * values.item(i, j + 1) < 0.0):
            hits.append(i)
            a.append(a_)
            b.append(a_ if v == 0.0 else min(cols[j + 1], last[i]))
            va.append(v)
    if any(b_ - a_ > 1 for a_, b_ in zip(a, b)):
        (_dense if n == 1 else _bisect)(sweeps, grid, last, te, nu, hits, a, b, va)
    found: dict[int, list[float]] = {}
    for i, a_, b_ in zip(hits, a, b):
        s = sweeps[i]
        if a_ == b_:
            x = grid.item(i, a_)
        else:  # this module's brentq, so that a wrapper around radial.brentq sees each refinement
            x = refined_root(s.value, grid.item(i, a_), grid.item(i, b_), s._what, brentq, xtol=1e-12)
        found.setdefault(i, []).append(x)
    for i, s in enumerate(sweeps):
        for x in found.get(i, ()):
            s.roots.append(RadialRoot(s.nu, len(s.roots) + 1, s.kind, x, s.value(x)))
        s._x = grid.item(i, last[i])


def _dense(sweeps, grid, last, te, nu, rows, a, b, va) -> None:
    """The sign-changing grid interval of each open coarse interval [a, b] of a lone sweep,
    from the condition at every grid point inside them, in one call: a and b narrowed in
    place to it, or both to a grid point where the condition is exactly 0."""
    open_ = [t for t in range(len(a)) if b[t] - a[t] > 1]
    inner = [grid[0, a[t] + 1 : b[t]] for t in open_]
    inner = inner[0] if len(inner) == 1 else np.concatenate(inner)
    values = _conditions(te, nu, inner)
    if not np.isfinite(values).all():
        raise _not_finite(values, 0, sweeps, grid, last)
    values, offset = values.tolist(), 0
    for t in open_:
        seq = [va[t], *values[offset : offset + b[t] - a[t] - 1]]
        offset += b[t] - a[t] - 1
        for j in range(1, len(seq)):  # the dense scan's first zero or sign change
            if seq[j] == 0.0:
                a[t] = b[t] = a[t] + j
                break
            if seq[j - 1] * seq[j] < 0.0:
                a[t], b[t] = a[t] + j - 1, a[t] + j
                break
        else:
            a[t] = b[t] - 1


def _bisect(sweeps, grid, last, te, nu, rows, a, b, va) -> None:
    """The sign-changing grid interval of each open coarse interval [a, b] of the round, by
    bisection over grid indices in lockstep, one call per kind and step: a and b narrowed in
    place to it, or both to a grid point where the condition is exactly 0."""
    todo = [t for t in range(len(a)) if b[t] - a[t] > 1]
    r = np.array(rows)[todo]
    lo, hi, v_lo = np.array(a)[todo], np.array(b)[todo], np.array(va)[todo]
    nu = nu[r, 0]
    te = te if isinstance(te, bool) else te[r]
    while len(j := np.flatnonzero(hi - lo > 1)):
        mid = (lo[j] + hi[j]) // 2
        v_mid = _conditions(te if isinstance(te, bool) else te[j], nu[j], grid[r[j], mid])
        if not np.isfinite(v_mid).all():
            raise _not_finite(v_mid, r[j], sweeps, grid, last)
        left = v_lo[j] * v_mid < 0.0  # the sign changes below mid; a zero at mid is the root
        lo[j] = np.where(left, lo[j], mid)
        hi[j] = np.where(left | (v_mid == 0.0), mid, hi[j])
        v_lo[j] = np.where(left, v_lo[j], v_mid)
    for t, lo_t, hi_t in zip(todo, lo.tolist(), hi.tolist()):
        a[t], b[t] = lo_t, hi_t


def j_zero(nu: float, n: int) -> RadialRoot:
    """n-th positive root of j_nu (TE wall condition)."""
    return RadialSweep(nu, RootKind.TE_JZERO).nth(n)


def riccati_deriv_zero(nu: float, n: int) -> RadialRoot:
    """n-th positive root of d/dx [x j_nu(x)] (TM wall condition)."""
    return RadialSweep(nu, RootKind.TM_RICCATI_DERIV_ZERO).nth(n)


def radial_root(nu: float, n: int, kind: RootKind) -> RadialRoot:
    """Root of the requested kind; dispatch helper for mode construction."""
    return (j_zero if kind is RootKind.TE_JZERO else riccati_deriv_zero)(nu, n)


def frequency_from_root(x: float, radius_m: float) -> float:
    """Resonant frequency in Hz for a dimensionless root x and radius a."""
    if not 0.0 < radius_m < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius_m}")
    if x <= 0.0:
        raise DomainError("root must be positive")
    return SPEED_OF_LIGHT * x / (2.0 * math.pi * radius_m)
