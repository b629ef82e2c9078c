"""Radial quantization: certified roots of j_nu and of d/dx [x j_nu(x)].

TE resonances sit at zeros of j_nu (x_{nu,n}); TM resonances at zeros of the
Riccati derivative d/dx [x j_nu(x)] (x'_{nu,n}).  Both conditions are
specfun.spherical_j and specfun.riccati_deriv, called on arrays for the scan
and on floats for Brent's method.  Frequencies follow from f = c * x / (2 pi a).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, RootSearchError
from .specfun import bracketed_roots, riccati_deriv, spherical_j

__all__ = [
    "RootKind",
    "RadialRoot",
    "RadialSweep",
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
    window's last step clamped to its end; the condition is evaluated on the
    grid in vectorized blocks, and Brent's method refines each sign change to
    xtol = 1e-12 (specfun.bracketed_roots), each root kept as its block is
    scanned.  Later requests continue the scan, so no root is bracketed or
    refined twice.  ``nth`` is ``below`` with a cap at the McMahon estimate,
    moved up until the n-th root is kept.

    A block of more than 2 * 20 grid points is evaluated coarse to fine: first
    at every 20th grid point (an x-stride of 1.0) and the last, then at every
    grid point of each coarse interval that changes sign.  Roots are more than
    1.0 apart, so a coarse interval holds at most one, and Brent gets the
    brackets of the dense scan; the roots are those of the dense scan bit for
    bit.  A block of at most two coarse intervals costs less evaluated densely.
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

    def _scan(self, count: int) -> None:
        # grid from the last scanned point on, summed in order as a scalar loop would and cut
        # at the window end; no step is summed more than two past it, as those are cut anyway
        if self._x >= self._hi:
            self._hi += _WINDOW
        steps = min(count, int((self._hi - self._x) / _STEP) + 2)
        grid = np.cumsum(np.concatenate(([self._x], np.full(steps, _STEP))))
        grid = grid[grid < self._hi]
        if len(grid) <= count:
            grid = np.append(grid, self._hi)
        if len(grid) <= 2 * _COARSE:
            values = self.value(grid)
        else:  # every coarse point and the last, then every point of each coarse interval that
            # changes sign: a dense scan's brackets (a zero at a coarse point is a root as is)
            coarse = np.append(np.arange(0, len(grid) - 1, _COARSE), len(grid) - 1)
            ends = self.value(grid[coarse])
            keep = np.zeros(len(grid), dtype=bool)
            for i in np.flatnonzero(ends[:-1] * ends[1:] < 0.0):
                keep[coarse[i] + 1 : coarse[i + 1]] = True
            values = np.empty(len(grid))
            values[coarse], values[keep] = ends, self.value(grid[keep])
            keep[coarse] = True
            grid, values = grid[keep], values[keep]
        # this module's brentq, so that a wrapper around radial.brentq sees each refinement
        for x in bracketed_roots(self.value, grid, values, self._what, brentq, xtol=1e-12):
            self.roots.append(RadialRoot(self.nu, len(self.roots) + 1, self.kind, x, self.value(x)))
        self._x = float(grid[-1])

    def below(self, x_cap: float) -> list[RadialRoot]:
        """The roots found so far, once they hold every root <= x_cap (the last may exceed it)."""
        if not math.isfinite(x_cap):
            raise DomainError(f"root cap must be finite, got {x_cap}")
        while self._x < x_cap:
            self._scan(int((x_cap - self._x) / _STEP) + 1)
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
