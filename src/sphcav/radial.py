"""Radial quantization: certified roots of j_nu and of d/dx [x j_nu(x)].

TE resonances sit at zeros of j_nu (x_{nu,n}); TM resonances at zeros of the Riccati derivative
d/dx [x j_nu(x)] (x'_{nu,n}).  Either is the condition of a RadialSweep, a specfun.Sweep that
specfun.advance scans on arrays (one lattice of x that every nu shares) and refines on floats
by Brent's method, both through specfun.spherical_j and specfun.riccati_deriv.
Frequencies follow from f = c * x / (2 pi a).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, RootSearchError, positive_index
from .specfun import Lattice, Sweep, advance, riccati_deriv, spherical_j

__all__ = [
    "RootKind",
    "RadialRoot",
    "RadialSweep",
    "nth",
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

    @classmethod
    def _missing_(cls, value):  # RootKind(value) for anything but a member or its value
        raise DomainError(f"radial kind must be a RootKind, 'TE' or 'TM', got {value!r}")


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
    n = positive_index(n, "n")
    te = RootKind(kind) is RootKind.TE_JZERO
    zeros = AIRY_ZEROS if te else AIRY_PRIME_ZEROS
    if n > len(zeros):
        raise DomainError(f"no stored Airy{'' if te else '-derivative'} zero for n={n}")
    mu = nu + 0.5
    mu13, c = mu ** (1.0 / 3.0), zeros[n - 1] / _CBRT2
    return mu + c * mu13 + (0.3 * c * c + (0.0 if te else 0.15 / c)) / mu13


# Consecutive roots of either kind are at least pi apart for nu >= 0.  psi = x j_nu solves
# psi'' + q psi = 0 with q = 1 - nu(nu+1)/x^2, and its Pruefer angle (psi = rho sin t,
# psi' = rho cos t) grows at t' = cos^2 t + q sin^2 t <= 1 wherever q <= 1.  TE: the zeros of
# j_nu, those of J_{nu+1/2}, are zeros of psi, so they are at least pi apart (Sturm
# comparison; Watson, Treatise on Bessel Functions, 15.8).  TM: each zero of psi' lies at
# least pi/2 from the zero of psi that interlaces with it, so zeros of psi' are at least pi
# apart too.  For -1/2 < nu < 0, q exceeds 1 by at most 1/(4 x^2); the least spacing
# measured there is 3.02, as nu -> -1/2.  A coarse interval of x-width 1.0 thus holds at
# most one root and shows it as a sign change.
_STEP = 0.05  # the lattice x_i = i * _STEP; the first root exceeds nu, so a scan from below nu skips none
_BLOCK = 64  # lattice steps from one cap of nth to the next, about one root spacing


class RadialSweep(Sweep):
    """Every root of one radial condition (``kind`` a RootKind or "TE" or "TM"), found in
    increasing order and kept as a RadialRoot with its residual.  specfun.advance scans the
    lattice x_i = i * 0.05 that every nu shares from the last point at or below max(nu, 1e-3)
    (i >= 1: x = 0 is no scan point, and the first root lies above 0.9 for every nu > -1/2), at
    every 20th point (an x-stride of 1.0 holds at most one root), each pass continuing the last,
    so no root is found twice.  Brent refines each sign change to 4 eps, so a root is fixed by
    its lattice interval alone, whatever the caps and sweeps it was scanned with.
    """

    LATTICE, STRIDE = Lattice(0.0, _STEP), 20
    # Brent to scipy's relative floor, 4 eps: a root is then fixed by its bracket's lattice
    # interval, within a few ulp of the root of the evaluated condition
    TOL = dict(xtol=1e-300, rtol=4.0 * float(np.finfo(float).eps))
    # Past step / eps, about 2.3e14, neighbouring lattice points lie less than an ulp apart, so a
    # scan could neither bracket a root nor move past its cap (at 1e302 nth never ends); with a
    # factor 2 to spare, every point of a scan from nu <= MAX_NU is a float of its own.
    MAX_NU = 0.5 * _STEP / float(np.finfo(float).eps)
    # Brent's method: this module's brentq as it stands, so that a wrapper around it sees each refinement
    brent = staticmethod(lambda: brentq)

    def __init__(self, nu: float, kind: RootKind):
        if not -0.5 < nu <= self.MAX_NU:
            raise DomainError(f"radial roots require -1/2 < nu <= {self.MAX_NU:.4g}, got nu={nu}")
        self.nu, self.kind = nu, kind if isinstance(kind, RootKind) else RootKind(kind)  # a member costs no call
        self.lo = max(nu, 1e-3)
        args = (self.kind is RootKind.TE_JZERO, nu)  # TE read once: an enum lookup costs 0.1 us a call
        super().__init__(args, f"{self.kind.value} radial condition for nu={nu}", max(1, int(self.lo / _STEP)))

    @staticmethod
    def batched(x, te, nu):
        """spherical_j (TE) or riccati_deriv (TM) of order nu[j] at x[j], looked up at each call."""
        return (spherical_j if te else riccati_deriv)(nu, x)

    def root(self, x: float) -> RadialRoot:
        return RadialRoot(self.nu, len(self.roots) + 1, self.kind, x, self.value(x))


def nth(sweeps, n: int) -> list[RadialRoot]:
    """The n-th root of each sweep of ``sweeps``, their scans advanced together.

    Each sweep's first cap is the Airy estimate, above roots 1-5 as measured for nu <= 200,
    and each later one _BLOCK steps past where its scan stands; it gives up there past
    lo + (40 + 4n) max(1, nu)^(1/3), a stop that grows as root n does.  Every round takes
    each pending sweep to its own cap, so a sweep of a batch scans what its lone search does.
    """
    n = positive_index(n, "radial index n")
    caps = {s: mcmahon_seed(max(s.nu, 0.5), min(n, 5), s.kind) + math.pi * max(0, n - 5) for s in sweeps}
    while pending := [s for s in caps if len(s.roots) < n]:
        advance(pending, [caps[s] for s in pending])
        for s in pending:  # a sweep that holds root n leaves the next round whatever its cap
            if len(s.roots) < n and s.end > s.lo + (40.0 + 4.0 * n) * max(1.0, s.nu) ** (1.0 / 3.0):
                raise RootSearchError(f"failed to bracket root n={n} for nu={s.nu}", window=(s.lo, s.end))
            caps[s] = s.end + _BLOCK * _STEP
    return [s.roots[n - 1] for s in sweeps]


def j_zero(nu: float, n: int) -> RadialRoot:
    """n-th positive root of j_nu (TE wall condition)."""
    return nth([RadialSweep(nu, RootKind.TE_JZERO)], n)[0]


def riccati_deriv_zero(nu: float, n: int) -> RadialRoot:
    """n-th positive root of d/dx [x j_nu(x)] (TM wall condition)."""
    return nth([RadialSweep(nu, RootKind.TM_RICCATI_DERIV_ZERO)], n)[0]


def radial_root(nu: float, n: int, kind: RootKind) -> RadialRoot:
    """Root of the requested kind, a RootKind or its value; dispatch helper for mode construction."""
    return (j_zero if RootKind(kind) is RootKind.TE_JZERO else riccati_deriv_zero)(nu, n)


def frequency_from_root(x: float, radius_m: float) -> float:
    """Resonant frequency in Hz for a dimensionless root x and radius a, both positive and finite."""
    if not 0.0 < radius_m < math.inf:
        raise DomainError(f"radius must be positive and finite, got {radius_m}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"root must be positive and finite, got {x}")
    return SPEED_OF_LIGHT * x / (2.0 * math.pi * radius_m)
