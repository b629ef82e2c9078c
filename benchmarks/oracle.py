"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports ``sphcav``.  Radial roots come from ``scipy.special.jv``
and a bracketing root finder; cone eigenvalues come from the Gauss
hypergeometric form of the polar solution regular at theta = pi,

    TM:  2F1(m - nu, m + nu + 1; m + 1; cos^2(theta_c / 2)) = 0
    TE:  d/dtheta [sin^m(theta) 2F1(m - nu, m + nu + 1; m + 1; sin^2(theta / 2))]
         = 0 at theta = pi - theta_c,

scanned with a vectorized power series (or mpmath where the series is too
slow) and refined with mpmath.  Fixture files are parsed here as plain text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special as sp
from scipy.optimize import brentq

SPEED_OF_LIGHT = 299_792_458.0
FREQ_SLACK = 1e-6  # the program's documented inclusive cutoff slack
NU_FLOOR = 1e-4  # smallest cone eigenvalue searched for
_X_STEP = 0.02  # radial bracketing step, far below the ~pi root spacing
_NU_STEP = 0.01  # cone scan step, far below the ~1 branch spacing
_SERIES_Z_MAX = 0.98  # past this the vectorized series needs too many terms


@dataclass(frozen=True)
class Mode:
    pol: str  # "TM" | "TE"
    nu: float
    m: float
    n: int
    x: float  # dimensionless radial root k a


def x_cap_of(radius_m: float, f_max_hz: float) -> float:
    return 2.0 * math.pi * radius_m * f_max_hz * (1.0 + FREQ_SLACK) / SPEED_OF_LIGHT


def frequency(x: float, radius_m: float) -> float:
    return SPEED_OF_LIGHT * x / (2.0 * math.pi * radius_m)


# --- radial roots -------------------------------------------------------------


def _radial_fn(nu: float, pol: str):
    mu = nu + 0.5
    if pol == "TE":  # j_nu = 0  <=>  J_{nu+1/2} = 0
        return lambda x: sp.jv(mu, x)
    # d/dx [x j_nu] = 0  <=>  J_mu + 2 x J_mu' = 0
    return lambda x: sp.jv(mu, x) + 2.0 * x * sp.jvp(mu, x)


def radial_roots(nu: float, pol: str, x_cap: float, count: int | None = None) -> list[float]:
    """Positive roots below x_cap (or the first ``count`` roots), ascending."""
    f = _radial_fn(nu, pol)
    roots: list[float] = []
    lo = 1e-6
    while True:
        hi = x_cap if count is None else lo + 20.0
        grid = np.arange(lo, hi + _X_STEP, _X_STEP)
        vals = f(grid)
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]:
            r = brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)
            if count is None and r > x_cap:
                break
            roots.append(float(r))
            if count is not None and len(roots) == count:
                return roots
        if count is None:
            return roots
        lo = float(grid[-1])


# --- cone eigenvalues ---------------------------------------------------------


def _series_2f1(a: np.ndarray, b: np.ndarray, c: float, z: float) -> np.ndarray:
    total = np.ones_like(a)
    term = np.ones_like(a)
    for k in range(20000):
        term = term * (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total = total + term
        if k > 20 and np.all(np.abs(term) <= 1e-17 * np.maximum(np.abs(total), 1e-300)):
            return total
    raise ArithmeticError("hypergeometric series did not converge")


def cone_function(nu, m: float, theta_c: float, pol: str, exact: bool = False):
    """The cone condition as a function of nu, up to a positive factor."""
    z = math.cos(0.5 * theta_c) ** 2
    s, c_th = math.sin(theta_c), -math.cos(theta_c)  # sin, cos at pi - theta_c
    if exact or z > _SERIES_Z_MAX:
        with mp.workdps(20):
            nu = mp.mpf(nu)
            a, b, c = m - nu, m + nu + 1, m + 1
            if pol == "TM":
                return float(mp.hyp2f1(a, b, c, z))
            return float(
                m * c_th * mp.hyp2f1(a, b, c, z)
                + 0.5 * s * s * (a * b / c) * mp.hyp2f1(a + 1, b + 1, c + 1, z)
            )
    nu = np.asarray(nu, dtype=float)
    a, b, c = m - nu, m + nu + 1.0, m + 1.0
    if pol == "TM":
        return _series_2f1(a, b, c, z)
    return m * c_th * _series_2f1(a, b, c, z) + 0.5 * s * s * (a * b / c) * _series_2f1(
        a + 1.0, b + 1.0, c + 1.0, z
    )


def _scan_values(m: float, theta_c: float, pol: str, grid: np.ndarray) -> np.ndarray:
    if math.cos(0.5 * theta_c) ** 2 <= _SERIES_Z_MAX:
        return cone_function(grid, m, theta_c, pol)
    return np.array([cone_function(v, m, theta_c, pol) for v in grid])


def cone_sign_changes(m: float, theta_c: float, pol: str, nu_cap: float) -> list[tuple[float, float]]:
    """Brackets of every sign change of the cone condition on a fine nu grid."""
    grid = np.append(np.arange(NU_FLOOR, nu_cap, _NU_STEP), nu_cap)
    vals = _scan_values(m, theta_c, pol, grid)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)[0]
    return [(float(grid[i]), float(grid[i + 1])) for i in idx]


def refine_cone_root(m: float, theta_c: float, pol: str, lo: float, hi: float) -> float:
    g = lambda v: cone_function(v, m, theta_c, pol, exact=True)  # noqa: E731
    return float(brentq(g, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps))


def cone_roots(m: float, theta_c: float, pol: str, nu_cap: float) -> list[float]:
    return [refine_cone_root(m, theta_c, pol, lo, hi) for lo, hi in cone_sign_changes(m, theta_c, pol, nu_cap)]


def first_cone_root(m: float, theta_c: float, pol: str = "TM") -> float:
    """Smallest cone eigenvalue above NU_FLOOR (branch 1)."""
    if math.cos(0.5 * theta_c) ** 2 <= _SERIES_Z_MAX:
        brackets = cone_sign_changes(m, theta_c, pol, m + 3.0)
        if not brackets:
            raise ArithmeticError(f"no {pol} cone root below {m + 3.0} for m={m}")
        return refine_cone_root(m, theta_c, pol, *brackets[0])
    step = 0.05
    lo, f_lo = NU_FLOOR, cone_function(NU_FLOOR, m, theta_c, pol, exact=True)
    while lo < m + 3.0:
        hi = lo + step
        f_hi = cone_function(hi, m, theta_c, pol, exact=True)
        if f_lo * f_hi < 0.0:
            return refine_cone_root(m, theta_c, pol, lo, hi)
        lo, f_lo = hi, f_hi
    raise ArithmeticError(f"no {pol} cone root below {m + 3.0} for m={m}")


# --- spectra ------------------------------------------------------------------


def azimuthal_orders(opening_deg: float, m_cap: float) -> list[float]:
    """m below m_cap; PEC wedge faces admit m = j pi / Phi (m = 0 for TE only)."""
    if opening_deg == 360.0:
        return [float(j) for j in range(int(m_cap) + 1)]
    phi = math.radians(opening_deg)
    orders = [0.0]
    j = 1
    while j * math.pi / phi <= m_cap:
        orders.append(j * math.pi / phi)
        j += 1
    return orders


def spectrum(opening_deg: float, cone_deg: float, x_cap: float) -> list[Mode]:
    """Every mode with k a <= x_cap of a PEC sphere with wedge and/or cone.

    Between PEC wedge faces m = 0 is admissible for TE (cos(0 phi), E purely
    azimuthal) but not for TM; on the full azimuth m = 0 is admissible for
    both.  Without a cone nu = m + k; (nu, m) = (0, 0) carries no field.
    """
    modes: list[Mode] = []
    wedge = opening_deg != 360.0
    by_nu: dict[tuple[float, str], list[float]] = {}
    for m in azimuthal_orders(opening_deg, x_cap):
        for pol in ("TM", "TE"):
            if wedge and m == 0.0 and pol == "TM":
                continue
            if cone_deg == 0.0:
                nus = [m + k for k in range(int(x_cap - m) + 1) if m + k > 0.0]
            else:
                nus = cone_roots(m, math.radians(cone_deg), pol, x_cap)
            for nu in nus:
                key = (nu, pol)
                if key not in by_nu:
                    by_nu[key] = radial_roots(nu, pol, x_cap)
                modes += [Mode(pol, nu, m, n, x) for n, x in enumerate(by_nu[key], start=1)]
    modes.sort(key=lambda md: (md.x, 0 if md.pol == "TM" else 1, md.m, md.nu, md.n))
    return modes


def weyl_count(x_cap: float, volume_fraction: float) -> float:
    """Leading Weyl term V k^3 / (3 pi^2) of the EM count, for radius 1."""
    return volume_fraction * (4.0 / 3.0) * math.pi * x_cap**3 / (3.0 * math.pi**2)


# --- fixtures -----------------------------------------------------------------


def _cell(text: str):
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    try:
        return float(text)
    except ValueError:
        return text


def read_fixture(path: Path) -> dict:
    """Header keys and rows of a fixture file, parsed as plain text."""
    meta: dict = {"rows": []}
    columns = None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if columns is None:
            key, _, value = line.partition(":")
            if key.strip() == "columns":
                columns = value.split()
            else:
                meta[key.strip()] = _cell(value.strip())
        else:
            meta["rows"].append(dict(zip(columns, map(_cell, line.split()))))
    return meta
