"""Real-argument special functions used by every other module.

Conventions:
  * spherical Bessel j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x), real order nu > -1/2
  * Riccati derivative means d/dx [x j_nu(x)] = (nu+1) j_nu(x) - x j_{nu+1}(x)
  * spherical_j and riccati_deriv are the only evaluators of these two: the
    radial scan and its refinement, the fields and the energy all call them,
    with nu and x floats or arrays that broadcast against each other (a radial
    round passes one nu per sweep), every array element the bits of a float call
  * Theta(theta) is the polar solution regular at theta = 0, normalized so
    Theta / sin(theta)^m -> 1 as theta -> 0+
  * Sweep is the one root-sweep type (radial.RadialSweep, angular.ConeSweep), and advance
    the one routine that scans sweeps, refines their roots and moves them along their lattice

All functions are pure; no module-level mutable state.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy import special as sp
from scipy.integrate import solve_ivp  # noqa: F401 -- benchmarks/spans.py wraps it by name
from scipy.special import jv

from .errors import ConvergenceError, DomainError, RootSearchError, SphcavError

__all__ = [
    "ln_gamma",
    "hyp2f1",
    "spherical_j",
    "riccati_deriv",
    "Lattice",
    "Sweep",
    "advance",
    "polar_solution",
    "legendre_theta",
    "legendre_theta_deriv",
    "terminates",
    "INT_TOL",
]

INT_TOL = 1e-12  # how close a float must be to an integer to count as one
_MAX_TERMS = 500  # a series that needs more raises ConvergenceError
_TOLERANCE = 1e-15  # a series stops at the first term this small relative to its size
_EPS = float(np.finfo(float).eps)


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric sum 2F1(a, b; c; z) for real z in [0, 1).

    Terms are summed until one falls to 1e-15 of the sum; a series that needs
    more than 500 terms raises ConvergenceError with the partial sum attached.
    When a or b is a non-positive integer (to the absolute 1e-12 of
    ``terminates``) every term past the polynomial's last is exactly 0, so the
    sum stops there at the latest.
    """
    if not (0.0 <= z < 1.0):
        raise DomainError(f"hyp2f1 requires 0 <= z < 1, got z={z}")
    if not all(math.isfinite(x) for x in (a, b, c)):
        raise DomainError(f"hyp2f1 requires finite parameters, got a={a}, b={b}, c={c}")
    # a non-positive integer a or b, taken exact, makes every term past the polynomial 0;
    # a non-positive integer c is a 1/Gamma(c) pole unless the series stops before it
    a, b = (float(round(x)) if terminates(0.0, x) else x for x in (a, b))
    degrees = [-x for x in (a, b) if terminates(0.0, x)]
    if terminates(0.0, c) and (not degrees or -round(c) <= min(degrees)):
        raise DomainError(f"hyp2f1 parameter c={c} is a non-positive integer the series reaches")
    return _gauss_series(a, b, c, z)


def _bessel(nu, x, riccati: bool):
    """spherical_j(nu, x), or riccati_deriv(nu, x) if ``riccati``: the domain checks, then
    one scale sqrt(pi/(2x)) times J_{nu+1/2} and, for the Riccati derivative
    (nu + 1) j_nu - x j_{nu+1}, J at the order (nu + 1) + 1/2.  Every step is elementwise,
    so an array nu broadcast against x gives, element by element, the bits of float calls."""
    x_array, nu_array = isinstance(x, np.ndarray), isinstance(nu, np.ndarray)
    # the least x and nu (nan if one holds one): one argmin serves the domain check and the
    # choice of form, at a fifth of the cost of a min() or of a mask and its any()
    least = (x.item(x.argmin()) if x.size else math.inf) if x_array else x
    lowest = (nu.item(nu.argmin()) if nu.size else math.inf) if nu_array else nu
    if lowest <= -0.5 or least < 0.0 or riccati and least == 0.0:
        name, bound = ("riccati_deriv", ">") if riccati else ("spherical_j", ">=")
        raise DomainError(f"{name} requires nu > -1/2 and x {bound} 0, got nu={lowest}, x={least}")
    if least * least < 0.25 * _EPS:
        return _near_zero(nu, x, riccati)
    scale = (np.sqrt if x_array else math.sqrt)(0.5 * math.pi / x)  # = pi/(2x) to the bit: pi/2 is exact
    out = scale * jv(nu + 0.5, x)
    if riccati:
        out = (nu + 1.0) * out - x * (scale * jv(nu + 1.0 + 0.5, x))
    return out if x_array or nu_array else float(out)


def _near_zero(nu, x, riccati: bool):
    """_bessel where some x^2 < eps/4.  There the leading term x^nu/(2nu+1)!! (times nu + 1
    for the derivative) is exact, as the next is at most 5x^2/4 of it, and is taken instead
    of J_{nu+1/2}(x), which may underflow where j_nu does not (pi/(2x) overflows below
    x = 1e-308).  ln (2nu+1)!! = nu ln 2 + ln Gamma(nu + 3/2) - ln Gamma(3/2) is exactly 0
    at nu = 0, so j_0 and Ric'_0 are exactly 1 there; it is taken in math, once per
    distinct nu, and float arguments run as one-element arrays, so that float and array
    calls agree to the bit.  j_nu(0) is 1 for nu = 0, else 0."""
    if not isinstance(x, np.ndarray) and not isinstance(nu, np.ndarray):
        return _near_zero(nu, np.array([x]), riccati).item()
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    tiny, zero = x * x < 0.25 * _EPS, x == 0.0
    orders, at = np.unique(nu, return_inverse=True)
    scale = [
        (v + 1.0 if riccati else 1.0) * math.exp(-(v * math.log(2.0) + math.lgamma(v + 1.5) - math.lgamma(1.5)))
        for v in orders.tolist()
    ]
    lead = np.array(scale)[at].reshape(x.shape) * np.power(np.where(tiny & ~zero, x, 1.0), nu)
    lead = np.where(zero, np.where(nu == 0.0, 1.0, 0.0), lead)
    return np.where(tiny, lead, _bessel(nu, np.where(tiny, 1.0, x), riccati))


def spherical_j(nu, x):
    """Spherical Bessel function j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x) for nu > -1/2 and
    x >= 0; j_nu(0) is 1 for nu = 0, else 0.  ``nu`` and ``x`` are floats, giving a float,
    or arrays that broadcast against each other, giving an array of their broadcast
    shape whose every element has the bits of the float call."""
    return _bessel(nu, x, False)


def riccati_deriv(nu, x):
    """d/dx [x j_nu(x)] = (nu+1) j_nu(x) - x j_{nu+1}(x) for nu > -1/2 and x > 0, ``nu``
    and ``x`` floats or arrays as in spherical_j."""
    return _bessel(nu, x, True)


class Lattice(NamedTuple):
    """The scan points origin + i * step, i = 0, 1, ..., each taken in closed form from its
    index, so that a point's bits never depend on the scan that reached it."""

    origin: float
    step: float

    def point(self, i):
        """The point of index i, an int or an integer array."""
        return self.origin + i * self.step

    def index(self, x: float) -> int:
        """The first index whose point is at or past x; the quotient may round across an integer."""
        i = math.ceil((x - self.origin) / self.step)
        i -= self.point(i - 1) >= x
        return i + (self.point(i) < x)


class Sweep:
    """The roots of one condition, found in increasing order on its class's lattice and kept:
    the one sweep type of radial.RadialSweep and angular.ConeSweep, which advance alone moves.

    A subclass supplies LATTICE, STRIDE, Brent's tolerance TOL, ``brent()`` (its module's brentq,
    looked up at each call) and ``batched(x, flag, *args)``, the condition of rows of one flag;
    an instance its ``args`` (flag first), ``name`` and, if it keeps only its first roots,
    ``max_roots``.  ``root(x)`` is what a sweep keeps of a root at x.
    """

    max_roots: int | None = None  # None: every root
    index = property(lambda self: self._index)  # the lattice index of the last scanned point
    end = property(lambda self: self.LATTICE.point(self._index))  # the last scanned point

    def __init__(self, args: tuple, name: str, index: int):
        self.args, self.name, self._index = args, name, index
        self.roots: list = []

    def value(self, x):
        """The condition at x, a float or an array, as the scan and Brent's method evaluate it."""
        return self.batched(x, *self.args)

    def root(self, x: float):
        return x


def advance(sweeps, caps) -> None:
    """Scan each Sweep ``sweeps[i]`` to the first lattice point at or past its cap ``caps[i]``
    (a sweep listed twice to the larger of its caps), keeping each root it brackets: the one
    bracket-and-refine routine of the radial and cone scans, one Sweep class a call.

    All pending sweeps advance in one pass: their last points, every lattice index past them that
    is a multiple of STRIDE and their caps' indices, in one batched call per flag.  Neighbouring
    points bracket a root where the first is 0 or their signs differ; a pass's last point only
    ends a bracket (the next pass starts there).  Brackets are bisected in lockstep over lattice
    indices, then cut to the roots each sweep still keeps.  A lattice zero is its root; any other
    is Brent's method on its lattice interval, fed the scan's values at its ends, so each root is
    fixed by its lattice interval alone.  Sweeps take their roots and ends once every root of the
    pass is refined.  A value not finite raises RootSearchError naming the sweep and its pass, a
    failed refinement one naming its interval; a SphcavError from the condition or Brent passes.
    """
    if len(caps) != len(sweeps):
        raise DomainError(f"advance takes one cap per sweep, got {len(caps)} for {len(sweeps)} sweeps")
    if not all(map(math.isfinite, caps)):
        raise DomainError(f"root cap must be finite, got {next(c for c in caps if not math.isfinite(c))}")
    if len(kinds := set(map(type, sweeps))) != 1:
        if kinds:
            raise DomainError(f"advance takes sweeps of one class, got {sorted(k.__name__ for k in kinds)}")
        return
    (kind,) = kinds
    lattice, stride = kind.LATTICE, kind.STRIDE
    end_of = {cap: lattice.index(cap) for cap in set(caps)}  # enumerate_modes gives all its sweeps one cap
    # each pending sweep's end; sorted by end, a sweep listed twice keeps the larger
    ends = {s: end for s, end in sorted(zip(sweeps, map(end_of.get, caps)), key=itemgetter(1)) if s._index < end}
    if not (sweeps := list(ends)):
        return
    start, end = [s._index for s in sweeps], list(ends.values())
    if len(sweeps) == 1:  # a lone sweep's points in Python: the arrays below cost a lone search 10-15 us
        points = [[i, *range((i // stride + 1) * stride, e, stride), e] for i, e in zip(start, end)]
        index, sizes = np.array([i for p in points for i in p]), [len(p) for p in points]
    else:
        start, end = np.array(start), np.array(end)
        first = (start // stride + 1) * stride
        sizes = np.maximum(0, (end - first + stride - 1) // stride) + 2
        last = np.cumsum(sizes) - 1
        place = np.arange(last[-1] + 1) - np.repeat(last - sizes + 1, sizes)  # each point's place in its row
        index = np.repeat(first - stride, sizes) + stride * place
        index[last - sizes + 1], index[last] = start, end
    flags, *args = zip(*(s.args for s in sweeps))
    one = flags[0] if len(set(flags)) == 1 else None  # the flag of every sweep, if they share one
    flags, args = np.array(flags), [np.array(a) for a in args]

    def scan(rows, x):  # the condition of sweep rows[j] at x[j]
        if one is not None:
            values = kind.batched(x, one, *(a[rows] for a in args))
        else:
            pick, values = flags[rows], np.empty(x.shape)
            for flag, side in ((True, pick), (False, ~pick)):
                if side.any():
                    values[side] = kind.batched(x[side], flag, *(a[rows[side]] for a in args))
        if not np.isfinite(values).all():
            s = sweeps[rows[~np.isfinite(values)][0]]
            window = (lattice.point(s._index), lattice.point(ends[s]))
            raise RootSearchError(f"{s.name} is not finite on the scan", window=window)
        return values

    rows = np.repeat(np.arange(len(sweeps)), sizes)
    values = scan(rows, lattice.point(index))
    sign = np.sign(values)  # signs, not values, are multiplied: a product of values may overflow
    at = ((rows[:-1] == rows[1:]) & ((values[:-1] == 0.0) | (sign[:-1] * sign[1:] < 0.0))).nonzero()[0]
    # each bracket's lattice indices (bounds[0]: lo, bounds[1]: hi) and the condition there
    rows, bounds, bounds_f = rows[at], np.array([index[at], index[at + 1]]), np.array([values[at], values[at + 1]])
    while len(j := (bounds[1] - bounds[0] > 1).nonzero()[0]):  # nonzero, not flatnonzero: 1 us less a call
        mid = (bounds[0, j] + bounds[1, j]) // 2
        f_mid = scan(rows[j], lattice.point(mid))
        side = (np.sign(bounds_f[0, j]) * np.sign(f_mid) <= 0.0).astype(np.intp)  # 1: a sign change at or below mid
        bounds[side, j], bounds_f[side, j] = mid, f_mid
    brackets: list[list] = [[] for _ in sweeps]
    for r, *bracket in zip(rows.tolist(), *lattice.point(bounds).tolist(), *bounds_f.tolist()):
        brackets[r].append(bracket)
    brent, found = kind.brent(), [[] for _ in sweeps]
    for s, row, roots in zip(sweeps, brackets, found):
        for lo, hi, f_lo, f_hi in row[: s.max_roots and s.max_roots - len(s.roots)]:  # [:None]: every root
            if f_lo == 0.0 or f_hi == 0.0:
                roots.append(lo if f_lo == 0.0 else hi)
                continue

            def fed(x):  # the condition, with the values the scan holds at the bracket ends
                return f_lo if x == lo else f_hi if x == hi else s.value(x)

            try:
                roots.append(float(brent(fed, lo, hi, **kind.TOL)))
            except SphcavError:
                raise
            except (ValueError, RuntimeError) as exc:
                raise RootSearchError(f"{s.name} could not be refined: {exc}", window=(lo, hi)) from exc
    for s, roots in zip(sweeps, found):
        for x in roots:
            s.roots.append(s.root(x))
        s._index = ends[s]


# --- polar angular solution -------------------------------------------------
#
# Theta(theta) = sin(theta)^m * F(z),  F = 2F1(m - nu, m + nu + 1; m + 1; z),
# z = sin^2(theta/2), w = 1 - z = cos^2(theta/2), sin(theta)^2 = 4 z w.
#
# Where z <= 1/2 the Gauss series of F is summed directly.  Past z = 1/2, F
# is connected to the opposite pole, where it becomes series in w <= 1/2:
#   * non-integer m (DLMF 15.8.4):
#       F = A 2F1(m - nu, m + nu + 1; m + 1; w) + B w^-m 2F1(nu + 1, -nu; 1 - m; w)
#     with A = sin(pi nu)/sin(pi m), B = Gamma(m+1) Gamma(m)/(Gamma(m-nu) Gamma(m+nu+1));
#   * integer m: the logarithmic case (DLMF 15.8.10), with sin(pi nu) psi(m + k - nu)
#     taken by reflection, sin(pi nu) psi(nu + 1 - m - k) + pi cos(pi nu), where
#     m + k - nu < 1/2, so that no psi pole is ever evaluated;
#   * 0 < |m - round(m)| < 4e-3: the two 15.8.4 terms cancel to a relative
#     error ~ eps/|m - round(m)|, so F is interpolated in m through 5 points
#     round(m) + {0, +-2e-3, +-4e-3} (Lagrange);
#   * nu - m = k, a non-negative integer: F is a polynomial and B = 0, so the
#     reflection F(z) = (-1)^k 2F1(-k, 2m + k + 1; m + 1; w) is used as is.
# Every branch returns G = w^(m/2) F, so Theta = (4z)^(m/2) G: the w^-m of
# the singular branch never overflows on its own, and in the interpolation
# band the two terms of G vary as w^(+-m/2) rather than as 1 and w^-m.
# dF/dz = (ab/c) 2F1(a + 1, b + 1; c + 1; z) is F at order m + 1, so the
# derivative comes from the same evaluator.

_CONNECT_Z = 0.5  # past this z the series is taken about the opposite pole
_BAND_NODES = (-4e-3, -2e-3, 0.0, 2e-3, 4e-3)  # offsets from round(m)
_BAND = _BAND_NODES[-1]

# The helpers below take either floats or 1-D arrays of one length: a scalar
# evaluation (one field point, one Brent step) then runs on plain floats, every
# numpy scalar turned into a float as it is made.  The order m is one float for
# every element, or an array of one order per element (a batched cone scan):
# then each element takes its own branch by mask, its own head length, and stops
# each series at its own last term, so that its value does not depend on the
# elements beside it.  With one m for an array, every element takes terms until
# the last one converges, as always.


def _not_converged(what: str, total, term) -> ConvergenceError:
    worst = int(np.argmax(np.abs(np.ravel(term))))
    return ConvergenceError(
        f"{what} did not converge in {_MAX_TERMS} terms",
        partial_sum=float(np.ravel(total)[worst]),
        last_term=float(abs(np.ravel(term)[worst])),
    )


def terminates(nu, m: float):
    """Whether nu - m is a non-negative integer to an absolute 1e-12 (INT_TOL): the one test of
    nu - m in N, for the polar series, angular.classify and south_singular_coefficient."""
    d = nu - m
    if isinstance(d, float):  # the scalar path, without numpy's per-call overhead
        return math.isfinite(d) and d >= -INT_TOL and abs(d - round(d)) <= INT_TOL
    return (d >= -INT_TOL) & (abs(d - np.round(d)) <= INT_TOL)


def _gauss_series(a, b, c, x):
    """Sum of (a)_k (b)_k / ((c)_k k!) x^k for 0 <= x < 1.  With an array ``c`` (one order per
    element) each element stops at its own last term, so that its sum does not depend on the
    elements beside it; otherwise every element takes terms until the last one converges."""
    each = isinstance(c, np.ndarray)
    term = total = size = 1.0  # arrays from the first step on, if any argument is one
    for k in range(_MAX_TERMS):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * x)
        total = total + term
        size = size + abs(term)
        # relative to the sum, or to its rounding noise where it cancels to ~0
        done = abs(term) <= _TOLERANCE * (abs(total) + _EPS * size)
        if done is True or done is not False and done.all():  # a float sum gives a bool
            return total
        if each:
            term = np.where(done, 0.0, term)
    raise _not_converged("Gauss series", total, term)


def _plain(x):
    """A numpy scalar as a Python float, so that a scalar evaluation (one Brent step, one field
    point) runs on plain floats from its first numpy call on; an array passes unchanged."""
    return float(x) if isinstance(x, np.generic) else x


def _at(m, mask):
    """The orders of the elements ``mask`` picks: ``m`` itself if it is one order for all."""
    return m[mask] if isinstance(m, np.ndarray) else m


_PSI_1 = float(sp.psi(1.0))


def _singular_weight(nu, m, w):
    """B w^(-m/2), with the gamma ratio of B taken in logarithms."""
    log_ratio = sp.gammaln(m + 1.0) + sp.gammaln(m) - sp.gammaln(m + nu + 1.0)
    return _plain(sp.gammasgn(m) * sp.rgamma(m - nu) * np.exp(log_ratio - 0.5 * m * np.log(w)))


def _connect_fractional(nu, m, w):
    """w^(m/2) F by DLMF 15.8.4, non-integer m."""
    sin_m = np.sin(np.pi * m) if isinstance(m, np.ndarray) else math.sin(math.pi * m)
    a = _plain(np.sin(np.pi * nu)) / sin_m
    regular = a * w ** (0.5 * m) * _gauss_series(m - nu, m + nu + 1.0, m + 1.0, w)
    return regular + _singular_weight(nu, m, w) * _gauss_series(nu + 1.0, -nu, 1.0 - m, w)


def _connect_integer(nu, m, w):
    """w^(m/2) F by DLMF 15.8.10, integer m (an int, or integral floats one per element): a log
    series plus, for m > 0, a finite head."""
    each, scalar, psi = isinstance(m, np.ndarray), not isinstance(w, np.ndarray), sp.psi
    a, b = m - nu, m + nu + 1.0
    sin_nu, pi_cos_nu = _plain(np.sin(np.pi * nu)), _plain(np.pi * np.cos(np.pi * nu))
    log_w = _plain(np.log(w))
    # psi(k+1), psi(m+k+1) and psi(b+k) by upward recurrence
    psi_k1, psi_km1, psi_b = _PSI_1, _plain(psi(m + 1.0)), _plain(psi(b))
    coef, total, size = 1.0, 0.0, 0.0  # coef = m! (a)_k (b)_k / (k! (m+k)!) w^k
    for k in range(_MAX_TERMS):
        x = a + k
        reflect = x < 0.5  # then psi(1 - x) and the pi cos(pi nu) term
        psi_a = psi(x + reflect * (1.0 - 2.0 * x))
        sin_psi_a = sin_nu * (float(psi_a) if scalar else psi_a) + reflect * pi_cos_nu
        total = total + coef * (sin_nu * (log_w - psi_k1 - psi_km1 + psi_b) + sin_psi_a)
        size = size + abs(coef)
        coef = coef * ((a + k) * (b + k) / ((k + 1.0) * (m + k + 1.0)) * w)
        # the psi bracket varies slowly, so the coefficients set the convergence
        done = abs(coef) <= _TOLERANCE * size
        if done is True or done is not False and done.all():  # a float sum gives a bool
            break
        if each:
            coef = np.where(done, 0.0, coef)
        psi_k1 += 1.0 / (k + 1.0)
        psi_km1 = psi_km1 + 1.0 / (m + k + 1.0)
        psi_b = psi_b + 1.0 / (b + k)
    else:
        raise _not_converged("logarithmic connection series", total, coef)
    g = ((-1.0) ** m / math.pi) * w ** (0.5 * m) * total
    if not each:
        return g + _singular_weight(nu, m, w) * _head(nu, m, w) if m > 0 else g
    at = np.flatnonzero(m > 0)
    if at.size:
        g[at] = g[at] + _singular_weight(nu[at], m[at], w[at]) * _head(nu[at], m[at], w[at])
    return g


def _head(nu, m, w):
    """The finite head of 15.8.10, sum over k < m of (-nu)_k (nu+1)_k / (k! (1-m)_k) w^k, for
    m > 0; with one order per element each element stops at its own."""
    if not isinstance(m, np.ndarray):
        head = term = 1.0
        for k in range(m - 1):
            term = term * ((k - nu) * (nu + 1.0 + k) / ((k + 1.0) * (1.0 - m + k)) * w)
            head = head + term
        return head
    head, term, live = np.ones(m.shape), np.ones(m.shape), np.arange(m.size)
    for k in itertools.count():
        live = live[m[live] - 1.0 > k]  # the elements whose order takes a k-th term
        if not live.size:
            return head
        n = nu[live]
        term[live] = term[live] * ((k - n) * (n + 1.0 + k) / ((k + 1.0) * (1.0 - m[live] + k)) * w[live])
        head[live] = head[live] + term[live]


def _interpolated(nu, m, w):
    """w^(m/2) F for 0 < |m - round(m)| < 4e-3, by Lagrange interpolation in m through the
    five band nodes round(m) + {0, +-2e-3, +-4e-3}."""
    base = np.round(m) if isinstance(m, np.ndarray) else round(m)
    offset, total = m - base, 0.0
    for j, hj in enumerate(_BAND_NODES):
        weight = math.prod((offset - hi) / (hj - hi) for i, hi in enumerate(_BAND_NODES) if i != j)
        node = _connect_integer(nu, base, w) if hj == 0.0 else _connect_fractional(nu, base + hj, w)
        total = total + weight * node
    return total


def _connect(nu, m, w):
    """w^(m/2) F past z = 1/2, for nu - m not a non-negative integer.  ``m`` is one order, or
    one per element of ``nu``, each element then taking its own order's branch by mask."""
    if not isinstance(m, np.ndarray):
        base = round(m)
        if abs(m - base) <= INT_TOL:
            return _connect_integer(nu, base, w)
        return _connect_fractional(nu, m, w) if abs(m - base) >= _BAND else _interpolated(nu, m, w)
    base = np.round(m)
    integer, fractional = abs(m - base) <= INT_TOL, abs(m - base) >= _BAND
    out = np.empty(nu.shape)
    for part, branch, order in (
        (integer, _connect_integer, base),
        (fractional, _connect_fractional, m),
        (~(integer | fractional), _interpolated, m),
    ):
        if part.any():
            out[part] = branch(nu[part], order[part], w[part])
    return out


def _reflected(nu, m, w):
    """w^(m/2) F past z = 1/2 when nu - m = k is a non-negative integer: (-1)^k F(w)."""
    sign = _plain(1.0 - 2.0 * (np.round(nu - m) % 2.0))
    return sign * w ** (0.5 * m) * _gauss_series(m - nu, m + nu + 1.0, m + 1.0, w)


def _scaled_hyp(nu, m, z, w, poly):
    """G = w^(m/2) 2F1(m - nu, m + nu + 1; m + 1; z), w = 1 - z exact; ``poly``: nu - m in N."""
    if isinstance(nu, float):
        if z <= _CONNECT_Z:
            return w ** (0.5 * m) * _gauss_series(m - nu, m + nu + 1.0, m + 1.0, z)
        if poly:
            return _reflected(nu, m, w)
        return _connect(nu, m, w)
    out = np.empty(nu.shape)
    near = z <= _CONNECT_Z
    poly = ~near & poly
    far = ~(near | poly)
    if near.any():
        m_near = _at(m, near)
        a, b = m_near - nu[near], m_near + nu[near] + 1.0
        out[near] = w[near] ** (0.5 * m_near) * _gauss_series(a, b, m_near + 1.0, z[near])
    if poly.any():
        out[poly] = _reflected(nu[poly], _at(m, poly), w[poly])
    if far.any():
        out[far] = _connect(nu[far], _at(m, far), w[far])
    return out


def _polar(nu, m, theta, with_deriv: bool):
    """Theta, and dTheta/dtheta if ``with_deriv``, of the north-pole-regular solution."""
    if np.isscalar(nu) and np.isscalar(theta) and np.isscalar(m):
        nu, m, theta, shape = float(nu), float(m), float(theta), None
        negative, inside = m < 0.0, 0.0 < theta < math.pi
        sin, cos = math.sin, math.cos
    else:
        nu, theta, orders = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (nu, theta, m)))
        shape, nu, theta = nu.shape, nu.ravel(), theta.ravel()
        m = orders.ravel() if np.ndim(m) else float(m)  # one order per element, or one for all
        negative, inside = np.any(orders < 0.0), np.all((theta > 0.0) & (theta < math.pi))
        sin, cos = np.sin, np.cos
    if negative:
        raise DomainError(f"order m must be >= 0, got m={m}")
    if not inside:
        raise DomainError(f"theta must lie strictly inside (0, pi), got {theta}")
    z, w = sin(0.5 * theta) ** 2, cos(0.5 * theta) ** 2
    poly = terminates(nu, m)  # decided once, for the value and the derivative's series alike
    value = (4.0 * z) ** (0.5 * m) * _scaled_hyp(nu, m, z, w, poly)
    if not with_deriv:
        return float(value) if shape is None else value.reshape(shape)
    # product rule with dz/dtheta = sin(theta)/2 and dF/dz = (ab/c) F at order
    # m + 1, whose sin^(m+1) F is (4z)^((m+1)/2) G; ab = 0 (nu = m) drops out
    ab_c = (m - nu) * (m + nu + 1.0) / (m + 1.0)
    deriv = m * cos(theta) / sin(theta) * value
    if shape is not None or ab_c != 0.0:
        deriv = deriv + 0.5 * ab_c * (4.0 * z) ** (0.5 * m + 0.5) * _scaled_hyp(nu, m + 1.0, z, w, poly)
    if shape is None:
        return float(value), float(deriv)
    return value.reshape(shape), deriv.reshape(shape)


def polar_solution(nu, m, theta):
    """(Theta, dTheta/dtheta) of the north-pole-regular polar solution.

    ``nu``, ``m`` and ``theta`` broadcast against each other, every order
    >= 0.  Scalar arguments give floats, array arguments arrays of the
    broadcast shape.  An array of orders (one per point, as a batched cone scan
    passes) evaluates each point as if alone: its branch and the length of its
    series are its own, so it agrees with its scalar call to rounding.
    Frobenius normalization: Theta / sin(theta)^m -> 1 as theta -> 0+.
    """
    return _polar(nu, m, theta, True)


def legendre_theta(nu, m, theta):
    """North-pole-regular polar solution of the angular equation.

    Frobenius normalization: legendre_theta / sin(theta)^m -> 1 as theta -> 0+.
    For nu = m this is exactly sin(theta)^m; for nu = m + k (integer k >= 0)
    it is sin(theta)^m times a degree-k polynomial in sin^2(theta/2); for all
    other (nu, m) it diverges at theta = pi.  ``nu``, ``m`` and ``theta``
    broadcast as in polar_solution, whose first value this is, without summing
    the derivative's series.
    """
    return _polar(nu, m, theta, False)


def legendre_theta_deriv(nu, m: float, theta):
    """d/dtheta of legendre_theta, by term-wise analytic differentiation."""
    return polar_solution(nu, m, theta)[1]
