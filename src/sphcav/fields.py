"""TE/TM field components from Debye potentials, impedances, Poynting vector.

A mode's potential is A * j_nu(k r) * Theta(theta) * Phi(phi) with k = x/a.
Fields follow from the curl-curl construction (time convention e^{-i omega t}):

    TM:  E_r   = nu(nu+1)/r * A j Theta Phi
         E_t   = (A/r) Ric'(kr) Theta' Phi
         E_p   = (A/(r sin)) Ric'(kr) Theta Phi'
         H_r   = 0
         H_t   = -i omega eps (A/sin) j Theta Phi'
         H_p   = +i omega eps A j Theta' Phi

    TE:  dual, with H built from the double curl and E from the single curl.

Ric'(x) = d/dx [x j_nu(x)], so d/dr [r j_nu(kr)] = Ric'(kr) exactly.  The
single-curl components carry one factor of i relative to some published
component tables; the set above satisfies Maxwell's equations identically,
which the impedance-duality and wall-condition tests rely on.

Azimuthal factor, derived from the domain like the regular pole: exp(i m phi)
on the full azimuth; on a wedge sin(m phi) for TM (E_r, E_theta carry Phi) and
cos(m phi) for TE (E_theta carries Phi'), so tangential E vanishes on the PEC
face phi = 0 and, with the domain's m, E (PEC) or H (PMC) on the face phi = Phi.
A ModeSpec refuses an m that is no such index (AngularDomain.admits), and a
(nu, m) that its domain cannot reach (angular.classify: without a cone, nu - m
must be a non-negative integer to an absolute 1e-12), however it is built: by
make_mode, directly or by dataclasses.replace.

Each ModeSpec keeps a memo of three factor tables, keyed by the float r,
theta and phi: its radial factors (j_nu, Ric'), its polar pair (Theta,
Theta') with sin(theta), and its azimuthal factors as a (2, 3) array (the
double-curl row and the single-curl row), so a sample reuses the factors of
the samples before it: on an n_r x n_theta x n_phi tensor grid the mode
computes n_r radial, n_theta polar and n_phi azimuthal factors instead of one
of each per point.  The memo also holds, per polarization asked for (the
mode's own under None), the constants of a sample (nu, A, nu(nu+1), the
single-curl coefficient, k and the domain bounds) and a one-entry row cache:
the (2, 3) complex coefficients of the double and the single curl at the last
(r, theta).  A point of that row then costs one complex product with its
azimuthal factors, whose two rows are E and H, and one FieldSample; each
component is the same expression, in the same order, as when it is computed
alone.  A cloud of distinct points misses every time and costs what it did
without the memo.  Each table starts over past _MEMO_LIMIT entries, and the
memo pickles empty.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad  # noqa: F401 -- benchmarks/spans.py wraps it by name

from .angular import AngularDomain, AngularEigenpair, classify
from .errors import DomainError, ImpedanceUndefinedError
from .radial import RadialRoot, RootKind, radial_root
from .specfun import riccati_deriv, spherical_j

__all__ = [
    "EPSILON_0",
    "MU_0",
    "Medium",
    "VACUUM",
    "ModeSpec",
    "FieldSample",
    "make_mode",
    "evaluate",
    "wave_impedances",
    "poynting",
]

EPSILON_0 = 8.8541878128e-12  # F/m
MU_0 = 1.25663706212e-6  # H/m


@dataclass(frozen=True)
class Medium:
    epsilon: float = EPSILON_0
    mu: float = MU_0

    @property
    def impedance(self) -> float:
        return math.sqrt(self.mu / self.epsilon)

    @property
    def speed(self) -> float:
        return 1.0 / math.sqrt(self.epsilon * self.mu)


VACUUM = Medium()

FULL_SPHERE = AngularDomain()

_MEMO_LIMIT = 1024  # factor entries one mode keeps before its memo starts over


class _FactorMemo(dict):
    """A mode's computed factors by key; pickles (and copies) empty."""

    def __reduce__(self):
        return type(self), ()

    def get_or(self, key, compute):
        value = self.get(key)
        if value is None:
            if len(self) >= _MEMO_LIMIT:
                self.clear()
            value = self[key] = compute()
        return value


@dataclass(frozen=True)
class ModeSpec:
    """Everything needed to evaluate one mode's fields at a point; an m its domain does not
    admit for its polarization raises DomainError naming the nearest index that it does, and
    a (nu, m) whose field is singular (angular.classify: without a cone, nu - m not a
    non-negative integer to an absolute 1e-12) raises ClassificationError.  A separated field
    that misses a cone root or a wall root is accepted: mode_energy gives its exact energy."""

    eigenpair: AngularEigenpair
    radial: RadialRoot
    radius_m: float
    amplitude: complex = 1.0 + 0.0j
    domain: AngularDomain = FULL_SPHERE
    _memo: _FactorMemo = field(default_factory=_FactorMemo, init=False, repr=False, compare=False)
    medium = VACUUM  # a class attribute, not a field: every cavity is filled with vacuum

    def __post_init__(self):
        if not 0.0 < self.radius_m < math.inf:
            raise DomainError(f"cavity radius must be positive and finite, got {self.radius_m}")
        if abs(self.radial.nu - self.eigenpair.nu) > 1e-12 * max(1.0, abs(self.eigenpair.nu)):
            raise DomainError("radial root and angular eigenpair disagree on nu")
        pol, m, dom = self.radial.kind.value, self.eigenpair.m, self.domain
        if not dom.admits(m, pol):
            raise DomainError(
                f"m={m!r} is not a {pol} index of a {math.degrees(dom.azimuth_opening_rad):g} deg "
                f"{dom.face_kind} wedge: m*Phi/pi = {m * dom.azimuth_opening_rad / math.pi:.9g}; "
                f"the nearest index is m={dom.nearest_index(m, pol)!r}"
            )
        classify(self.eigenpair.nu, m, cone_present=dom.has_cone)

    @property
    def polarization(self) -> RootKind:
        return self.radial.kind

    @property
    def azimuthal_kind(self) -> str:
        """traveling (exp(i m phi)) on the full azimuth, else sin for TM and cos for TE."""
        if self.domain.full_azimuth:
            return "traveling"
        return "sin" if self.radial.kind is RootKind.TM_RICCATI_DERIV_ZERO else "cos"

    @property
    def wavenumber(self) -> float:
        return self.radial.x / self.radius_m

    @property
    def omega(self) -> float:
        return self.wavenumber * self.medium.speed

    def polar(self, theta):
        """(Theta, dTheta/dtheta) regular at the domain's retained pole; vectorized over theta."""
        return self.domain.polar(self.eigenpair.nu, self.eigenpair.m, theta)


@dataclass(frozen=True)
class FieldSample:
    """Six complex field components at one point (spherical basis)."""

    point: tuple[float, float, float]  # (r [m], theta [rad], phi [rad])
    E: np.ndarray  # (E_r, E_theta, E_phi) in V/m
    H: np.ndarray  # (H_r, H_theta, H_phi) in A/m


def _azimuthal(mode: ModeSpec, phi: float) -> np.ndarray:
    """Phi(phi) or Phi'(phi) per component, for the mode's azimuthal convention, as a (2, 3)
    array: (Phi, Phi, Phi') for the double curl and (Phi, Phi', Phi) for the single curl."""
    m = mode.eigenpair.m
    if mode.azimuthal_kind == "traveling":
        f0 = cmath.exp(1j * m * phi)
        f1 = 1j * m * f0
    elif mode.azimuthal_kind == "sin":
        f0, f1 = complex(math.sin(m * phi)), complex(m * math.cos(m * phi))
    else:
        f0, f1 = complex(math.cos(m * phi)), complex(-m * math.sin(m * phi))
    return np.array(((f0, f0, f1), (f0, f1, f0)))


def _check_point(mode: ModeSpec, r: float, theta: float, phi: float) -> None:
    if not (0.0 < r <= mode.radius_m):
        raise DomainError(f"r={r} outside (0, {mode.radius_m}]")
    lo = mode.domain.cone_half_angle_rad
    if not (lo < theta < math.pi):
        raise DomainError(f"theta={theta} outside the angular domain ({lo}, pi)")
    if not math.isfinite(phi):
        raise DomainError(f"phi={phi} is not finite")
    if not mode.domain.full_azimuth and not (
        -1e-12 <= phi <= mode.domain.azimuth_opening_rad + 1e-12
    ):
        raise DomainError(f"phi={phi} outside the wedge opening")


class _Polarized:
    """What _sample needs of a mode for one polarization: TM or not, the domain bounds of r,
    theta and phi (on the full azimuth phi's are -+ the largest float, which nan and inf
    fail), the constants of a sample (nu, A, nu(nu+1), c A and -c A with c the single-curl
    coefficient, and k), the mode's three factor tables, and the row cache: the (2, 3)
    coefficients of the double and the single curl at the last (r, theta)."""

    __slots__ = (
        "tm", "r_hi", "theta_lo", "phi_lo", "phi_hi", "nu", "a", "nn1", "ca", "nca", "k",
        "radial", "polar", "azimuthal", "r", "theta", "row",
    )  # fmt: skip

    def __init__(self, mode: ModeSpec, polarization: RootKind):
        dom = mode.domain
        self.tm = polarization is RootKind.TM_RICCATI_DERIV_ZERO
        self.r_hi, self.theta_lo = mode.radius_m, dom.cone_half_angle_rad
        self.phi_lo, self.phi_hi = (
            (-sys.float_info.max, sys.float_info.max) if dom.full_azimuth else (-1e-12, dom.azimuth_opening_rad + 1e-12)
        )
        nu, a = mode.eigenpair.nu, mode.amplitude
        c = -1j * mode.omega * mode.medium.epsilon if self.tm else 1j * mode.omega * mode.medium.mu
        self.nu, self.a, self.nn1, self.ca, self.nca, self.k = nu, a, nu * (nu + 1.0), c * a, -c * a, mode.wavenumber
        # by the float r, theta and phi: (j_nu, Ric'), (Theta, Theta', sin theta) and _azimuthal
        self.radial, self.polar, self.azimuthal = (mode._memo.get_or(key, _FactorMemo) for key in ("r", "theta", "phi"))
        self.r = self.theta = None

    def fill(self, mode: ModeSpec, r: float, theta: float) -> None:
        """The row cache at (r, theta), from the factor tables."""
        nu, a, nn1, k = self.nu, self.a, self.nn1, self.k
        jv, rp = self.radial.get(r) or self.radial.get_or(r, lambda: (spherical_j(nu, k * r), riccati_deriv(nu, k * r)))
        th, dth, s = self.polar.get(theta) or self.polar.get_or(theta, lambda: (*mode.polar(theta), math.sin(theta)))
        double = (nn1 / r * a * jv * th, a / r * rp * dth, a / (r * s) * rp * th)
        single = (0.0, self.ca / s * jv * th, self.nca * jv * dth)
        self.row = np.array((double, single), dtype=complex)
        self.r, self.theta = r, theta


def _sample(
    mode: ModeSpec, point: tuple[float, float, float], polarization: RootKind | None = None
) -> FieldSample:
    """Six components at (r, theta, phi).

    ``polarization`` overrides the mode's own tag to evaluate the
    dual-polarization wave sharing the same (nu, m, omega); duality statements
    compare TE and TM at a common frequency.
    """
    r, theta, phi = point
    memo = mode._memo
    # keyed by the polarization asked for, None for the mode's own: a hit is one dict lookup,
    # a miss computes and stores through get_or
    p = memo.get(polarization) or memo.get_or(
        polarization, lambda: _Polarized(mode, polarization or mode.polarization)
    )
    if not (0.0 < r <= p.r_hi and p.theta_lo < theta < math.pi and p.phi_lo <= phi <= p.phi_hi):
        _check_point(mode, r, theta, phi)  # raises, with the message for the failed bound
    if r != p.r or theta != p.theta:
        p.fill(mode, r, theta)
    f = p.azimuthal.get(phi)
    if f is None:
        f = p.azimuthal.get_or(phi, lambda: _azimuthal(mode, phi))
    # one product per point, its rows the double curl (E for TM, H for TE) and the single
    curls = p.row * f
    if p.tm:
        return FieldSample(point=point, E=curls[0], H=curls[1])
    return FieldSample(point=point, E=curls[1], H=curls[0])


def evaluate(mode: ModeSpec, point: tuple[float, float, float]) -> FieldSample:
    """All six field components at (r, theta, phi)."""
    return _sample(mode, point)


def make_mode(
    polarization: RootKind,
    eigenpair: AngularEigenpair,
    n: int,
    radius_m: float,
    amplitude: complex = 1.0 + 0.0j,
    domain: AngularDomain = FULL_SPHERE,
) -> ModeSpec:
    """Assemble a ModeSpec with the n-th radial root of the polarization."""
    return ModeSpec(eigenpair, radial_root(eigenpair.nu, n, polarization), radius_m, amplitude, domain)


def wave_impedances(
    mode: ModeSpec,
    r: float,
    theta: float,
    phi: float | None = None,
    polarization: RootKind | None = None,
) -> complex:
    """Wave impedance as a ratio of evaluated transverse components.

    TE uses E_theta/H_r and TM uses E_r/H_theta when m > 0; the zonal (m = 0)
    variants fall back to E_phi/H_theta and E_theta/H_phi.  Pass
    ``polarization`` to evaluate the dual wave at the mode's own frequency;
    the product of the two dual ratios equals -mu/eps identically for
    traveling modes (TE and TM resonate at different frequencies, so duality
    is a same-frequency statement).
    """
    if phi is None:
        phi = 0.0 if mode.domain.full_azimuth else 0.5 * mode.domain.azimuth_opening_rad
    if polarization is None:
        polarization = mode.polarization
    sample = _sample(mode, (r, theta, phi), polarization)
    zonal = mode.eigenpair.m == 0.0
    if polarization is RootKind.TE_JZERO:
        num, den = (sample.E[2], sample.H[1]) if zonal else (sample.E[1], sample.H[0])
    else:
        num, den = (sample.E[1], sample.H[2]) if zonal else (sample.E[0], sample.H[1])
    if den == 0 or not cmath.isfinite(num / den):
        raise ImpedanceUndefinedError(
            f"impedance undefined at r={r}, theta={theta}: denominator is a field null"
        )
    return num / den


def poynting(sample: FieldSample) -> np.ndarray:
    """Time-averaged Poynting vector S = 1/2 Re(E x H*), spherical basis."""
    return 0.5 * np.real(np.cross(sample.E, np.conj(sample.H)))
