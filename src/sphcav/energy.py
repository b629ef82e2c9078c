"""Energy integrability, angular norms, and closed-form mode energies.

The stored energy of a time-harmonic mode is
    U = 1/4 int (eps |E|^2 + mu |H|^2) dV,
with the 1/4 from time-averaging.  For an eigenmode it factorizes:

    U = 1/2 |A|^2 w nu(nu+1) k^2 a^3 I_r I_theta I_phi,   w = eps (TM), mu (TE)

with I_r = int_0^1 j_nu(x u)^2 u^2 du (x = k a), I_theta = int Theta^2
sin(theta) dtheta over the retained polar interval and I_phi = int |Phi|^2
dphi over the opening.  Without a cone I_theta is the closed-form Ferrers
norm of Theta = 2^m Gamma(m+1) P_nu^{-m}(cos theta); across a cone it is a
1-D quadrature of Theta^2 alone.  Three identities reduce the field
integrals to these factors:

  * radial Green identity: nu(nu+1) int j^2 dr + int Ric'^2 dr =
    k^2 int r^2 j^2 dr + a beta, with beta = j_nu(x) Ric'(x);
  * angular Green identity: int (Theta'^2 + m^2 Theta^2 / sin^2) sin dtheta =
    nu(nu+1) I_theta - b, with b = sin(theta_c) Theta Theta' at the cone
    (b = 0 without one).  Theta must be regular at theta = pi, and at
    theta = 0 when there is no cone;
  * int |Phi'|^2 dphi = m^2 I_phi on every azimuthal branch.

beta = 0 at the wall root and b = 0 at a Dirichlet (TM) or Neumann (TE) cone
root; then U_E = U_M.  Off either root (a nu or x that is not an eigenvalue)
both boundary terms are kept, so the result is still the exact energy of the
separated field:

    U = 1/4 |A|^2 w a I_phi [(nu(nu+1) I_theta - b)(2 x^2 I_r + beta)
                             + b nu(nu+1) J],   J = int_0^1 j_nu(x u)^2 du,

where J, like I_theta across a cone, is one 1-D quadrature, taken for cone
modes only.  I_r is Lommel's integral (DLMF 10.22.5) with j_{nu-1}
eliminated by the recurrence: I_r = [j_nu^2 + j_{nu+1}^2 - (2nu+1)/x j_nu
j_{nu+1}] / 2, so no order below -1/2 is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DomainError, IntegrationError
from .fields import ModeSpec
from .specfun import ln_gamma, riccati_deriv, spherical_j

__all__ = [
    "EnergyReport",
    "radial_integrable",
    "sectoral_angular_norm",
    "zonal_norm",
    "mode_energy",
]

_QUAD_REL = 1e-9  # tolerance of the two 1-D quadratures of a cone mode, purely relative


@dataclass(frozen=True)
class EnergyReport:
    radial_integrable: bool
    angular_norm: float
    total_energy: float  # joules for the mode's stored amplitude
    factorization: dict[str, float]  # I_r, I_theta, I_phi


def radial_integrable(nu: float) -> bool:
    """Finite field energy near the origin requires nu > -1/2."""
    return nu > -0.5


def sectoral_angular_norm(m: float) -> float:
    """int_0^pi sin(theta)^(2m+1) dtheta = sqrt(pi) Gamma(m+1) / Gamma(m+3/2)."""
    if m <= -1.0:
        raise DomainError(f"sectoral angular norm requires m > -1, got {m}")
    return math.sqrt(math.pi) * math.exp(ln_gamma(m + 1.0) - ln_gamma(m + 1.5))


def zonal_norm(ell: int) -> float:
    """Legendre-polynomial norm int_0^pi P_ell(cos)^2 sin dtheta = 2/(2 ell + 1)."""
    if ell < 0 or ell != int(ell):
        raise DomainError("zonal norm is defined for integer ell >= 0")
    return 2.0 / (2.0 * ell + 1.0)


def _phi_weight(mode: ModeSpec) -> float:
    """Azimuthal integral of |Phi|^2 over the opening: the whole opening for exp(i m phi)
    and for the constant cos(0 phi), half of it for sin(m phi) and cos(m phi) with m > 0."""
    opening = mode.domain.azimuth_opening_rad
    return opening if mode.domain.full_azimuth or mode.eigenpair.m == 0.0 else opening / 2


def _quad(f, lo: float, hi: float) -> float:
    # no absolute floor: I_theta of a high order and branch lies far below any fixed one
    val, err = quad(f, lo, hi, epsabs=0.0, epsrel=_QUAD_REL, limit=400)
    if abs(val) > 0.0 and err > 10.0 * _QUAD_REL * abs(val):
        raise IntegrationError(f"energy quadrature error {err:g} too large")
    return val


def _angular_norm(mode: ModeSpec) -> float:
    """int Theta^2 sin(theta) dtheta over the retained polar interval.  Without a cone
    Theta = 2^m Gamma(m+1) P_nu^{-m}(cos theta) with nu - m = k in N, whose Ferrers norm
    (DLMF 14.17(iii)) is S(m) (2m+1)/(2nu+1) k! Gamma(2m+1)/Gamma(nu+m+1), S the sectoral
    norm; across a cone Theta alone, regular at theta = pi, is integrated up to pi."""
    nu, m = mode.eigenpair.nu, mode.eigenpair.m
    if not mode.domain.has_cone:
        gammas = ln_gamma(nu - m + 1.0) + ln_gamma(2.0 * m + 1.0) - ln_gamma(nu + m + 1.0)
        return sectoral_angular_norm(m) * ((2.0 * m + 1.0) / (2.0 * nu + 1.0)) * math.exp(gammas)
    polar_value, theta_c = mode.domain.polar_value, mode.domain.cone_half_angle_rad
    return _quad(lambda theta: polar_value(nu, m, theta) ** 2 * math.sin(theta), theta_c, math.pi)


def mode_energy(mode: ModeSpec) -> EnergyReport:
    """Stored energy and its factorized ingredients for one mode.

    For an eigenmode total_energy = 1/2 |A|^2 w nu(nu+1) k^2 a^3 I_r I_theta
    I_phi; off the wall or cone root the boundary terms of the module
    docstring are added.  I_r and I_theta are the dimensionless profile norms
    and I_phi the azimuthal weight of |Phi|^2, all closed forms without a cone;
    across one I_theta and J are 1-D quadratures to a relative tolerance of 1e-9.
    """
    nu, x = mode.eigenpair.nu, mode.radial.x
    lam = nu * (nu + 1.0)
    i_theta = _angular_norm(mode)
    j0, j1 = spherical_j(nu, x), spherical_j(nu + 1.0, x)
    i_r = 0.5 * (j0 * j0 + j1 * j1 - (2.0 * nu + 1.0) / x * j0 * j1)
    i_phi = _phi_weight(mode)
    beta = j0 * riccati_deriv(nu, x)
    b = j_sq = 0.0
    if mode.domain.has_cone:
        theta_c = mode.domain.cone_half_angle_rad
        th, dth = mode.polar(theta_c)
        b = math.sin(theta_c) * th * dth
        # u = s^2 smooths the u^(2 nu) start of j_nu(x u)^2
        j_sq = _quad(lambda s: 2.0 * s * spherical_j(nu, x * s * s) ** 2, 0.0, 1.0)

    w = mode.medium.epsilon if mode.polarization.value == "TM" else mode.medium.mu
    bracket = (lam * i_theta - b) * (2.0 * x * x * i_r + beta) + b * lam * j_sq
    total = 0.25 * abs(mode.amplitude) ** 2 * w * mode.radius_m * i_phi * bracket
    return EnergyReport(
        radial_integrable=radial_integrable(nu),
        angular_norm=i_theta,
        total_energy=total,
        factorization={"I_r": i_r, "I_theta": i_theta, "I_phi": i_phi},
    )
