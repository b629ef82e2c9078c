"""Energy integrability, angular norms, and mode-energy quadratures.

The stored energy of a time-harmonic mode is
    U = 1/4 int (eps |E|^2 + mu |H|^2) dV,
with the 1/4 from time-averaging.  For separated modes the azimuthal
integral is elementary (|e^{im phi}|^2 = 1; sin^2/cos^2 average to 1/2 over
the opening), so U reduces to an adaptive 2-D quadrature over (r, theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .angular import Family
from .errors import DomainError, IntegrationError
from .fields import ModeSpec
from .specfun import ln_gamma, riccati_deriv, spherical_j

__all__ = [
    "EnergyReport",
    "radial_integrable",
    "sectoral_angular_norm",
    "zonal_norm",
    "mode_energy",
    "unit_energy_mode",
]


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


def _phi_weights(mode: ModeSpec) -> tuple[float, float]:
    """Azimuthal integrals of |Phi|^2 and |Phi'|^2 over the opening."""
    opening = mode.domain.azimuth_opening_rad
    m = mode.eigenpair.m
    if mode.azimuthal_kind == "traveling":
        return opening, m * m * opening
    if m == 0.0:
        # cos branch reduces to a constant; sin branch is identically zero
        return (opening, 0.0) if mode.azimuthal_kind == "cos" else (0.0, 0.0)
    return 0.5 * opening, 0.5 * m * m * opening


def _angular_norm(mode: ModeSpec, quad_rel: float) -> float:
    """int Theta^2 sin(theta) dtheta over the retained polar interval."""
    pair = mode.eigenpair
    if not mode.domain.has_cone:
        if pair.family is Family.SECTORAL:
            return sectoral_angular_norm(pair.m)
        if pair.family in (Family.ZONAL, Family.NULL) and pair.nu == round(pair.nu):
            return zonal_norm(int(round(pair.nu)))

    def integrand(theta: float) -> float:
        return mode.polar(theta)[0] ** 2 * math.sin(theta)

    lo = mode.domain.cone_half_angle_rad
    val, err = quad(integrand, lo, math.pi, epsabs=1e-14, epsrel=quad_rel, limit=400)
    if abs(val) > 0.0 and err > 10.0 * quad_rel * abs(val):
        raise IntegrationError(f"angular norm quadrature error {err:g} too large")
    return val


def _radial_profile_norm(mode: ModeSpec, quad_rel: float) -> float:
    """Dimensionless int_0^1 j_nu(x0 u)^2 u^2 du with x0 the mode's root."""
    nu, x0 = mode.eigenpair.nu, mode.radial.x

    def integrand(u: float) -> float:
        return spherical_j(nu, x0 * u) ** 2 * u * u

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-16, epsrel=quad_rel, limit=200)
    return val


def mode_energy(mode: ModeSpec, quad_rel: float = 1e-9) -> EnergyReport:
    """Stored energy and its factorized ingredients for one mode.

    total_energy integrates the actual field magnitudes (amplitude included);
    I_r and I_theta are the dimensionless profile norms and I_phi the
    azimuthal weight of |Phi|^2.
    """
    eps, mu = mode.medium.epsilon, mode.medium.mu
    w_plain, w_deriv = _phi_weights(mode)
    i_theta = _angular_norm(mode, quad_rel)
    i_r = _radial_profile_norm(mode, quad_rel)
    i_phi = w_plain

    nu = mode.eigenpair.nu
    lam = nu * (nu + 1.0)
    k = mode.wavenumber
    omega = mode.omega
    amp2 = abs(mode.amplitude) ** 2
    tm = mode.polarization.value == "TM"
    # the single-curl block carries (i omega eps) for TM and (i omega mu) for TE
    c_curl2 = (omega * eps) ** 2 if tm else (omega * mu) ** 2
    w_dc, w_sc = (eps, mu) if tm else (mu, eps)

    if mode.eigenpair.family is Family.NULL:
        total = 0.0
    else:

        def inner(theta: float) -> float:
            # polar factors are independent of r; hoist them out of the r-quad
            th, dth = mode.polar(theta)
            s = math.sin(theta)

            def density_r2(r: float) -> float:
                x = k * r
                jv = spherical_j(nu, x)
                rp = riccati_deriv(nu, x)
                dc = (
                    (lam * jv * th) ** 2 * w_plain
                    + (rp * dth) ** 2 * w_plain
                    + (rp * th / s) ** 2 * w_deriv
                )
                sc = c_curl2 * ((jv * th / s) ** 2 * w_deriv + (jv * dth) ** 2 * w_plain)
                return w_dc * dc + w_sc * sc * r * r

            val, _ = quad(
                lambda r: density_r2(r),
                0.0,
                mode.radius_m,
                epsabs=1e-30,
                epsrel=quad_rel,
                limit=300,
            )
            return val * math.sin(theta)

        lo = mode.domain.cone_half_angle_rad
        total, err = quad(inner, lo, math.pi, epsabs=1e-30, epsrel=quad_rel, limit=300)
        total *= 0.25 * amp2
        if total > 0.0 and err * 0.25 * amp2 > 100.0 * quad_rel * total:
            raise IntegrationError(f"energy quadrature error {err:g} too large")

    return EnergyReport(
        radial_integrable=radial_integrable(mode.eigenpair.nu),
        angular_norm=i_theta,
        total_energy=total,
        factorization={"I_r": i_r, "I_theta": i_theta, "I_phi": i_phi},
    )


def unit_energy_mode(mode: ModeSpec, target_joules: float = 1.0) -> ModeSpec:
    """Rescale the amplitude so the stored energy equals ``target_joules``."""
    from dataclasses import replace

    if target_joules <= 0.0:
        raise DomainError("target energy must be positive")
    u = mode_energy(mode).total_energy
    if u == 0.0:
        raise DomainError("cannot normalize a null mode")
    return replace(mode, amplitude=mode.amplitude * math.sqrt(target_joules / u))
