import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from sphcav import energy
from sphcav.angular import AngularDomain, AngularEigenpair, Family, classify, cone_nu
from sphcav.energy import (
    mode_energy,
    radial_integrable,
    sectoral_angular_norm,
    zonal_norm,
)
from sphcav.errors import DomainError
from sphcav.fields import evaluate, make_mode
from sphcav.radial import RootKind
from sphcav.specfun import legendre_theta

A_RADIUS = 0.015


def quad_sin_power(p):
    val, _ = quad(lambda t: math.sin(t) ** p, 0.0, math.pi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def test_radial_integrable():
    assert radial_integrable(1.0 / 3.0)
    assert not radial_integrable(-0.5)
    assert radial_integrable(2.0)
    assert not radial_integrable(-0.7)


def test_sectoral_norm_elementary_values():
    assert sectoral_angular_norm(0.0) == pytest.approx(2.0, rel=1e-14)
    assert sectoral_angular_norm(1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_sectoral_norm_vs_quadrature_oracle():
    m = 2.0 / 3.0
    assert sectoral_angular_norm(m) == pytest.approx(quad_sin_power(2.0 * m + 1.0), rel=1e-10)


def test_sectoral_norm_grid_agreement():
    for m in np.arange(0.1, 5.05, 0.1):
        assert sectoral_angular_norm(float(m)) == pytest.approx(
            quad_sin_power(2.0 * float(m) + 1.0), rel=1e-8
        )


def test_sectoral_norm_domain():
    with pytest.raises(DomainError):
        sectoral_angular_norm(-1.0)


def test_zonal_norms_exact():
    assert zonal_norm(0) == 2.0
    assert zonal_norm(1) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert zonal_norm(3) == pytest.approx(2.0 / 7.0, rel=1e-15)
    for ell in range(11):
        assert zonal_norm(ell) == 2.0 / (2 * ell + 1)
    with pytest.raises(DomainError):
        zonal_norm(-1)


def test_near_pole_cap_integral_scaling():
    # the 1/sin(theta) components contribute m^2 sin^(2m-2); the cap integral
    # over [0, eps] behaves as m eps^(2m) / 2 and its fitted exponent is 2m
    for m in (0.5, 1.0, 1.5):

        def cap(eps):
            val, _ = quad(
                lambda t: (m * math.sin(t) ** (m - 1.0)) ** 2 * math.sin(t),
                0.0,
                eps,
                epsabs=1e-18,
                epsrel=1e-11,
                limit=200,
            )
            return val

        for eps in (1e-3, 3e-3):
            assert cap(eps) == pytest.approx(m * eps ** (2.0 * m) / 2.0, rel=1e-3)
        lo, hi = 1e-3, 1e-2
        exponent = (math.log(cap(hi)) - math.log(cap(lo))) / (math.log(hi) - math.log(lo))
        assert exponent == pytest.approx(2.0 * m, rel=0.02)


def sectoral_mode(m, kind=RootKind.TM_RICCATI_DERIV_ZERO, domain=None):
    pair = AngularEigenpair(nu=m, m=m, family=Family.SECTORAL, k=0)
    return make_mode(kind, pair, 1, A_RADIUS, domain=domain or AngularDomain())


def test_mode_energy_null_is_zero():
    pair = AngularEigenpair(nu=0.0, m=0.0, family=Family.NULL)
    mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS)
    rep = mode_energy(mode)
    assert rep.total_energy == 0.0
    assert rep.radial_integrable


@pytest.mark.parametrize(
    "kind, nu, m, i_theta",
    [(RootKind.TM_RICCATI_DERIV_ZERO, 3.0, 1.0, 2.0 / 21.0), (RootKind.TE_JZERO, 2.0, 0.0, 0.4)],
)
def test_mode_energy_reads_nu_and_m_not_the_family_label(kind, nu, m, i_theta):
    # a SECTORAL label used to give I_theta = 4/3 for (3, 1), 14x the mode's energy, and 2.0 for (2, 0)
    reports = [mode_energy(make_mode(kind, AngularEigenpair(nu, m, family), 1, 0.015)) for family in Family]
    assert len({(r.angular_norm, r.total_energy) for r in reports}) == 1
    assert reports[0].angular_norm == pytest.approx(i_theta, rel=1e-9)


def test_mode_energy_report_structure():
    mode = sectoral_mode(1.0)
    rep = mode_energy(mode)
    assert rep.radial_integrable
    assert rep.angular_norm == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert rep.total_energy > 0.0
    assert set(rep.factorization) == {"I_r", "I_theta", "I_phi"}
    assert rep.factorization["I_phi"] == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert rep.factorization["I_r"] > 0.0


def test_mode_energy_closed_form_vs_quadrature():
    # the closed forms of a cone-free sectoral and tesseral mode with non-integer m vs quadrature
    m = 2.0 / 3.0
    rep = mode_energy(sectoral_mode(m))
    assert rep.angular_norm == pytest.approx(quad_sin_power(2.0 * m + 1.0), rel=1e-8)
    pair = AngularEigenpair(nu=m + 1.0, m=m, family=Family.TESSERAL, k=1)
    mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS)
    rep_t = mode_energy(mode)

    def integrand(t):
        return (math.sin(t) ** m * math.cos(t) * (2.0 * m + 1.0) / (2.0 * m)) ** 2 * math.sin(t)

    # nu = m+1 polar profile is proportional to sin^m cos; compare shapes via
    # ratio at the same normalization instead of absolute scale
    from sphcav.specfun import legendre_theta

    val, _ = quad(
        lambda t: legendre_theta(m + 1.0, m, t) ** 2 * math.sin(t),
        0.0,
        math.pi,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=300,
    )
    assert rep_t.angular_norm == pytest.approx(val, rel=1e-8)


def test_mode_energy_wedge_halves_azimuthal_weight():
    wedge = AngularDomain(azimuth_opening_rad=1.5 * math.pi)
    rep = mode_energy(sectoral_mode(2.0 / 3.0, domain=wedge))
    assert rep.factorization["I_phi"] == pytest.approx(0.75 * math.pi, rel=1e-15)


def test_mode_energy_cone_uses_retained_interval():
    cone = AngularDomain(cone_half_angle_rad=math.radians(33.69))
    from sphcav.angular import cone_nu

    nu = cone_nu(0.0, cone.cone_half_angle_rad, "TM", 1)
    pair = AngularEigenpair(nu=nu, m=0.0, family=Family.ZONAL)
    mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=cone)
    rep = mode_energy(mode)
    from sphcav.specfun import legendre_theta

    want, _ = quad(
        lambda t: legendre_theta(nu, 0.0, math.pi - t) ** 2 * math.sin(t),
        cone.cone_half_angle_rad,
        math.pi,
        epsabs=1e-14,
        epsrel=1e-10,
        limit=300,
    )
    assert rep.angular_norm == pytest.approx(want, rel=1e-7)
    assert rep.total_energy > 0.0


def test_energy_invariant_under_azimuthal_rotation():
    mode = sectoral_mode(1.0)
    for r, th in ((0.006, 0.9), (0.011, 2.0)):
        mags = [np.abs(evaluate(mode, (r, th, phi)).E) for phi in (0.0, 1.3, 4.4)]
        for other in mags[1:]:
            assert np.allclose(mags[0], other, rtol=1e-13)


def test_total_energy_vs_field_sample_riemann_oracle():
    # independent route: midpoint sum of (eps|E|^2 + mu|H|^2)/4 over (r, theta)
    # built from evaluated FieldSamples; the traveling-wave phi integral is
    # exactly the full circle
    mode = sectoral_mode(1.0)
    eps, mu = mode.medium.epsilon, mode.medium.mu
    n_r = n_t = 150
    dr = A_RADIUS / n_r
    dt = math.pi / n_t
    total = 0.0
    for i in range(n_r):
        r = (i + 0.5) * dr
        for j in range(n_t):
            th = (j + 0.5) * dt
            s = evaluate(mode, (r, th, 0.0))
            dens = eps * float(np.sum(np.abs(s.E) ** 2)) + mu * float(np.sum(np.abs(s.H) ** 2))
            total += dens * r * r * math.sin(th) * dr * dt
    total *= 0.25 * 2.0 * math.pi
    assert mode_energy(mode).total_energy == pytest.approx(total, rel=1e-3)


def test_total_energy_scales_with_amplitude_squared():
    pair = AngularEigenpair(nu=1.0, m=1.0, family=Family.SECTORAL, k=0)
    one = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, amplitude=1.0)
    three = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, amplitude=3.0)
    assert mode_energy(three).total_energy == pytest.approx(
        9.0 * mode_energy(one).total_energy, rel=1e-9
    )


# --- closed form vs an independent field grid -----------------------------------------


def _gauss(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + 0.5 * (hi - lo) * (x + 1.0), 0.5 * (hi - lo) * w


def grid_energies(mode, n_r=24, n_t=32, n_p=10):
    """(U_E, U_M) summed from evaluate() samples on a Gauss-Legendre grid.

    r = a u^2 and a quintic smoothstep in theta cluster nodes at the origin
    and at both ends of the polar interval, where non-integer nu and m make
    the integrand non-smooth.  Traveling waves do not depend on phi, so one
    phi node carries the full circle; wedges get their own phi rule.
    """
    a = mode.radius_m
    u, wu = _gauss(n_r, 0.0, 1.0)
    r, wr = a * u * u, wu * 2.0 * a * u
    lo = mode.domain.cone_half_angle_rad
    s, ws = _gauss(n_t, 0.0, 1.0)
    th = lo + (math.pi - lo) * s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
    wt = ws * (math.pi - lo) * 30.0 * s * s * (1.0 - s) ** 2
    if mode.domain.full_azimuth:
        ph, wp = np.array([0.7]), np.array([2.0 * math.pi])
    else:
        ph, wp = _gauss(n_p, 0.0, mode.domain.azimuth_opening_rad)
    u_e = u_m = 0.0
    for ri, wri in zip(r, wr):
        for tj, wtj in zip(th, wt):
            for pk, wpk in zip(ph, wp):
                sample = evaluate(mode, (float(ri), float(tj), float(pk)))
                dv = wri * wtj * wpk * ri * ri * math.sin(tj)
                u_e += dv * float(np.sum(np.abs(sample.E) ** 2))
                u_m += dv * float(np.sum(np.abs(sample.H) ** 2))
    return 0.25 * mode.medium.epsilon * u_e, 0.25 * mode.medium.mu * u_m


CONE_20 = AngularDomain(cone_half_angle_rad=math.radians(20.0))


def cone_mode(m, kind, nu_shift=0.0):
    from sphcav.angular import cone_nu

    pol = "TM" if kind is RootKind.TM_RICCATI_DERIV_ZERO else "TE"
    nu = cone_nu(m, CONE_20.cone_half_angle_rad, pol, 1) + nu_shift
    family = Family.ZONAL if m == 0.0 else Family.TESSERAL
    return make_mode(kind, AngularEigenpair(nu=nu, m=m, family=family), 1, A_RADIUS, domain=CONE_20)


def wedge_tesseral_mode():
    m = 2.0 / 3.0
    pair = AngularEigenpair(nu=m + 1.0, m=m, family=Family.TESSERAL, k=1)
    wedge = AngularDomain(azimuth_opening_rad=1.5 * math.pi)
    return make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=wedge)


@pytest.mark.parametrize(
    "build",
    [
        lambda: cone_mode(0.0, RootKind.TM_RICCATI_DERIV_ZERO),
        lambda: cone_mode(1.0, RootKind.TE_JZERO),
        wedge_tesseral_mode,
    ],
    ids=["cone20_TM_zonal", "cone20_TE_m1", "wedge270_TM_tesseral"],
)
def test_mode_energy_vs_gauss_legendre_field_grid(build):
    mode = build()
    u_e, u_m = grid_energies(mode)
    assert u_e == pytest.approx(u_m, rel=1e-6)
    assert mode_energy(mode).total_energy == pytest.approx(u_e + u_m, rel=1e-6)


def sphere_mode_off_wall_root():
    mode = sectoral_mode(1.0)
    return replace(mode, radial=replace(mode.radial, x=mode.radial.x * 1.01))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cone_mode(0.0, RootKind.TM_RICCATI_DERIV_ZERO, nu_shift=1e-3),
        lambda: cone_mode(1.0, RootKind.TE_JZERO, nu_shift=1e-3),
        sphere_mode_off_wall_root,
    ],
    ids=["cone20_TM_zonal_nu_off", "cone20_TE_m1_nu_off", "sphere_TM_sectoral_x_off"],
)
def test_mode_energy_keeps_boundary_terms_off_the_root(build):
    """A nu off its cone root or an x off its wall root breaks U_E = U_M;
    the closed form's boundary terms still give the grid's total."""
    mode = build()
    u_e, u_m = grid_energies(mode)
    assert abs(u_e - u_m) > 1e-4 * (u_e + u_m)
    assert mode_energy(mode).total_energy == pytest.approx(u_e + u_m, rel=1e-6)


@pytest.mark.parametrize(
    "build, rel",
    [
        (lambda: sectoral_mode(1.0), 1e-14),
        (wedge_tesseral_mode, 1e-14),
        # the cone boundary term sin(theta_c) Theta Theta' is ~1e-11 at the computed root
        (lambda: cone_mode(1.0, RootKind.TE_JZERO), 1e-9),
    ],
    ids=["sphere_TM_sectoral", "wedge270_TM_tesseral", "cone20_TE_m1"],
)
def test_total_energy_is_the_product_of_its_factors(build, rel):
    mode = build()
    rep = mode_energy(mode)
    nu = mode.eigenpair.nu
    w = mode.medium.epsilon if mode.polarization is RootKind.TM_RICCATI_DERIV_ZERO else mode.medium.mu
    k = mode.wavenumber
    want = 0.5 * abs(mode.amplitude) ** 2 * w * nu * (nu + 1.0) * k * k * A_RADIUS**3
    want *= math.prod(rep.factorization.values())
    assert rep.total_energy == pytest.approx(want, rel=rel)


# --- the polar norm: closed form without a cone, Theta alone across one -----------------

WEDGE_270 = AngularDomain(azimuth_opening_rad=1.5 * math.pi)
WEDGE_355 = AngularDomain(azimuth_opening_rad=math.radians(355.0))
PMC_270 = AngularDomain(azimuth_opening_rad=1.5 * math.pi, face_kind="PEC_PMC")
CONE_FREE_ORDERS = [
    (0.0, AngularDomain()),
    (1.0 / 3.0, PMC_270),
    (math.pi / WEDGE_355.azimuth_opening_rad, WEDGE_355),
    (2.0 / 3.0, WEDGE_270),
    (1.0, AngularDomain()),
    (4.0 / 3.0, WEDGE_270),
    (2.5, AngularDomain()),
    (7.3, AngularDomain()),
]


def cone_free_mode(nu, m, domain):
    pair = AngularEigenpair(nu, m, classify(nu, m))
    return make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=domain)


@pytest.mark.parametrize(
    "m, domain",
    CONE_FREE_ORDERS,
    ids=["sphere_m0", "pmc270_m1_3", "wedge355_m_pi_Phi", "wedge270_m2_3", "sphere_m1", "wedge270_m4_3",
         "sphere_m2.5", "sphere_m7.3"],
)
def test_cone_free_angular_norm_vs_mpmath(m, domain):
    """I_theta = 4^m Gamma(m+1)^2 2/(2nu+1) k!/Gamma(nu+m+1) for nu = m + k, to 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        mm = mp.mpf(m)
        for k in range(13):
            got = mode_energy(cone_free_mode(m + k, m, domain)).angular_norm
            nu = mm + k
            want = 4**mm * mp.gamma(mm + 1) ** 2 * 2 / (2 * nu + 1) * mp.factorial(k) / mp.gamma(nu + mm + 1)
            assert abs(got - want) <= 1e-13 * want, (m, k)


@pytest.mark.parametrize(
    "nu, m, domain", [(3.0, 1.0, AngularDomain()), (5.0 / 3.0, 2.0 / 3.0, WEDGE_270)], ids=["sphere", "wedge270"]
)
def test_cone_free_mode_energy_runs_no_quadrature(monkeypatch, nu, m, domain):
    def refuse(*args, **kwargs):
        raise AssertionError("quad called without a cone")

    monkeypatch.setattr(energy, "quad", refuse)
    assert mode_energy(cone_free_mode(nu, m, domain)).total_energy > 0.0


@pytest.mark.parametrize("cone_deg", [5.0, 20.0, 45.0])
@pytest.mark.parametrize(
    "m, pol, opening",
    [(0.0, "TM", 2.0 * math.pi), (1.0, "TE", 2.0 * math.pi), (2.0 / 3.0, "TM", 1.5 * math.pi)],
    ids=["TM_m0", "TE_m1", "wedge270_TM_m2_3"],
)
def test_cone_norm_integrates_the_polar_value_alone(cone_deg, m, pol, opening):
    """ModeSpec.polar's value is legendre_theta at pi - theta, and I_theta integrates it."""
    tc = math.radians(cone_deg)
    domain = AngularDomain(azimuth_opening_rad=opening, cone_half_angle_rad=tc)
    nu = cone_nu(m, tc, pol, 1)
    kind = RootKind.TM_RICCATI_DERIV_ZERO if pol == "TM" else RootKind.TE_JZERO
    mode = make_mode(kind, AngularEigenpair(nu, m, classify(nu, m, cone_present=True)), 1, A_RADIUS, domain=domain)
    for theta in np.linspace(tc, math.pi, 41)[:-1].tolist():  # legendre_theta takes theta inside (0, pi)
        assert mode.polar(theta)[0] == legendre_theta(nu, m, math.pi - theta)
    via_polar = energy._quad(lambda t: mode.polar(t)[0] ** 2 * math.sin(t), tc, math.pi)
    assert mode_energy(mode).angular_norm == via_polar


def test_high_order_cone_norm_vs_mpmath():
    # I_theta ~ 1.2e-7 lies far below any absolute quadrature floor: the tolerance is relative
    tc = math.radians(20.0)
    nu, m = cone_nu(12.0, tc, "TM", 8), 12.0
    domain = AngularDomain(cone_half_angle_rad=tc)
    pair = AngularEigenpair(nu, m, Family.TESSERAL)
    got = mode_energy(make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=domain)).angular_norm
    with mp.workdps(30):
        mm, v = mp.mpf(m), mp.mpf(nu)

        def integrand(t):  # t = pi - theta, measured from the retained pole
            return mp.sin(t) ** (2 * mm + 1) * mp.hyp2f1(mm - v, mm + v + 1, mm + 1, mp.sin(t / 2) ** 2) ** 2

        end = mp.pi - mp.mpf(tc)
        want = float(mp.quad(integrand, [0, end / 4, end / 2, 3 * end / 4, end]))
    assert got == pytest.approx(want, rel=1e-11)
