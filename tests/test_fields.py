import cmath
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from sphcav import fields
from sphcav.angular import AngularDomain, AngularEigenpair, Family, classify, cone_nu
from sphcav.errors import ClassificationError, DomainError, ImpedanceUndefinedError, SphcavError
from sphcav.fields import (
    _MEMO_LIMIT,
    FULL_SPHERE,
    FieldSample,
    VACUUM,
    evaluate,
    make_mode,
    poynting,
    wave_impedances,
)
from sphcav.radial import RootKind, radial_root
from sphcav.specfun import riccati_deriv, spherical_j

A_RADIUS = 0.015
WEDGE_270 = AngularDomain(azimuth_opening_rad=1.5 * math.pi)


def sectoral(m):
    return AngularEigenpair(nu=m, m=m, family=Family.SECTORAL, k=0)


def tm_mode(m=1.0, n=1, domain=FULL_SPHERE):
    return make_mode(RootKind.TM_RICCATI_DERIV_ZERO, sectoral(m), n, A_RADIUS, domain=domain)


def te_mode(m=1.0, n=1, domain=FULL_SPHERE):
    return make_mode(RootKind.TE_JZERO, sectoral(m), n, A_RADIUS, domain=domain)


@pytest.mark.parametrize("kind", list(RootKind))
def test_make_mode_takes_a_kind_or_its_value(kind):
    # make_mode("TE", ...) used to build the mode on the TM root
    got = make_mode(kind.value, sectoral(2.0), 1, A_RADIUS)
    assert got == make_mode(kind, sectoral(2.0), 1, A_RADIUS) and got.polarization is kind
    for bad in ("te", "TEM", None):
        with pytest.raises(DomainError, match="radial kind"):
            make_mode(bad, sectoral(2.0), 1, A_RADIUS)


# --- structural zeros and the null mode ---------------------------------------


def test_structural_zeros_exact():
    tm = tm_mode()
    te = te_mode()
    for point in ((0.004, 0.8, 0.1), (0.012, 2.1, 2.9)):
        assert evaluate(tm, point).H[0] == 0.0
        assert evaluate(te, point).E[0] == 0.0


def test_null_point_generates_no_field():
    null_pair = AngularEigenpair(nu=0.0, m=0.0, family=Family.NULL)
    rng = np.random.default_rng(7)
    for kind in (RootKind.TM_RICCATI_DERIV_ZERO, RootKind.TE_JZERO):
        mode = make_mode(kind, null_pair, 1, A_RADIUS)
        for _ in range(100):
            point = (
                float(rng.uniform(1e-4, A_RADIUS)),
                float(rng.uniform(0.05, math.pi - 0.05)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            sample = evaluate(mode, point)
            assert np.all(sample.E == 0.0)
            assert np.all(sample.H == 0.0)


# --- wall conditions -------------------------------------------------------------


def _interior_peak(mode):
    peak = 0.0
    for r in np.linspace(0.2 * A_RADIUS, 0.95 * A_RADIUS, 7):
        for th in np.linspace(0.4, math.pi - 0.4, 7):
            s = evaluate(mode, (float(r), float(th), 0.3))
            peak = max(peak, np.abs(s.E).max())
    return peak


def test_tangential_e_vanishes_on_wall():
    for mode in (tm_mode(), te_mode()):
        peak = _interior_peak(mode)
        for th in (0.5, 1.3, 2.4):
            s = evaluate(mode, (A_RADIUS, th, 0.9))
            assert abs(s.E[1]) < 1e-8 * peak
            assert abs(s.E[2]) < 1e-8 * peak


# --- Maxwell consistency (finite-difference curl oracle) ---------------------------


def _fd_curl(field_at, r, theta, phi, h=1e-7):
    """Central-difference curl in spherical coordinates; oracle only."""

    def partial(f, axis):
        dp = [0.0, 0.0, 0.0]
        dp[axis] = h
        plus = f(r + dp[0], theta + dp[1], phi + dp[2])
        minus = f(r - dp[0], theta - dp[1], phi - dp[2])
        return (plus - minus) / (2.0 * h)

    F = field_at
    s = math.sin(theta)
    d_theta = partial(lambda rr, tt, pp: F(rr, tt, pp), 1)
    d_phi = partial(lambda rr, tt, pp: F(rr, tt, pp), 2)
    d_r = partial(lambda rr, tt, pp: F(rr, tt, pp), 0)
    f0 = F(r, theta, phi)
    curl_r = (math.cos(theta) * f0[2] + s * d_theta[2] - d_phi[1]) / (r * s)
    curl_t = (d_phi[0] / s - f0[2] - r * d_r[2]) / r
    curl_p = (f0[1] + r * d_r[1] - d_theta[0]) / r
    return np.array([curl_r, curl_t, curl_p])


@pytest.mark.parametrize("maker", [tm_mode, te_mode])
def test_fields_satisfy_maxwell(maker):
    mode = maker(m=1.0)
    omega = mode.omega
    eps, mu = mode.medium.epsilon, mode.medium.mu

    def e_at(r, t, p):
        return evaluate(mode, (r, t, p)).E

    def h_at(r, t, p):
        return evaluate(mode, (r, t, p)).H

    for point in ((0.007, 1.0, 0.4), (0.011, 2.0, 1.7)):
        r, t, p = point
        curl_e = _fd_curl(e_at, r, t, p)
        curl_h = _fd_curl(h_at, r, t, p)
        want_e = 1j * omega * mu * h_at(r, t, p)
        want_h = -1j * omega * eps * e_at(r, t, p)
        scale_e = np.abs(want_e).max() + np.abs(curl_e).max()
        scale_h = np.abs(want_h).max() + np.abs(curl_h).max()
        assert np.abs(curl_e - want_e).max() < 1e-5 * scale_e
        assert np.abs(curl_h - want_h).max() < 1e-5 * scale_h


# --- impedances ---------------------------------------------------------------------


def test_impedance_duality_product():
    # TE and TM waves sharing (nu, m, omega): the component-ratio product is
    # exactly -mu/eps
    rng = np.random.default_rng(11)
    mode = tm_mode(m=1.0)
    eta2 = VACUUM.mu / VACUUM.epsilon
    for _ in range(50):
        r = float(rng.uniform(0.1 * A_RADIUS, A_RADIUS))
        th = float(rng.uniform(0.3, math.pi - 0.3))
        z_tm = wave_impedances(mode, r, th)
        z_te = wave_impedances(mode, r, th, polarization=RootKind.TE_JZERO)
        prod = z_te * z_tm
        assert abs(prod + eta2) <= 1e-12 * eta2
    assert abs(eta2 - 1.41926e5) / eta2 < 1e-4


def test_impedance_imaginary_for_standing_waves():
    mode = te_mode(m=2.0 / 3.0, domain=WEDGE_270)
    z = wave_impedances(mode, 0.008, 1.2, phi=0.4)
    assert abs(z.real) < 1e-12 * abs(z)
    mode_tm = tm_mode(m=2.0 / 3.0, domain=WEDGE_270)
    z_tm = wave_impedances(mode_tm, 0.008, 1.2, phi=0.4)
    assert abs(z_tm.real) < 1e-12 * abs(z_tm)


def test_zonal_impedance_scaling():
    # zonal TM variant: Z * x j(x) / Ric'(x) = -i eta exactly, and x |Z|
    # approaches (nu+1) eta at small radius
    pair = AngularEigenpair(nu=1.0, m=0.0, family=Family.ZONAL, k=1)
    mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS)
    eta = VACUUM.impedance
    k = mode.wavenumber
    for r in (0.5 * A_RADIUS, 0.01 * A_RADIUS, 0.001 * A_RADIUS):
        x = k * r
        z = wave_impedances(mode, r, 1.1)
        ratio = z * x * spherical_j(1.0, x) / riccati_deriv(1.0, x)
        assert cmath.isclose(ratio, -1j * eta, rel_tol=1e-12)
    x_small = k * 0.001 * A_RADIUS
    assert abs(wave_impedances(mode, 0.001 * A_RADIUS, 1.1)) * x_small == pytest.approx(
        2.0 * eta, rel=1e-4
    )


def test_zonal_te_impedance_uses_field_ratio():
    pair = AngularEigenpair(nu=1.0, m=0.0, family=Family.ZONAL, k=1)
    mode = make_mode(RootKind.TE_JZERO, pair, 1, A_RADIUS)
    r = 0.4 * A_RADIUS
    x = mode.wavenumber * r
    eta = VACUUM.impedance
    want = -1j * eta * x * spherical_j(1.0, x) / riccati_deriv(1.0, x)
    assert cmath.isclose(wave_impedances(mode, r, 0.9), want, rel_tol=1e-12)


def test_impedance_undefined_at_null():
    null_pair = AngularEigenpair(nu=0.0, m=0.0, family=Family.NULL)
    mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, null_pair, 1, A_RADIUS)
    with pytest.raises(ImpedanceUndefinedError):
        wave_impedances(mode, 0.007, 1.0)


# --- Poynting flow -------------------------------------------------------------------


def test_poynting_zero_field():
    z = np.zeros(3, dtype=complex)
    s = poynting(FieldSample(point=(0.01, 1.0, 0.0), E=z, H=z))
    assert np.all(s == 0.0)


def test_poynting_standing_wave_has_no_azimuthal_flow():
    mode = tm_mode(m=2.0 / 3.0, domain=WEDGE_270)
    for phi in (0.3, 1.1, 2.2):
        s = poynting(evaluate(mode, (0.008, 1.2, phi)))
        assert s[2] == pytest.approx(0.0, abs=1e-20)


def test_poynting_traveling_tm_azimuthal_sign():
    mode = tm_mode(m=1.0)
    sample = evaluate(mode, (0.008, 1.2, 0.5))
    assert poynting(sample)[2] > 0.0
    # the opposite-helicity (m -> -m) wave flips the Phi'-carrying components,
    # hence the azimuthal flow
    flipped = FieldSample(
        point=sample.point,
        E=sample.E * np.array([1.0, 1.0, -1.0]),
        H=sample.H * np.array([1.0, -1.0, 1.0]),
    )
    assert poynting(flipped)[2] == pytest.approx(-poynting(sample)[2], rel=1e-14)


def test_sectoral_energy_latitude_profile():
    # |Theta|^2 relative to the equator is sin^(2m)
    for m in (0.5, 1.0, 2.5):
        mode = tm_mode(m=m)
        mid = np.abs(evaluate(mode, (0.008, math.pi / 2.0, 0.0)).E[0])
        for th in (0.4, 1.0, 2.0):
            ratio = (np.abs(evaluate(mode, (0.008, th, 0.0)).E[0]) / mid) ** 2
            assert ratio == pytest.approx(math.sin(th) ** (2.0 * m), rel=1e-12)


# --- conventions and domains ------------------------------------------------------------


def test_standing_kind_selected_per_polarization():
    tm = tm_mode(m=2.0 / 3.0, domain=WEDGE_270)
    te = te_mode(m=2.0 / 3.0, domain=WEDGE_270)
    assert tm.azimuthal_kind == "sin"
    assert te.azimuthal_kind == "cos"
    opening = WEDGE_270.azimuth_opening_rad
    for mode in (tm, te):
        peak = np.abs(evaluate(mode, (0.008, 1.1, 0.5 * opening)).E).max()
        for face in (0.0, opening):
            s = evaluate(mode, (0.008, 1.1, face))
            assert abs(s.E[0]) <= 1e-12 * peak
            assert abs(s.E[1]) <= 1e-12 * peak


def test_te_zonal_wedge_mode_meets_faces():
    # TE m = 0 between PEC faces: cos(0 phi) = 1 and E is purely azimuthal
    pair = AngularEigenpair(nu=1.0, m=0.0, family=Family.ZONAL, k=1)
    mode = make_mode(RootKind.TE_JZERO, pair, 1, A_RADIUS, domain=WEDGE_270)
    assert mode.azimuthal_kind == "cos"
    opening = WEDGE_270.azimuth_opening_rad
    for phi in (0.0, 0.3 * opening, opening):
        s = evaluate(mode, (0.008, 1.1, phi))
        assert s.E[0] == 0.0 and s.E[1] == 0.0
        assert abs(s.E[2]) > 0.0


WEDGE_270_PMC = AngularDomain(azimuth_opening_rad=1.5 * math.pi, face_kind="PEC_PMC")


@pytest.mark.parametrize(
    "kind, pair",
    [
        (RootKind.TM_RICCATI_DERIV_ZERO, sectoral(1.0 / 3.0)),
        (RootKind.TE_JZERO, AngularEigenpair(4.0 / 3.0, 1.0 / 3.0, Family.TESSERAL, 1)),
    ],
)
def test_pec_pmc_wedge_mode_meets_both_faces(kind, pair):
    # m = 1/3 of a 270 deg wedge is a quarter wave: tangential E (r, theta) vanishes
    # on the PEC face phi = 0 and tangential H on the PMC face phi = Phi
    mode = make_mode(kind, pair, 1, A_RADIUS, domain=WEDGE_270_PMC)
    opening = WEDGE_270_PMC.azimuth_opening_rad
    points = [(r, th) for r in (0.004, 0.008, 0.013) for th in (0.5, 1.1, 2.4)]
    samples = [evaluate(mode, (r, th, phi)) for r, th in points for phi in np.linspace(0.0, opening, 7)]
    peak_e = max(np.abs(s.E).max() for s in samples)
    peak_h = max(np.abs(s.H).max() for s in samples)
    for r, th in points:
        pec, pmc = evaluate(mode, (r, th, 0.0)), evaluate(mode, (r, th, opening))
        assert np.abs(pec.E[:2]).max() <= 1e-12 * peak_e
        assert np.abs(pmc.H[:2]).max() <= 1e-12 * peak_h


def test_make_mode_takes_the_index_family_of_the_domain_faces():
    # m = 1/3 (m Phi/pi = 1/2) belongs to PEC/PMC faces and m = 2/3 (m Phi/pi = 1) to PEC/PEC;
    # each error names an index of the family the faces admit
    for m, domain in ((1.0 / 3.0, WEDGE_270), (2.0 / 3.0, WEDGE_270_PMC)):
        for kind in (RootKind.TM_RICCATI_DERIV_ZERO, RootKind.TE_JZERO):
            with pytest.raises(DomainError, match=f"not a {kind.value} index") as err:
                make_mode(kind, sectoral(m), 1, A_RADIUS, domain=domain)
            assert domain.face_kind in str(err.value)
            named = float(str(err.value).rsplit("m=", 1)[1])
            spacing = math.pi / domain.azimuth_opening_rad
            assert domain.admits(named, kind.value) and abs(named - m) <= 0.5 * spacing + 1e-12
    assert make_mode(RootKind.TM_RICCATI_DERIV_ZERO, sectoral(1.0 / 3.0), 1, A_RADIUS, domain=WEDGE_270_PMC)
    assert tm_mode(m=2.0 / 3.0, domain=WEDGE_270).polarization is RootKind.TM_RICCATI_DERIV_ZERO


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_make_mode_rejects_a_radius_that_is_not_finite(radius):
    # nan made mode_energy nan and inf made it inf
    with pytest.raises(DomainError, match="finite"):
        make_mode(RootKind.TM_RICCATI_DERIV_ZERO, sectoral(1.0), 1, radius)


def test_point_domain_checks():
    mode = tm_mode(m=1.0)
    with pytest.raises(DomainError):
        evaluate(mode, (0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        evaluate(mode, (1.1 * A_RADIUS, 1.0, 0.0))
    with pytest.raises(DomainError):
        evaluate(mode, (0.008, math.pi, 0.0))
    wedge = tm_mode(m=2.0 / 3.0, domain=WEDGE_270)
    with pytest.raises(DomainError):
        evaluate(wedge, (0.008, 1.0, 1.6 * math.pi))
    cone = AngularDomain(cone_half_angle_rad=0.3)
    pair = AngularEigenpair(nu=0.5, m=0.0, family=Family.ZONAL)
    cone_mode = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=cone)
    with pytest.raises(DomainError):
        evaluate(cone_mode, (0.008, 0.2, 0.0))


def test_mode_spec_invariants():
    from sphcav.fields import ModeSpec
    from sphcav.radial import j_zero

    # the radial root's nu must be the eigenpair's
    with pytest.raises(DomainError):
        ModeSpec(eigenpair=sectoral(2.0), radial=j_zero(1.0, 1), radius_m=A_RADIUS)


def test_mode_spec_refuses_an_m_its_domain_does_not_admit():
    # built directly or by dataclasses.replace, m = 1/3 between PEC faces used to put
    # E_r = 34.8 V/m on the face phi = Phi
    from sphcav.fields import ModeSpec
    from sphcav.radial import riccati_deriv_zero

    pair = AngularEigenpair(1.0 / 3.0, 1.0 / 3.0, Family.SECTORAL, 0)
    with pytest.raises(DomainError, match="not a TM index") as made:
        make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=WEDGE_270)
    with pytest.raises(DomainError) as direct:
        ModeSpec(pair, riccati_deriv_zero(1.0 / 3.0, 1), A_RADIUS, domain=WEDGE_270)
    with pytest.raises(DomainError) as replaced:
        replace(tm_mode(m=1.0 / 3.0), domain=WEDGE_270)
    assert str(direct.value) == str(replaced.value) == str(made.value)


@pytest.mark.parametrize("nu, m", [(1.5, 1.0), (0.7, 0.0)])
def test_mode_spec_refuses_a_pair_its_domain_cannot_reach(nu, m):
    # without a cone nu - m must be a non-negative integer: (1.5, 1) used to give
    # |E| ~ 9e6 V/m at theta = 3.14, and (0.7, 0) an energy for a log-singular mode
    from sphcav.fields import ModeSpec
    from sphcav.radial import riccati_deriv_zero

    pair = AngularEigenpair(nu, m, Family.TESSERAL if m else Family.ZONAL)
    with pytest.raises(ClassificationError, match="unreachable without a cone"):
        make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS)
    with pytest.raises(ClassificationError, match="unreachable without a cone"):
        ModeSpec(pair, riccati_deriv_zero(nu, 1), A_RADIUS)
    cone = AngularDomain(cone_half_angle_rad=math.radians(20.0))
    coned = make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=cone)  # a cone reaches it
    with pytest.raises(ClassificationError, match="unreachable without a cone"):
        replace(coned, domain=FULL_SPHERE)
    with pytest.raises(ClassificationError, match="unreachable without a cone"):
        replace(tm_mode(m=m if m else 1.0), eigenpair=pair, radial=riccati_deriv_zero(nu, 1))


def test_mode_spec_refuses_a_negative_nu_with_or_without_a_cone():
    from sphcav.fields import ModeSpec
    from sphcav.radial import riccati_deriv_zero

    pair = AngularEigenpair(-0.25, 0.0, Family.ZONAL)
    for domain in (FULL_SPHERE, AngularDomain(cone_half_angle_rad=0.3)):
        with pytest.raises(ClassificationError, match="physical quadrant"):
            make_mode(RootKind.TM_RICCATI_DERIV_ZERO, pair, 1, A_RADIUS, domain=domain)
        with pytest.raises(ClassificationError, match="physical quadrant"):
            ModeSpec(pair, riccati_deriv_zero(-0.25, 1), A_RADIUS, domain=domain)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("domain", [FULL_SPHERE, WEDGE_270])
def test_evaluate_rejects_a_point_that_is_not_finite(bad, domain):
    # on the full azimuth a nan or infinite phi used to give six nan components
    mode = tm_mode(m=2.0 / 3.0 if domain is WEDGE_270 else 1.0, domain=domain)
    for point in ((bad, 1.1, 0.3), (0.008, bad, 0.3), (0.008, 1.1, bad)):
        with pytest.raises(DomainError):
            evaluate(mode, point)


def test_mode_spec_fields_are_the_mode_and_its_domain():
    from dataclasses import fields as dataclass_fields

    from sphcav.fields import ModeSpec

    init = [f.name for f in dataclass_fields(ModeSpec) if f.init]
    assert init == ["eigenpair", "radial", "radius_m", "amplitude", "domain"]
    assert tm_mode().medium is VACUUM


# --- the per-mode factor memo ------------------------------------------------------


@pytest.fixture(scope="module")
def memo_modes():
    tm, te = RootKind.TM_RICCATI_DERIV_ZERO, RootKind.TE_JZERO
    cone = AngularDomain(cone_half_angle_rad=math.radians(20.0))
    nu_tm, nu_te = (cone_nu(m, cone.cone_half_angle_rad, pol, 1) for m, pol in ((0.0, "TM"), (1.0, "TE")))
    pairs = {
        "sphere_TM_sectoral": (tm, sectoral(2.0), FULL_SPHERE),
        "sphere_TE_tesseral": (te, AngularEigenpair(3.0, 1.0, Family.TESSERAL, 2), FULL_SPHERE),
        "wedge_TM_tesseral": (tm, AngularEigenpair(5.0 / 3.0, 2.0 / 3.0, Family.TESSERAL, 1), WEDGE_270),
        "wedge_TE_sectoral": (te, sectoral(4.0 / 3.0), WEDGE_270),
        "cone20_TM_zonal": (tm, AngularEigenpair(nu_tm, 0.0, Family.ZONAL), cone),
        "cone20_TE_m1": (te, AngularEigenpair(nu_te, 1.0, Family.TESSERAL), cone),
    }
    return {name: make_mode(kind, pair, 1, A_RADIUS, domain=dom) for name, (kind, pair, dom) in pairs.items()}


MEMO_MODES = [
    "sphere_TM_sectoral", "sphere_TE_tesseral", "wedge_TM_tesseral",
    "wedge_TE_sectoral", "cone20_TM_zonal", "cone20_TE_m1",
]


def _memo_points(mode, layout):
    lo, opening = mode.domain.cone_half_angle_rad, mode.domain.azimuth_opening_rad
    if layout == "tensor_grid":
        return [
            (float(r), float(t), float(p))
            for r in np.linspace(0.1, 1.0, 5) * A_RADIUS
            for t in np.linspace(lo + 0.05, math.pi - 0.05, 6)
            for p in np.linspace(0.1, 0.9, 3) * opening
        ]
    rng = np.random.default_rng(5)
    r = rng.uniform(0.05, 1.0, 40) * A_RADIUS
    theta = rng.uniform(lo + 0.01, math.pi - 0.01, 40)
    phi = rng.uniform(0.0, opening, 40)
    return list(zip(r.tolist(), theta.tolist(), phi.tolist()))


def _outcome(call, *args, **kwargs):
    """The bytes of what ``call`` returns, or the type of the SphcavError it raises: at a
    true field null, such as the wall r = a of the dual wave of a mode whose root makes
    its wall condition exactly 0, wave_impedances raises ImpedanceUndefinedError."""
    try:
        return np.array(call(*args, **kwargs)).tobytes()
    except SphcavError as exc:
        return type(exc)


@pytest.mark.parametrize("layout", ["tensor_grid", "cloud"])
@pytest.mark.parametrize("name", MEMO_MODES)
def test_memo_reuse_is_bit_identical(memo_modes, name, layout, monkeypatch):
    mode = replace(memo_modes[name])  # a new, empty memo for every case
    points = _memo_points(mode, layout)
    pols = (RootKind.TE_JZERO, RootKind.TM_RICCATI_DERIV_ZERO)
    with monkeypatch.context() as patch:  # every factor computed anew, nothing kept
        patch.setattr(fields._FactorMemo, "get_or", lambda memo, key, compute: compute())
        fresh = [evaluate(mode, p) for p in points]
        fresh_z = [_outcome(wave_impedances, mode, *p, polarization=pol) for p in points[::7] for pol in pols]
    assert len(mode._memo) == 0
    first = [evaluate(mode, p) for p in points]  # fills the memo; a grid reuses it
    again = [evaluate(mode, p) for p in points]  # every factor from the memo
    assert len(mode._memo) > 0
    for s, t, u in zip(fresh, first, again):
        assert s.E.tobytes() == t.E.tobytes() == u.E.tobytes()
        assert s.H.tobytes() == t.H.tobytes() == u.H.tobytes()
    assert fresh_z == [_outcome(wave_impedances, mode, *p, polarization=pol) for p in points[::7] for pol in pols]


def _impedance_bits(mode, points, pols):
    return [np.array(wave_impedances(mode, *p, polarization=pol)).tobytes() for p in points for pol in pols]


@pytest.mark.parametrize("name", ["wedge_TM_tesseral", "wedge_TE_sectoral"])
def test_memo_keeps_the_dual_polarization_apart(memo_modes, name, monkeypatch):
    # the memo keys the mode's constants by polarization: the dual wave at the same
    # points, before and after the mode's own, matches a memo-less evaluation byte for byte
    mode = replace(memo_modes[name])
    points = _memo_points(mode, "tensor_grid")
    own = mode.polarization
    dual = RootKind.TE_JZERO if own is RootKind.TM_RICCATI_DERIV_ZERO else RootKind.TM_RICCATI_DERIV_ZERO
    with monkeypatch.context() as patch:
        patch.setattr(fields._FactorMemo, "get_or", lambda memo, key, compute: compute())
        fresh = _impedance_bits(mode, points, (dual, own))
        fresh_e = [evaluate(mode, p).E.tobytes() for p in points]
    assert len(mode._memo) == 0
    assert _impedance_bits(mode, points, (dual, own)) == fresh
    assert [evaluate(mode, p).E.tobytes() for p in points] == fresh_e
    assert _impedance_bits(mode, points, (own, dual)) == [z for pair in zip(fresh[1::2], fresh[::2]) for z in pair]


@pytest.mark.parametrize("name", MEMO_MODES)
def test_row_cache_serves_shuffled_rows_interleaved_with_the_dual_wave(memo_modes, name):
    # the (r, theta) rows of a tensor grid in shuffled order, each walked in phi; after every
    # sample the dual wave and the mode's own, named explicitly, are evaluated at the same
    # (r, theta), so a row cache that kept the wrong polarization or row would show
    mode = replace(memo_modes[name])
    pols = (RootKind.TE_JZERO, RootKind.TM_RICCATI_DERIV_ZERO)
    waves = (pols[0] if mode.polarization is pols[1] else pols[1], mode.polarization)
    lo, opening = mode.domain.cone_half_angle_rad, mode.domain.azimuth_opening_rad
    radii, thetas = np.linspace(0.1, 1.0, 5) * A_RADIUS, np.linspace(lo + 0.05, math.pi - 0.05, 6)
    rows = [(r, t) for r in radii.tolist() for t in thetas.tolist()]
    rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    phis = (np.linspace(0.1, 0.9, 4) * opening).tolist()
    for r, theta in rows:
        for i, phi in enumerate(phis):
            got = evaluate(mode, (r, theta, phi))
            z = [_outcome(wave_impedances, mode, r, theta, phis[-1 - i], polarization=pol) for pol in waves]
            want = evaluate(replace(mode), (r, theta, phi))  # a fresh memo
            assert got.E.tobytes() == want.E.tobytes() and got.H.tobytes() == want.H.tobytes()
            want_z = [_outcome(wave_impedances, replace(mode), r, theta, phis[-1 - i], polarization=pol) for pol in waves]
            assert z == want_z


def test_domain_errors_after_a_memo_hit(memo_modes):
    wedge, cone = replace(memo_modes["wedge_TM_tesseral"]), replace(memo_modes["cone20_TM_zonal"])
    inside = (0.008, 1.1, 0.3)
    for mode in (wedge, cone):
        evaluate(mode, inside)
        evaluate(mode, inside)  # every factor from the memo
        assert len(mode._memo) > 0
    r = 1.1 * A_RADIUS
    with pytest.raises(DomainError) as err:
        evaluate(wedge, (r, 1.1, 0.3))
    assert str(err.value) == f"r={r} outside (0, {A_RADIUS}]"
    lo = cone.domain.cone_half_angle_rad
    for theta in (lo, 0.5 * lo):
        with pytest.raises(DomainError) as err:
            evaluate(cone, (0.008, theta, 0.3))
        assert str(err.value) == f"theta={theta} outside the angular domain ({lo}, pi)"
    for phi in (-1e-9, WEDGE_270.azimuth_opening_rad + 1e-9):
        with pytest.raises(DomainError) as err:
            evaluate(wedge, (0.008, 1.1, phi))
        assert str(err.value) == f"phi={phi} outside the wedge opening"
    with pytest.raises(DomainError) as err:
        wave_impedances(wedge, 0.008, 1.1, 5.0, polarization=RootKind.TE_JZERO)
    assert str(err.value) == "phi=5.0 outside the wedge opening"


def test_memo_is_not_part_of_the_mode():
    warm, cold = tm_mode(2.0), tm_mode(2.0)
    point = (0.008, 1.1, 0.3)
    sample = evaluate(warm, point)
    assert len(warm._memo) > 0 and len(cold._memo) == 0
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    copy = pickle.loads(pickle.dumps(warm))
    assert copy == warm and len(copy._memo) == 0
    assert evaluate(copy, point).E.tobytes() == sample.E.tobytes()


def test_memo_stays_bounded():
    mode = tm_mode(1.0)
    rng = np.random.default_rng(11)
    n, largest = 20_000, 0
    r, theta, phi = rng.uniform(0.05, 1.0, n) * A_RADIUS, rng.uniform(0.05, 3.0, n), rng.uniform(0.0, 6.0, n)
    for point in zip(r.tolist(), theta.tolist(), phi.tolist()):
        evaluate(mode, point)
        largest = max(largest, len(mode._memo))
    assert 0 < len(mode._memo) <= largest <= _MEMO_LIMIT


_OFF_INTEGER = [sign * f * 1e-12 for f in (0.5, 0.9, 1.1, 2.0, 5e3) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("m, domain", [(0.0, FULL_SPHERE), (2.0 / 3.0, WEDGE_270), (1.0, FULL_SPHERE), (3.0, FULL_SPHERE)])
@pytest.mark.parametrize("k", [1, 2, 7, 40])
def test_reachability_threshold_is_an_absolute_1e_12(m, domain, k):
    # every way of building a cone-free mode accepts nu = m + k + delta iff |delta| <= 1e-12,
    # and an accepted mode's polar pair near the far pole is the one of nu = m + k
    kind, theta = RootKind.TE_JZERO, math.pi - 1e-4
    exact = make_mode(kind, AngularEigenpair(m + k, m, classify(m + k, m)), 1, A_RADIUS, domain=domain)
    want = exact.polar(theta)
    for delta in _OFF_INTEGER:
        nu = m + k + delta
        pair = AngularEigenpair(nu, m, Family.TESSERAL)
        radial = radial_root(nu, 1, kind)
        builds = [
            lambda: classify(nu, m),
            lambda: make_mode(kind, pair, 1, A_RADIUS, domain=domain),
            lambda: fields.ModeSpec(pair, radial, A_RADIUS, domain=domain),
            lambda: replace(exact, eigenpair=pair, radial=radial),
        ]
        if abs(delta) <= 1e-12:
            built = [build() for build in builds]
            for mode in built[1:]:
                assert mode.polar(theta) == pytest.approx(want, rel=1e-6)
        else:
            for build in builds:
                with pytest.raises(ClassificationError, match="unreachable without a cone"):
                    build()
