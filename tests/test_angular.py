import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from sphcav import angular
from sphcav.angular import (
    AngularDomain,
    AngularEigenpair,
    ConeSweep,
    Family,
    angular_ode_residual,
    classify,
    cone_nu,
    cone_nus,
    cone_roots,
    south_singular_coefficient,
)
from sphcav.errors import ClassificationError, DomainError, RootSearchError
from sphcav.radial import RadialSweep
from sphcav.specfun import Lattice, advance, legendre_theta, legendre_theta_deriv, polar_solution, terminates

from oracles import mp_cone_root, mp_cone_root_tm, mp_cone_sign_changes

mp.mp.dps = 30

TABLE3_ANGLES_DEG = [0.38, 7.59, 14.93, 21.80, 28.07, 33.69]


# --- domains and azimuthal quantization --------------------------------------


def test_domain_validation():
    with pytest.raises(DomainError):
        AngularDomain(azimuth_opening_rad=0.0)
    with pytest.raises(DomainError):
        AngularDomain(cone_half_angle_rad=math.pi / 2.0)
    d = AngularDomain()
    assert d.full_azimuth and not d.has_cone


def test_eigenpair_validation():
    with pytest.raises(DomainError):
        AngularEigenpair(nu=-0.5, m=0.0, family=Family.ZONAL)
    with pytest.raises(DomainError):
        AngularEigenpair(nu=1.0, m=-1.0, family=Family.SECTORAL)


@pytest.mark.parametrize("nu, m", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
def test_non_finite_nu_or_m_is_refused(nu, m):
    # nan used to reach round(nan) in classify (ValueError) and inf round(inf) (OverflowError)
    for cone_present in (False, True):
        with pytest.raises(ClassificationError, match="outside the physical quadrant"):
            classify(nu, m, cone_present=cone_present)
    with pytest.raises(DomainError, match="finite"):
        AngularEigenpair(nu, m, Family.TESSERAL)


def test_domain_indices_wedge_270():
    d = AngularDomain(azimuth_opening_rad=1.5 * math.pi)
    got = d.indices(2.7)
    assert got == pytest.approx([0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0, 8.0 / 3.0], rel=1e-15)


def test_domain_indices_hemisphere():
    d = AngularDomain(azimuth_opening_rad=math.pi)
    assert d.indices(3.5) == pytest.approx([0.0, 1.0, 2.0, 3.0], rel=1e-15)


def test_domain_indices_full_circle_includes_zonal():
    assert AngularDomain().indices(2.5) == [0.0, 1.0, 2.0]


def test_domain_indices_pec_pmc():
    # odd quarter-wave family; the 270-degree opening admits m = 1/3
    d = AngularDomain(azimuth_opening_rad=1.5 * math.pi, face_kind="PEC_PMC")
    got = d.indices(1.9)
    assert got == pytest.approx([1.0 / 3.0, 1.0, 5.0 / 3.0], rel=1e-15)


@pytest.mark.parametrize("m_cap", [math.nan, math.inf])
@pytest.mark.parametrize("opening", [2.0 * math.pi, 1.5 * math.pi])
def test_domain_indices_need_a_finite_cap(opening, m_cap):
    # on a wedge the lattice walk would never pass a nan or infinite cap
    with pytest.raises(DomainError, match="finite"):
        AngularDomain(azimuth_opening_rad=opening).indices(m_cap)


def test_domain_rejects_an_unknown_face_kind():
    with pytest.raises(DomainError):
        AngularDomain(face_kind="PMC_PMC")


# --- the discreteness mechanism -----------------------------------------------


def test_south_singular_coefficient_examples():
    assert south_singular_coefficient(1.37, 1.37) == 0.0
    assert south_singular_coefficient(5.0 / 3.0, 2.0 / 3.0) == 0.0
    assert south_singular_coefficient(0.5, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_south_singular_coefficient_zero_set():
    # vanishes exactly when nu - m is a non-negative integer and nowhere else
    for m in (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5, 2.0):
        for k in range(4):
            assert south_singular_coefficient(m + k, m) == 0.0
        for nu in np.arange(0.0, 5.0, 0.01):
            w = nu - m
            if w < -1e-9 or abs(w - round(w)) > 1e-9:
                if nu + m + 1.0 > 0.0:
                    assert south_singular_coefficient(float(nu), m) != 0.0


def test_south_singular_coefficient_midpoints_bounded_away():
    for m in (0.0, 0.5, 1.0):
        for half in (0.5, 1.5, 2.5):
            assert abs(south_singular_coefficient(m + half, m)) > 1e-3


def test_south_singular_coefficient_against_gamma_formula():
    for nu, m in ((1.9, 0.4), (0.77, 0.3), (3.2, 1.25)):
        want = float(
            mp.gamma(nu + m + 1) / mp.gamma(nu - m + 1) * mp.sin((nu - m) * mp.pi) / mp.pi
        )
        assert south_singular_coefficient(nu, m) == pytest.approx(want, rel=1e-12)


def test_south_singular_coefficient_reflection_branch():
    # nu - m + 1 <= 0 exercises the reflection formula
    nu, m = 0.2, 1.9
    want = float(mp.gamma(nu + m + 1) / mp.gamma(nu - m + 1) * mp.sin((nu - m) * mp.pi) / mp.pi)
    assert south_singular_coefficient(nu, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_south_singular_coefficient_rejects_indices_that_are_not_finite(bad):
    # nan used to end in a ValueError from round(), inf in an OverflowError
    with pytest.raises(DomainError, match="finite"):
        south_singular_coefficient(bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        south_singular_coefficient(1.0, bad)


def test_south_singular_coefficient_domain():
    with pytest.raises(DomainError):
        south_singular_coefficient(-1.5, 0.4)


# --- classification -------------------------------------------------------------


def test_classify_families():
    assert classify(2.0, 2.0) is Family.SECTORAL
    assert classify(3.0, 1.0) is Family.TESSERAL
    assert classify(0.0, 0.0) is Family.NULL
    assert classify(2.0, 0.0) is Family.ZONAL
    assert classify(0.41, 0.0, cone_present=True) is Family.ZONAL
    assert classify(0.68, 2.0 / 3.0, cone_present=True) is Family.TESSERAL


def test_classify_unreachable_without_cone():
    with pytest.raises(ClassificationError):
        classify(0.5, 1.0)
    with pytest.raises(ClassificationError):
        classify(1.7, 1.0)
    with pytest.raises(ClassificationError):
        classify(-0.2, 0.0)
    with pytest.raises(ClassificationError):
        classify(0.3, 0.0)  # log-singular at theta = pi without a cone


# --- ODE residual ----------------------------------------------------------------


def test_ode_residual_sectoral():
    m = 1.37
    for theta in (0.4, 1.2, 2.2):
        s, c = math.sin(theta), math.cos(theta)
        value = s**m
        deriv = m * s ** (m - 1.0) * c
        second = m * (m - 1.0) * s ** (m - 2.0) * c * c - m * s**m
        assert abs(angular_ode_residual(m, m, theta, value, deriv, second)) < 1e-10


def test_ode_residual_p1_exact():
    theta = 0.9
    res = angular_ode_residual(1.0, 0.0, theta, math.cos(theta), -math.sin(theta), -math.cos(theta))
    assert abs(res) < 1e-14


def test_ode_residual_first_tesseral():
    # sin^(2/3) cos with analytic derivatives from sympy as the oracle
    import sympy as sy

    t = sy.Symbol("t")
    expr = sy.sin(t) ** sy.Rational(2, 3) * sy.cos(t)
    d1 = sy.lambdify(t, sy.diff(expr, t), "math")
    d2 = sy.lambdify(t, sy.diff(expr, t, 2), "math")
    f = sy.lambdify(t, expr, "math")
    for theta in (0.5, 1.3, 2.0):
        res = angular_ode_residual(5.0 / 3.0, 2.0 / 3.0, theta, f(theta), d1(theta), d2(theta))
        assert abs(res) < 1e-10


# --- cone eigenvalues --------------------------------------------------------------


def test_cone_nu_matches_independent_oracle():
    for tc_deg in (0.38, 14.93, 33.69):
        tc = math.radians(tc_deg)
        got = cone_nu(0.0, tc, "TM", 1)
        want = mp_cone_root_tm(mp.mpf(0), mp.radians(tc_deg))
        assert got == pytest.approx(want, abs=1e-8)


def test_cone_nu_small_angle_log_estimate():
    # plausibility oracle: nu ~ 1/(2 ln(2/theta_c)) for a zonal TM sliver cone
    tc = math.radians(0.38)
    est = 1.0 / (2.0 * math.log(2.0 / tc))
    got = cone_nu(0.0, tc, "TM", 1)
    assert abs(got - est) / est < 0.05


@settings(max_examples=20, deadline=None)
@given(
    small=st.floats(min_value=0.05, max_value=1.0),
    large=st.floats(min_value=0.05, max_value=1.0),
)
def test_cone_nu_sliver_limit(small, large):
    # as theta_c -> 0 the zonal TM nu tends to 0 like 1/(2 ln(2/theta_c)),
    # and the relative error of that estimate shrinks with the cone
    small, large = sorted((small, large))
    assume(large >= 1.05 * small)

    def rel_error(tc_deg):
        tc = math.radians(tc_deg)
        est = 1.0 / (2.0 * math.log(2.0 / tc))
        return abs(cone_nu(0.0, tc, "TM", 1) - est) / est

    assert rel_error(small) < rel_error(large) <= 0.1


def test_cone_nu_monotone_in_angle():
    nus = [cone_nu(0.0, math.radians(tc), "TM", 1) for tc in TABLE3_ANGLES_DEG]
    assert all(a < b for a, b in zip(nus, nus[1:]))


def test_cone_nu_reference_values():
    # three-way verified eigenvalues of the Dirichlet cone condition
    # (series/ODE scan here, mpmath Legendre bisection, and direct ODE
    # shooting all agree); the bundled table3 fixture prints a different,
    # internally-fitted nu column -- see the validation report
    want = [0.087440, 0.181623, 0.238208, 0.287278, 0.332131, 0.373547]
    got = [cone_nu(0.0, math.radians(tc), "TM", 1) for tc in TABLE3_ANGLES_DEG]
    assert got == pytest.approx(want, abs=2e-6)


def test_cone_nu_fractional_order_matches_oracle():
    # combined-geometry case: fractional azimuthal order, moderate cone
    m = mp.mpf(2) / 3
    got = cone_nu(2.0 / 3.0, math.radians(5.0), "TM", 1)
    want = mp_cone_root_tm(m, mp.radians(5.0), lo=mp.mpf("0.5"), hi=mp.mpf("1.2"), step=mp.mpf("0.01"))
    assert got == pytest.approx(want, abs=1e-8)


def test_cone_nu_te_matches_derivative_oracle():
    tc_deg = 14.93
    got = cone_nu(0.0, math.radians(tc_deg), "TE", 1)
    target = mp.pi - mp.radians(tc_deg)

    def g(nu):
        f = lambda t: mp.hyp2f1(-nu, nu + 1, 1, mp.sin(t / 2) ** 2)
        return mp.diff(f, target)

    lo, step = mp.mpf("0.8"), mp.mpf("0.01")
    prev, nu = g(lo), lo
    while nu < 1.5:
        nxt = nu + step
        cur = g(nxt)
        if prev * cur < 0:
            want = float(mp.findroot(g, (nu, nxt), solver="bisect", tol=1e-20))
            assert got == pytest.approx(want, abs=1e-7)
            return
        nu, prev = nxt, cur
    raise AssertionError("oracle found no TE root")


def test_cone_nu_branches_increase():
    tc = math.radians(20.0)
    b1 = cone_nu(0.0, tc, "TM", 1)
    b2 = cone_nu(0.0, tc, "TM", 2)
    assert b2 > b1 + 0.05


def test_cone_nu_te_branch():
    # Neumann condition; for a shrinking cone the first TE eigenvalue
    # approaches the full-sphere zonal value nu = 1
    tc_small = cone_nu(0.0, math.radians(0.38), "TE", 1)
    assert tc_small == pytest.approx(1.0, abs=1e-3)
    tc_big = cone_nu(0.0, math.radians(33.69), "TE", 1)
    assert tc_big > tc_small


@pytest.mark.parametrize("branch", [1.5, 2.0, math.nan, math.inf, "1", 0, -1])
def test_cone_nu_rejects_a_branch_that_is_not_a_positive_integer(monkeypatch, branch):
    # a branch of 1.5 used to raise a bare ValueError from islice
    monkeypatch.setattr(angular, "advance", lambda *args, **kw: pytest.fail("scanned"))
    with pytest.raises(DomainError, match="branch index"):
        cone_nu(0.0, 0.3, "TM", branch)


def test_cone_nu_with_wedge_tends_to_sectoral_from_above():
    # Dirichlet truncation can only raise the angular eigenvalue, so the
    # branch-1 root sits marginally above m and converges to it as the cone
    # shrinks (domain monotonicity of Dirichlet problems)
    m = 2.0 / 3.0
    d_small = cone_nu(m, math.radians(0.1), "TM", 1) - m
    d_mid = cone_nu(m, math.radians(0.38), "TM", 1) - m
    d_big = cone_nu(m, math.radians(5.0), "TM", 1) - m
    assert 0.0 < d_small < d_mid < d_big
    assert d_small < 1e-3
    assert d_mid == pytest.approx(4.815e-4, rel=1e-2)


def test_cone_nu_errors(monkeypatch):
    with pytest.raises(DomainError):
        cone_nu(0.0, 0.0, "TM", 1)
    with pytest.raises(DomainError):
        cone_nu(0.0, 0.3, "TEM", 1)
    monkeypatch.setattr(angular, "advance", lambda sweeps, caps: None)  # a scan that finds no root
    tc = math.radians(0.38)
    with pytest.raises(RootSearchError, match="no TM cone root") as err:
        cone_nu(0.0, tc, "TM", 1)
    assert err.value.window == (ConeSweep.LATTICE.origin, 2.0 * math.pi / (math.pi - tc))


@pytest.mark.parametrize("polarization", [5, None, b"TM", ("TM",)])
def test_cone_nu_refuses_a_polarization_that_is_not_a_string(monkeypatch, polarization):
    # 5 used to raise a bare AttributeError from polarization.upper()
    monkeypatch.setattr(angular, "advance", lambda *args, **kw: pytest.fail("scanned"))
    with pytest.raises(DomainError, match="polarization must be TM or TE"):
        cone_nu(0.0, 0.3, polarization, 1)


@pytest.mark.parametrize("polarization", ["TM", "TE"])
def test_a_scan_whose_values_overflow_a_product_warns_of_nothing(polarization):
    # the bracket test multiplied neighbouring values, which overflowed here and printed
    # "RuntimeWarning: overflow encountered in multiply" from a plain call
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cone_nu(100.0, 0.1, polarization, 1) == 100.00000000000007


@pytest.mark.parametrize("nu_max", [math.nan, math.inf])
def test_cone_scan_rejects_a_nu_max_that_is_not_finite(nu_max):
    # nan used to return no roots and inf to grow the scan grid without bound
    with pytest.raises(DomainError, match="finite nu_max"):
        cone_roots(1.0, 0.3, "TM", nu_max)


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
def test_cone_scan_rejects_an_order_that_is_not_finite(m):
    with pytest.raises(DomainError, match="order m"):
        cone_roots(m, 0.3, "TM", 5.0)


def test_cone_sweep_rejects_an_order_past_its_lattice_reach(monkeypatch):
    # cone_nu(1e10, ...) would have scanned about 5e11 lattice points in one pass
    monkeypatch.setattr(angular, "advance", lambda *args: pytest.fail("scanned"))
    for m in (1e10, math.nextafter(ConeSweep.MAX_M, math.inf)):
        with pytest.raises(DomainError, match="order m"):
            cone_nu(m, 0.35, "TM")
    assert ConeSweep.LATTICE.index(ConeSweep.MAX_M) == 2**18
    ConeSweep(ConeSweep.MAX_M, 0.35, "TE")


@pytest.mark.parametrize("theta_deg", [0.38, 5.0, 20.0, 33.69, 45.0, 60.0, 80.0, 89.0, 89.9])
@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_cone_nu_is_the_branch_of_cone_roots(theta_deg, pol):
    # branches lie about pi/(pi - theta_c) apart, 1 for a needle and 2 for a hemisphere;
    # cone_nu's window m + (b + 1) pi/(pi - theta_c) holds branch b at every angle, and the
    # root is bit for bit the one of a longer scan
    tc = math.radians(theta_deg)
    for m in (0.0, 2.0 / 3.0, 1.0, 2.5, 7.0):
        want = cone_roots(m, tc, pol, m + 16.0, max_branches=6)
        assert [cone_nu(m, tc, pol, b).hex() for b in range(1, 7)] == [x.hex() for x in want]


def test_cone_nu_fourth_branch_near_a_hemisphere():
    # a window of m + branch + 2 = 6, used before, ended below this root
    assert cone_nu(0.0, math.radians(80.0), "TM", 4) == 6.24815132337828


def test_domain_owns_the_wedge_index_rule():
    pec = AngularDomain(azimuth_opening_rad=1.5 * math.pi)
    pmc = AngularDomain(azimuth_opening_rad=1.5 * math.pi, face_kind="PEC_PMC")
    for m in pec.indices(2.5)[1:]:
        assert pec.admits(m, "TM") and pec.admits(m, "TE") and not pmc.admits(m, "TE")
    for m in pmc.indices(2.5):
        assert pmc.admits(m, "TM") and pmc.admits(m, "TE") and not pec.admits(m, "TE")
    # m = 0 between PEC faces is TE only; the full azimuth admits any m >= 0
    assert pec.admits(0.0, "TE") and not pec.admits(0.0, "TM") and not pmc.admits(0.0, "TE")
    assert AngularDomain().admits(0.37, "TM")
    assert pec.nearest_index(1.0 / 3.0, "TM") == pec.indices(1.0)[1]
    assert pmc.nearest_index(0.0, "TE") == pmc.indices(1.0)[0]


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("polarization", ["TM", "TE"])
@pytest.mark.parametrize(
    "domain",
    [AngularDomain(), AngularDomain(1.5 * math.pi), AngularDomain(1.5 * math.pi, face_kind="PEC_PMC")],
    ids=["full", "PEC_PEC", "PEC_PMC"],
)
def test_domain_rejects_an_index_that_is_not_finite(domain, polarization, m):
    # a wedge used to raise ValueError/OverflowError from round or floor; the full
    # azimuth answered admits(nan) with False and nearest_index(inf) with inf
    with pytest.raises(DomainError, match="finite"):
        domain.nearest_index(m, polarization)
    with pytest.raises(DomainError, match="finite"):
        domain.admits(m, polarization)


def _oracle_roots(m, theta_c, pol, hi):
    """Every cone root below hi, one upward mpmath scan after another."""
    roots, lo = [], 1e-4
    while True:
        try:
            root = mp_cone_root(m, theta_c, pol, lo=lo, hi=hi, step=0.02)
        except AssertionError:  # no further sign change
            return roots
        if root > hi:
            return roots
        roots.append(root)
        lo = root + 1e-6


@pytest.mark.parametrize("m, pol", [(1.0001, "TM"), (1.0001, "TE"), (0.5001, "TE")])
def test_cone_roots_scan_point_on_terminating_order(m, pol):
    # the nu grid 1e-4 + 0.02 k passes through nu = m, where the polar series
    # terminates but the series of its derivative does not (z = 0.97 here)
    tc = math.radians(20.0)
    got = cone_roots(m, tc, pol, m + 3.0)
    want = _oracle_roots(m, tc, pol, m + 3.0)
    assert len(got) == len(want) >= 2
    assert got == pytest.approx(want, abs=1e-9)
    if pol == "TM":
        assert got[0] == pytest.approx(mp_cone_root_tm(m, tc), abs=1e-9)


@pytest.mark.parametrize("m", [1.0 + 1e-7, 1.0 - 1e-7, 2.0 + 1e-9, 1e-7, 1.0 + 3e-4])
@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_cone_roots_near_integer_order_match_oracle(m, pol):
    # orders this close to an integer go through the interpolation band of
    # the connection formula
    tc = math.radians(20.0)
    got = cone_roots(m, tc, pol, m + 3.0)
    want = _oracle_roots(m, tc, pol, m + 3.0)
    assert len(got) == len(want) >= 2
    assert got == pytest.approx(want, abs=1e-9)


def test_cone_roots_integer_order_has_no_spurious_root():
    # P^{+m} normalizations vanish at integer nu < m; the Frobenius one must not
    tc = math.radians(20.0)
    got = cone_roots(2.0, tc, "TE", 6.0)
    assert len(got) == mp_cone_sign_changes(2.0, tc, "TE", 6.0) >= 3


@pytest.mark.parametrize("m", [0.0, 2.0 / 3.0, 1.0])
@pytest.mark.parametrize("pol", ["TM", "TE"])
def test_cone_roots_sliver_cone_match_oracle(m, pol):
    # theta_c = 0.4 deg: w = sin^2(theta_c/2) ~ 1.2e-5 in the connection series
    tc = math.radians(0.4)
    got = cone_roots(m, tc, pol, m + 3.0)
    want = _oracle_roots(m, tc, pol, m + 3.0)
    assert len(got) == len(want) >= 2
    assert got == pytest.approx(want, abs=1e-9)


# --- second solution (reduction of order) -------------------------------------------


def test_second_solution_divergence_exponent():
    # Theta2 = sin^m * integral sin^(-(2m+1)); its local exponent near the
    # pole is -m (the singular Frobenius branch)
    for m in (0.5, 1.0, 1.7):

        def theta2(theta):
            u, _ = quad(lambda t: math.sin(t) ** (-(2.0 * m + 1.0)), theta, 0.5, limit=200)
            return math.sin(theta) ** m * u

        lo, hi = 1e-3, 1e-2
        slope = (math.log(abs(theta2(hi))) - math.log(abs(theta2(lo)))) / (
            math.log(hi) - math.log(lo)
        )
        assert slope == pytest.approx(-m, rel=0.02)


# --- pole regularity: AngularDomain.polar, polar_value and eigenvalues ----------


def _accepted(nu, m):
    try:
        classify(nu, m)
    except ClassificationError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(
    m=st.sampled_from([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 2.5, 3.0, 7.3]) | st.floats(0.0, 50.0),
    k=st.integers(-2, 60),
    delta=st.sampled_from([0.0, 5e-13, -5e-13, 9e-13, -9e-13, 1.1e-12, -1.1e-12, 2e-12, 0.5])
    | st.floats(-3e-12, 3e-12)
    | st.floats(-1.0, 1.0),
)
def test_reachability_is_one_predicate(m, k, delta):
    # without a cone classify, terminates and the exact zero of the singular coefficient agree
    nu = m + k + delta
    assume(nu >= 0.0)
    accepted = _accepted(nu, m)
    assert accepted == bool(terminates(nu, m))
    assert accepted == (south_singular_coefficient(nu, m) == 0.0)


@pytest.mark.parametrize("m", [0.0, 1.0, 2.0 / 3.0, 2.5])
def test_domain_polar_is_the_retained_pole_solution_bit_for_bit(m):
    sphere = AngularDomain()
    cone = AngularDomain(azimuth_opening_rad=1.5 * math.pi, cone_half_angle_rad=math.radians(20.0))
    nus = np.array([0.3, m + 1.0, 2.7, 7.25])
    thetas = np.array([0.4, 1.6, 2.9, math.pi - 1e-3])
    cases = [(float(nu), float(theta)) for nu in nus for theta in thetas]
    cases += [(float(nu), thetas) for nu in nus] + [(nus, float(theta)) for theta in thetas]
    for nu, theta in cases:
        reflected = math.pi - theta if isinstance(theta, float) else np.pi - theta
        south = (legendre_theta(nu, m, reflected), -legendre_theta_deriv(nu, m, reflected))
        for domain, want in ((sphere, polar_solution(nu, m, theta)), (cone, south)):
            got = domain.polar(nu, m, theta)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.array_equal(domain.polar_value(nu, m, theta), want[0])
    # a scalar (one Brent step, one field point) stays on plain floats
    assert all(type(x) is float for x in (*cone.polar(2.0, m, 0.5), cone.polar_value(2.0, m, 0.5)))


@pytest.mark.parametrize(
    "domain, m",
    [
        (AngularDomain(), 0.0),
        (AngularDomain(), 2.0),
        (AngularDomain(1.5 * math.pi), 2.0 / 3.0),
        (AngularDomain(1.5 * math.pi, face_kind="PEC_PMC"), 1.0 / 3.0),
    ],
    ids=["sphere_m0", "sphere_m2", "PEC_PEC_270", "PEC_PMC_270"],
)
def test_domain_eigenvalues_without_a_cone(domain, m):
    for pol in ("TM", "TE"):
        assert domain.eigenvalues(m, pol, 9.5) == [m + k for k in range(12) if 0.0 < m + k <= 9.5]
        assert domain.eigenvalues(m, pol, m - 0.1) == []
        assert domain.eigenvalues(m, pol, m) == ([] if m == 0.0 else [m])  # no field-free (0, 0)
        with pytest.raises(DomainError, match="finite"):
            domain.eigenvalues(m, pol, math.inf)


@pytest.mark.parametrize("m, opening", [(0.0, 2.0 * math.pi), (1.0, 2.0 * math.pi), (2.0 / 3.0, 1.5 * math.pi)])
def test_domain_eigenvalues_with_a_cone_are_its_roots(m, opening):
    tc = math.radians(20.0)
    domain = AngularDomain(azimuth_opening_rad=opening, cone_half_angle_rad=tc)
    for pol in ("TM", "TE"):
        got = domain.eigenvalues(m, pol, 9.0)
        assert got and got == cone_roots(m, tc, pol, 9.0)
        assert domain.eigenvalues(m, pol, m - 0.1) == []


# --- one cone scan per call ------------------------------------------------------

ORDERS = st.one_of(
    st.integers(0, 7).map(float),
    st.floats(0.0, 7.0),
    # the interpolation band, |m - round(m)| < 4e-3, on both sides of each integer
    st.tuples(st.integers(0, 7), st.floats(-3.99e-3, 3.99e-3)).map(lambda t: abs(t[0] + t[1])),
)
REQUESTS = st.tuples(
    ORDERS,
    st.floats(0.3, 89.0).map(math.radians),
    st.sampled_from(["TM", "TE", "te"]),
    st.floats(-1.0, 25.0),
    st.one_of(st.none(), st.integers(1, 4)),
)
# a pool drawn from with replacement, so that a batch may hold one request many times
BATCHES = st.lists(REQUESTS, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40) if pool else st.just([])
)


@settings(max_examples=50, deadline=None)
@given(BATCHES)
@example([])
@example([(0.0, math.radians(20.0), "TM", 25.0, None)] * 2 + [(2.0 / 3.0, math.radians(89.0), "TE", 25.0, None)])
@example([(1.0001, math.radians(20.0), "TE", 4.0, 3), (3.998, math.radians(0.3), "TM", 25.0, None)])
def test_a_cone_scan_batch_is_each_lone_scan_to_the_bit(batch):
    # every element of the batched evaluation stops its series at its own last term, and
    # Brent refines each sweep's brackets on the scalar condition, so cone sweeps of any
    # composition advanced together give each request its lone cone_roots, bit for bit
    sweeps = [ConeSweep(m, theta_c, pol, max_branches) for m, theta_c, pol, _, max_branches in batch]
    caps = [nu_max for *_, nu_max, _ in batch]
    advance(sweeps, caps)
    got = [[nu for nu in s.roots if nu < cap] for s, cap in zip(sweeps, caps)]
    want = [cone_roots(*request) for request in batch]
    assert [[x.hex() for x in roots] for roots in got] == [[x.hex() for x in roots] for roots in want]


def test_lone_cone_calls_are_one_request_scans(monkeypatch):
    calls = []
    real = angular.advance

    def recording(sweeps, caps):
        calls.append([(s.m, s.theta_c, s.polarization, cap, s.max_roots) for s, cap in zip(sweeps, caps)])
        return real(sweeps, caps)

    monkeypatch.setattr(angular, "advance", recording)
    tc = math.radians(20.0)
    roots = cone_roots(1.0, tc, "TM", 6.0)
    assert calls == [[(1.0, tc, "TM", 6.0, None)]]
    assert AngularDomain(cone_half_angle_rad=tc).eigenvalues(1.0, "TM", 6.0) == roots
    assert len(calls) == 2 and calls[-1] == [(1.0, tc, "TM", 6.0, None)]
    assert cone_nu(1.0, tc, "TM", 2) == roots[1]
    assert len(calls) == 3 and len(calls[-1]) == 1 and calls[-1][0][4] == 2
    assert cone_nus([(1.0, tc, "TM", 2), (0.0, tc, "TE", 1)]) == [roots[1], cone_nu(0.0, tc, "TE", 1)]
    assert [len(c) for c in calls[3:]] == [2, 1]


def test_a_batch_names_the_request_whose_scan_is_not_finite():
    # m = 200 overflows the singular weight of the connection formula on the scan
    bad = (200.0, 0.35, "TM")
    batch = [ConeSweep(0.0, 0.35, "TM"), ConeSweep(1.0, 0.35, "TE"), ConeSweep(*bad), ConeSweep(2.0, 0.35, "TM")]
    with np.errstate(all="ignore"):
        with pytest.raises(RootSearchError, match="not finite") as lone:
            cone_roots(*bad, 205.0)
        with pytest.raises(RootSearchError, match="not finite") as batched:
            advance(batch, [5.0, 5.0, 205.0, 5.0])
    assert str(batched.value) == str(lone.value)
    assert "TM cone condition for m=200.0, theta_c=0.35 rad" in str(batched.value)
    # the window scanned: from the first lattice point to the first at or past the cap
    lattice = ConeSweep.LATTICE
    assert batched.value.window == lone.value.window == (1e-4, lattice.point(lattice.index(205.0)))
    assert all(not s.roots and s.index == 0 for s in batch)  # a sweep keeps nothing of a failed pass


def test_a_batch_checks_every_request_before_scanning(monkeypatch):
    monkeypatch.setattr(angular, "legendre_theta", lambda *a: pytest.fail("scanned"))
    with pytest.raises(DomainError, match="cap"):
        advance([ConeSweep(0.0, 0.3, "TM"), ConeSweep(1.0, 0.3, "TM")], [5.0, math.inf])
    with pytest.raises(DomainError, match="polarization"):
        cone_nus([(0.0, 0.3, "TM", 1), (1.0, 0.3, "TEM", 1)])
    with pytest.raises(DomainError, match="one class"):
        advance([ConeSweep(0.0, 0.3, "TM"), RadialSweep(1.0, "TE")], [5.0, 5.0])


@pytest.mark.parametrize("max_branches", [-1, 0, 1.5, 2.0])
def test_a_max_branches_that_is_not_a_positive_integer_is_refused(monkeypatch, max_branches):
    # it used to raise a bare ValueError from itertools.islice, or return [] for 0
    monkeypatch.setattr(angular, "legendre_theta", lambda *a: pytest.fail("scanned"))
    tc = math.radians(20.0)
    with pytest.raises(DomainError, match="max_branches"):
        cone_roots(0.0, tc, "TM", 5.0, max_branches=max_branches)
    with pytest.raises(DomainError, match="max_branches"):
        ConeSweep(1.0, tc, "TM", max_branches)


@settings(max_examples=40, deadline=None)
@given(
    m=ORDERS,
    theta_c=st.floats(0.4, 85.0).map(math.radians),
    pol=st.sampled_from(["TM", "TE"]),
    caps=st.lists(st.floats(0.0, 15.0), min_size=2, max_size=2, unique=True).map(sorted),
)
@example(m=2.0, theta_c=math.radians(5.0), pol="TE", caps=[3.0, 12.0])
@example(m=2.0 / 3.0, theta_c=math.radians(20.0), pol="TM", caps=[3.0, 12.0])
def test_cone_roots_do_not_depend_on_their_cap(m, theta_c, pol, caps):
    # each root is fixed by its lattice interval alone; the two examples moved in their
    # last bits with the cap when each scan ended at its own nu_max
    low, high = caps
    want = [nu.hex() for nu in cone_roots(m, theta_c, pol, high) if nu < low]
    assert [nu.hex() for nu in cone_roots(m, theta_c, pol, low)] == want


CONE_CAPS = st.lists(
    st.one_of(st.floats(-1.0, 15.0), st.integers(0, 750).map(ConeSweep.LATTICE.point)), min_size=1, max_size=30
)


@settings(max_examples=40, deadline=None)
@given(
    m=ORDERS,
    theta_c=st.floats(0.4, 85.0).map(math.radians),
    pol=st.sampled_from(["TM", "TE"]),
    max_branches=st.one_of(st.none(), st.integers(1, 6)),
    caps=CONE_CAPS.map(sorted),
)
@example(m=0.0, theta_c=math.radians(20.0), pol="TM", max_branches=None, caps=[2.0, 2.0, 5.3001, 9.5, 15.0])
@example(m=2.0 / 3.0, theta_c=math.radians(85.0), pol="TE", max_branches=2, caps=[0.5, 1.0, 3.0, 15.0])
@example(m=1.002, theta_c=math.radians(0.4), pol="TE", max_branches=None, caps=[1e-4, 0.5, 1.0041, 15.0])
def test_a_cone_sweep_continued_across_caps_is_one_advance_to_the_last(m, theta_c, pol, max_branches, caps):
    # a root is fixed by its lattice interval alone and a pass's last point only ends a
    # bracket, so a sweep advanced through many caps, each pass starting where the last
    # ended, holds the roots of one advance to the last cap, bit for bit, and stands there
    sweep, want = ConeSweep(m, theta_c, pol, max_branches), ConeSweep(m, theta_c, pol, max_branches)
    for cap in caps:
        advance([sweep], [cap])
    advance([want], caps[-1:])
    assert [nu.hex() for nu in sweep.roots] == [nu.hex() for nu in want.roots]
    assert sweep.index == want.index == max(0, ConeSweep.LATTICE.index(caps[-1]))


def test_a_request_refines_no_root_past_its_branches_and_one_past_its_cap(monkeypatch):
    refined = []

    def counting(f, a, b, **tol):
        refined.append(a)
        return brentq(f, a, b, **tol)

    monkeypatch.setattr(angular, "brentq", counting)
    tc = math.radians(20.0)
    every = cone_roots(0.0, tc, "TM", 12.0)
    refined.clear()
    assert cone_roots(0.0, tc, "TM", 12.0, max_branches=3) == every[:3] and len(refined) == 3
    # a cap inside the lattice interval of root 5: that interval is the scan's last, and its
    # root is refined and dropped
    lattice = Lattice(1e-4, 0.02)  # the cone scan's lattice
    cap = (lattice.point(lattice.index(every[4]) - 1) + every[4]) / 2.0
    refined.clear()
    assert cone_roots(0.0, tc, "TM", cap) == every[:4] and len(refined) == 5


def test_cone_brent_evaluates_the_condition_only_inside_its_bracket(monkeypatch):
    # Brent takes the condition at the bracket ends from the scan, so every scalar call
    # of the condition lies strictly inside the bracket
    bracket, outside, calls = [], [], []

    def counting(f, a, b, **tol):
        bracket[:] = [a, b]
        calls.append(0)
        try:
            return brentq(f, a, b, **tol)
        finally:
            bracket.clear()

    def watch(real):
        def condition(nu, m, theta):
            if bracket:
                calls[-1] += 1
                if not bracket[0] < nu < bracket[1]:
                    outside.append((nu, *bracket))
            return real(nu, m, theta)

        return condition

    monkeypatch.setattr(angular, "brentq", counting)
    monkeypatch.setattr(angular, "legendre_theta", watch(legendre_theta))
    monkeypatch.setattr(angular, "polar_solution", watch(polar_solution))
    tc = math.radians(20.0)
    sweeps = [ConeSweep(m, tc, pol) for m in (0.0, 2.0 / 3.0, 1.0, 2.5) for pol in ("TM", "TE")]
    advance(sweeps, [12.0] * len(sweeps))
    assert sum(len(s.roots) for s in sweeps) == len(calls) >= 30
    assert all(calls) and not outside
