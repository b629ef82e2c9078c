import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from sphcav.errors import ConvergenceError, DomainError, RootSearchError
from sphcav.radial import AIRY_PRIME_ZEROS, AIRY_ZEROS
from sphcav.specfun import (
    Lattice,
    hyp2f1,
    lattice_roots,
    legendre_theta,
    legendre_theta_deriv,
    ln_gamma,
    polar_solution,
    riccati_deriv,
    spherical_j,
)

mp.mp.dps = 30


# --- gamma ---------------------------------------------------------------------


def test_ln_gamma_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15, abs=0.0)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15, abs=0.0)


def test_ln_gamma_domain():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-1.3)


# --- hypergeometric -----------------------------------------------------------


def test_hyp2f1_empty_series():
    assert hyp2f1(0.0, 3.7, 1.2, 0.9) == 1.0


def test_hyp2f1_one_term_polynomial():
    # a = -1 gives 1 + (a b / c) z; with b = 10/3, c = 5/3 that is 1 - 2z
    for z in (0.0, 0.2, 0.77, 0.97):
        assert hyp2f1(-1.0, 10.0 / 3.0, 5.0 / 3.0, z) == pytest.approx(1.0 - 2.0 * z, rel=1e-15, abs=0.0)


def test_hyp2f1_binomial_identity():
    # 2F1(1, b; b; z) = (1 - z)^(-1)
    assert hyp2f1(1.0, 2.3, 2.3, 0.5) == pytest.approx(2.0, rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=6),
    b=st.floats(min_value=-3.0, max_value=4.0),
    z=st.floats(min_value=0.0, max_value=0.95),
)
def test_hyp2f1_termination_independent_of_tolerance(k, b, z):
    # whenever a is a non-positive integer the exact degree-k polynomial is
    # returned, a near-integer a (within 1e-12) included; keep b off the
    # non-positive integers so only a controls termination -- hyp2f1 reads a b
    # within 1e-12 of one (b = 1e-12, say) as one
    assume(round(b) > 0 or abs(b - round(b)) > 1e-9)
    c = 1.7
    got = hyp2f1(-float(k), b, c, z)
    assert hyp2f1(-float(k) + 1e-13, b, c, z) == got
    term, total = 1.0, 1.0
    for j in range(k):
        term *= (-k + j) * (b + j) / ((c + j) * (j + 1)) * z
        total += term
    assert got == pytest.approx(total, rel=1e-14, abs=1e-14)


def test_hyp2f1_matches_mpmath():
    cases = [(0.4, 1.9, 1.1, 0.3), (-0.7, 2.5, 0.8, 0.64), (1.2, 1.2, 3.4, 0.7)]
    for a, b, c, z in cases:
        want = float(mp.hyp2f1(a, b, c, z))
        assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_hyp2f1_near_integer_parameter_is_summed_as_given():
    # a = -7 + 5e-12 lies outside the absolute 1e-12 of specfun.terminates, so the series
    # is not cut to the degree-7 polynomial (which is 1.3e-12 off)
    a, b, c, z = -7.0 + 5e-12, 1.5, 1.7, 0.6
    want = float(mp.hyp2f1(a, b, c, z))
    assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_hyp2f1_convergence_error_carries_diagnostics():
    with pytest.raises(ConvergenceError) as err:
        hyp2f1(0.5, 0.7, 1.3, 0.99)  # terms fall as 0.99^k k^-1.1: 5e-6 at the 500th
    assert err.value.partial_sum > 1.0
    assert err.value.last_term > 0.0


def test_hyp2f1_c_pole_rules():
    # terminating before the 1/Gamma(c) pole is fine
    assert hyp2f1(-2.0, 1.5, -3.0, 0.3) == pytest.approx(
        1.0 + (-2.0) * 1.5 / (-3.0) * 0.3 + ((-2.0) * (-1.0) * 1.5 * 2.5 / ((-3.0) * (-2.0) * 2.0)) * 0.09,
        rel=1e-14, abs=0.0,
    )
    with pytest.raises(DomainError):
        hyp2f1(-5.0, 1.5, -3.0, 0.3)
    with pytest.raises(DomainError):  # the pole is the term after the last
        hyp2f1(-2.0, 1.5, -2.0, 0.3)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 1.5, 0.0, 0.3)


def test_hyp2f1_z_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_hyp2f1_rejects_a_parameter_that_is_not_finite(bad, at):
    # -inf used to end in an OverflowError from round()
    params = [0.5, 1.5, 2.5]
    params[at] = bad
    with pytest.raises(DomainError, match="finite parameters"):
        hyp2f1(*params, 0.5)


# --- spherical Bessel ----------------------------------------------------------


def test_spherical_j_elementary_forms():
    xs = np.linspace(0.1, 30.0, 173)
    j0 = np.sin(xs) / xs
    j1 = np.sin(xs) / xs**2 - np.cos(xs) / xs
    j2 = (3.0 / xs**2 - 1.0) * np.sin(xs) / xs - 3.0 * np.cos(xs) / xs**2
    for nu, closed in ((0.0, j0), (1.0, j1), (2.0, j2)):
        mine = np.array([spherical_j(nu, x) for x in xs])
        assert np.allclose(mine, closed, rtol=1e-12, atol=1e-14)


def test_spherical_j_at_zero_and_pi():
    assert spherical_j(0.0, 0.0) == 1.0
    assert spherical_j(2.4, 0.0) == 0.0
    assert abs(spherical_j(0.0, math.pi)) < 1e-15


def test_spherical_j_half_integer_zero():
    # zeros of j_{1/2} are the zeros of the cylindrical J_1; the first is
    # 3.83170597020751 (mpmath bisection oracle)
    assert abs(spherical_j(0.5, 3.8317059702)) < 1e-9
    frozen = 3.83170597020751
    assert float(mp.besselj(1, frozen)) == pytest.approx(0.0, abs=1e-13)


def test_spherical_j_small_argument_normalization():
    # j_nu(x) * (2nu+1)!! / x^nu -> 1, with (2nu+1)!! = 2^(nu+1) Gamma(nu+3/2)/sqrt(pi)
    nu = 2.4
    dfact = 2.0 ** (nu + 1.0) * math.exp(math.lgamma(nu + 1.5)) / math.sqrt(math.pi)
    for x in (1e-2, 1e-3, 1e-4):
        ratio = spherical_j(nu, x) * dfact / x**nu
        assert ratio == pytest.approx(1.0, abs=2.0 * x * x)


def test_spherical_j_matches_mpmath_on_either_side_of_one_half():
    # spherical_j against mpmath at x = 0.49 and 0.51
    for nu in (0.0, 0.7, 3.2):
        for x in (0.49, 0.51):
            want = math.sqrt(math.pi / (2 * x)) * float(mp.besselj(nu + 0.5, x))
            assert spherical_j(nu, x) == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    nu=st.floats(min_value=-0.49, max_value=8.0),
    x=st.floats(min_value=1e-3, max_value=50.0),
)
def test_spherical_j_matches_mpmath(nu, x):
    want = float(mp.sqrt(mp.pi / (2 * x)) * mp.besselj(nu + 0.5, x))
    assert spherical_j(nu, x) == pytest.approx(want, rel=1e-11, abs=1e-13)


def _mp_spherical_j(nu, x):
    with mp.workdps(40):
        return mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(mp.mpf(nu) + 0.5, x)


def _mp_riccati_deriv(nu, x):
    with mp.workdps(40):
        return (nu + 1) * _mp_spherical_j(nu, x) - x * _mp_spherical_j(nu + 1.0, x)


SMALL_X = [1e-310, 1e-200, 1e-3, 0.3, 0.49]


@pytest.mark.parametrize("nu", [0.0, 0.3, 2.4, 149.7, 150.0, 200.0, 500.0])
def test_small_argument_values_match_mpmath(nu):
    # the ascending series overflowed in its double factorial for nu >= 149.68; a value
    # below the smallest double is 0 on both sides
    for x in SMALL_X:
        assert spherical_j(nu, x) == pytest.approx(float(_mp_spherical_j(nu, x)), rel=1e-13, abs=0.0)
        assert riccati_deriv(nu, x) == pytest.approx(float(_mp_riccati_deriv(nu, x)), rel=1e-13, abs=0.0)
    xs = np.array(SMALL_X + [0.7, 3.0, 250.0])
    assert spherical_j(nu, xs).tolist() == [spherical_j(nu, x) for x in xs.tolist()]
    assert riccati_deriv(nu, xs).tolist() == [riccati_deriv(nu, x) for x in xs.tolist()]


@pytest.mark.parametrize("nu, x", [(0.6, 1e-305), (1.2, 1e-250), (1.1, 1e-280)])
def test_values_where_the_cylindrical_bessel_function_underflows(nu, x):
    # J_{nu+1/2}(x) is below the smallest double here while j_nu(x) is not
    assert spherical_j(nu, x) == pytest.approx(float(_mp_spherical_j(nu, x)), rel=1e-13, abs=0.0)
    assert riccati_deriv(nu, x) == pytest.approx(float(_mp_riccati_deriv(nu, x)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("f", [spherical_j, riccati_deriv])
def test_order_zero_is_exactly_one_at_small_arguments(f):
    # j_0(x) = 1 - x^2/6 + ..., and so is Ric'_0(x) = cos x to first order: below x^2 = eps/4
    # the leading term, exactly 1, is the value
    xs = [1e-310, 1e-200, 1e-10]
    assert [f(0.0, x) for x in xs] == [1.0, 1.0, 1.0]
    assert f(0.0, np.array(xs)).tolist() == [1.0, 1.0, 1.0]


ARRAY_NUS = [-0.49, -1e-9, 0.0, 1e-9, 0.3, 0.5, 1.0, 2.0, 2.0 / 3.0, 7.3, 40.0, 149.7, 500.0]
ARRAY_XS = [1e-310, 1e-200, 1e-10, 1e-3, 0.3, 0.49, 0.7, 3.0, 12.05, 57.3, 250.0]


@pytest.mark.parametrize("f", [spherical_j, riccati_deriv])
def test_an_array_order_gives_the_float_calls_element_by_element(f):
    # one nu per row, broadcast against x, as a radial round calls it; a row holding small
    # arguments takes the near-zero form for all of its elements
    nus, xs = np.array(ARRAY_NUS), np.array(ARRAY_XS)
    want = [[f(nu, x) for x in ARRAY_XS] for nu in ARRAY_NUS]
    assert f(nus[:, None], xs).tolist() == want
    assert f(nus[:, None], np.tile(xs, (len(nus), 1))).tolist() == want
    assert f(nus, 3.0).tolist() == [f(nu, 3.0) for nu in ARRAY_NUS]
    assert f(nus, 1e-200).tolist() == [f(nu, 1e-200) for nu in ARRAY_NUS]
    pairs = np.array([(nu, x) for nu in ARRAY_NUS for x in ARRAY_XS[3:]])
    assert f(pairs[:, 0], pairs[:, 1]).tolist() == [f(nu, x) for nu, x in pairs.tolist()]


@settings(max_examples=60, deadline=None)
@given(
    nus=st.lists(st.floats(min_value=-0.5, max_value=300.0, exclude_min=True), min_size=1, max_size=6),
    xs=st.lists(st.floats(min_value=1e-6, max_value=400.0), min_size=1, max_size=6),
)
def test_an_array_order_gives_the_float_calls_anywhere(nus, xs):
    for f in (spherical_j, riccati_deriv):
        want = [[f(nu, x) for x in xs] for nu in nus]
        assert np.array(f(np.array(nus)[:, None], np.array(xs))).tolist() == want


def test_an_array_order_is_checked_like_a_float():
    with pytest.raises(DomainError):
        spherical_j(np.array([1.0, -0.5]), 1.0)
    with pytest.raises(DomainError):
        riccati_deriv(np.array([[1.0], [-0.7]]), np.array([1.0, 2.0]))


def test_array_argument_keeps_the_values_at_zero():
    assert spherical_j(0.0, np.array([0.0, 1.0])).tolist() == [1.0, spherical_j(0.0, 1.0)]
    assert spherical_j(2.4, np.array([0.0, 1.0])).tolist() == [0.0, spherical_j(2.4, 1.0)]
    with pytest.raises(DomainError):
        spherical_j(1.0, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        riccati_deriv(1.0, np.array([1.0, 0.0]))


def test_spherical_j_domain():
    with pytest.raises(DomainError):
        spherical_j(-0.5, 1.0)
    with pytest.raises(DomainError):
        spherical_j(1.0, -1.0)


# --- Riccati derivative --------------------------------------------------------


def test_riccati_deriv_order_zero_is_cosine():
    assert abs(riccati_deriv(0.0, math.pi / 2.0)) < 1e-15
    assert riccati_deriv(0.0, 0.1) == pytest.approx(math.cos(0.1), rel=1e-14, abs=0.0)
    xs = np.linspace(0.1, 30.0, 97)
    mine = np.array([riccati_deriv(0.0, x) for x in xs])
    assert np.allclose(mine, np.cos(xs), rtol=1e-12, atol=1e-14)


def test_riccati_deriv_near_table_root():
    assert abs(riccati_deriv(1.0, 2.744)) < 1e-3


def test_riccati_deriv_matches_finite_differences():
    h = 1e-6
    for nu, x in ((0.3, 1.7), (2.2, 5.9), (0.0, 0.7)):
        fd = ((x + h) * spherical_j(nu, x + h) - (x - h) * spherical_j(nu, x - h)) / (2 * h)
        assert riccati_deriv(nu, x) == pytest.approx(fd, rel=1e-8, abs=1e-9)


def test_riccati_deriv_domain():
    with pytest.raises(DomainError):
        riccati_deriv(0.0, 0.0)


# --- polar angular solution -----------------------------------------------------


def test_legendre_theta_sectoral_is_sin_power():
    assert legendre_theta(2.0 / 3.0, 2.0 / 3.0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(m=st.floats(min_value=1e-3, max_value=5.0))
def test_legendre_theta_sectoral_property(m):
    for theta in np.linspace(0.05, math.pi - 0.05, 23):
        assert legendre_theta(m, m, theta) == pytest.approx(math.sin(theta) ** m, rel=1e-12, abs=0.0)


def test_legendre_theta_first_tesseral():
    # nu = 5/3, m = 2/3 terminates after one step: sin^(2/3) * cos
    for theta in (0.3, 1.0, math.pi / 2.0, 2.5, 3.0):
        want = math.sin(theta) ** (2.0 / 3.0) * math.cos(theta)
        assert legendre_theta(5.0 / 3.0, 2.0 / 3.0, theta) == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert abs(legendre_theta(5.0 / 3.0, 2.0 / 3.0, math.pi / 2.0)) < 1e-15


def test_legendre_theta_is_legendre_polynomial_for_integers():
    assert legendre_theta(1.0, 0.0, math.pi / 3.0) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    theta = 1.234
    p2 = 0.5 * (3.0 * math.cos(theta) ** 2 - 1.0)
    assert legendre_theta(2.0, 0.0, theta) == pytest.approx(p2, rel=1e-13, abs=0.0)


def test_legendre_theta_deriv_sectoral():
    m = 1.7
    assert abs(legendre_theta_deriv(m, m, math.pi / 2.0)) < 1e-14
    theta = 0.8
    want = m * math.sin(theta) ** (m - 1.0) * math.cos(theta)
    assert legendre_theta_deriv(m, m, theta) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_legendre_theta_deriv_p1():
    assert legendre_theta_deriv(1.0, 0.0, math.pi / 2.0) == pytest.approx(-1.0, rel=1e-14, abs=0.0)
    assert legendre_theta_deriv(1.0, 0.0, 0.7) == pytest.approx(-math.sin(0.7), rel=1e-13, abs=0.0)


def test_legendre_theta_deriv_p2_oracle():
    # dP2(cos t)/dt = -3 cos t sin t (direct polynomial differentiation);
    # at cos t = 1/sqrt(3) the VALUE vanishes and the derivative is -sqrt(2),
    # while the derivative's zero sits at t = pi/2
    theta = math.acos(1.0 / math.sqrt(3.0))
    assert abs(legendre_theta(2.0, 0.0, theta)) < 1e-14
    want = -3.0 * math.cos(theta) * math.sin(theta)
    assert want == pytest.approx(-math.sqrt(2.0), rel=1e-15, abs=0.0)
    assert legendre_theta_deriv(2.0, 0.0, theta) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert abs(legendre_theta_deriv(2.0, 0.0, math.pi / 2.0)) < 1e-13


def test_legendre_theta_ode_path_matches_mpmath():
    # non-terminating parameters past z = 1/2 exercise the connection formulas
    cases = [(0.41, 0.0), (0.73, 0.4), (1.9, 1.3), (0.0874, 0.0)]
    for nu, m in cases:
        for theta in (2.2, 2.8, 3.05):
            z = mp.sin(theta / 2.0) ** 2
            want = float(mp.sin(theta) ** m * mp.hyp2f1(m - nu, m + nu + 1.0, m + 1.0, z))
            got = legendre_theta(nu, m, theta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_legendre_theta_deriv_ode_path_matches_mpmath():
    nu, m = 0.73, 0.4
    for theta in (2.3, 2.9):
        f = lambda t: mp.sin(t) ** m * mp.hyp2f1(m - nu, m + nu + 1.0, m + 1.0, mp.sin(t / 2) ** 2)
        want = float(mp.diff(f, theta))
        assert legendre_theta_deriv(nu, m, theta) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_legendre_theta_value_deriv_consistency():
    # high-order finite difference of the value reproduces the analytic derivative
    h = 1e-3
    for nu, m, theta in ((5.0 / 3.0, 2.0 / 3.0, 1.1), (0.73, 0.4, 2.6), (3.0, 1.0, 0.9)):
        vals = [legendre_theta(nu, m, theta + j * h) for j in (-2, -1, 1, 2)]
        fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        assert legendre_theta_deriv(nu, m, theta) == pytest.approx(fd, rel=1e-9, abs=1e-10)


def _mp_polar_pair(nu, m, theta):
    # sin^m(theta) 2F1(m - nu, m + nu + 1; m + 1; sin^2(theta/2)) and its
    # derivative by the product rule and d/dz 2F1 = (ab/c) 2F1(a+1, b+1; c+1; z)
    nu, m, theta = mp.mpf(nu), mp.mpf(m), mp.mpf(theta)
    a, b, c = m - nu, m + nu + 1, m + 1
    z = mp.sin(theta / 2) ** 2
    f = mp.hyp2f1(a, b, c, z)
    fp = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
    value = mp.sin(theta) ** m * f
    deriv = m * mp.sin(theta) ** (m - 1) * mp.cos(theta) * f + mp.sin(theta) ** (m + 1) / 2 * fp
    return float(value), float(deriv)


@pytest.mark.parametrize("m", [0.0, 1.0, 2.0, 3.0, 2.0 / 3.0, 4.0 / 3.0, 1.3, 0.507])
def test_polar_solution_past_half_matches_mpmath(m):
    # z = sin^2(theta/2) > 1/2: the connection formulas, integer m through the
    # logarithmic case; theta up to pi - 0.4 deg
    thetas = [2.2, 2.8, math.pi - math.radians(20.0), math.pi - math.radians(0.4)]
    for nu in (1e-4, 0.0874, 0.9, 1.5, 2.7, 4.3):
        for theta in thetas:
            value, deriv = polar_solution(nu, m, theta)
            want_value, want_deriv = _mp_polar_pair(nu, m, theta)
            scale = abs(want_value) + abs(want_deriv) * math.sin(theta)
            assert value == pytest.approx(want_value, rel=1e-11, abs=1e-12 * scale)
            assert deriv == pytest.approx(want_deriv, rel=1e-11, abs=1e-12 * scale / math.sin(theta))


def test_terminates_scalar_path_matches_array_path():
    from sphcav.specfun import INT_TOL, terminates as _terminates

    offsets = (0.0, 0.5, 1.5, 2.5, -INT_TOL, -2.0 * INT_TOL, 3.0 + INT_TOL, 3.0 - 3.0 * INT_TOL, 7.3, 1e300)
    for m in (0.0, 2.0 / 3.0, 1.0, 4.0):
        for nu in [m + d for d in offsets] + [math.inf, math.nan]:
            with np.errstate(invalid="ignore"):
                want = bool(_terminates(np.array([nu]), m)[0])
            assert _terminates(nu, m) == want
            assert _terminates(np.float64(nu), m) == want


def test_polar_solution_vectorized_matches_scalar():
    nus = np.array([0.3, 1.0, 2.0 + 1.0 / 3.0, 3.7])
    thetas = np.array([[0.4], [1.6], [2.9]])
    for m in (0.0, 1.0, 2.0 / 3.0, 1.001):
        values, derivs = polar_solution(nus, m, thetas)
        assert values.shape == derivs.shape == (3, 4)
        for i, theta in enumerate(thetas[:, 0]):
            for j, nu in enumerate(nus):
                value, deriv = polar_solution(float(nu), m, float(theta))
                assert values[i, j] == pytest.approx(value, rel=1e-12, abs=1e-15)
                assert derivs[i, j] == pytest.approx(deriv, rel=1e-12, abs=1e-15)


def test_legendre_theta_is_the_polar_value_bit_for_bit():
    # the cone scan evaluates the value alone; it must be the value polar_solution returns
    nus = np.array([0.3, 1.0, 2.0 + 1.0 / 3.0, 3.7, 7.25])
    for m in (0.0, 1.0, 2.0 / 3.0, 1.001, 4.0):
        for theta in (0.4, 1.6, 2.9, math.pi - math.radians(20.0)):
            assert np.array_equal(legendre_theta(nus, m, theta), polar_solution(nus, m, theta)[0])
            for nu in nus:
                assert legendre_theta(float(nu), m, theta) == polar_solution(float(nu), m, theta)[0]
                assert legendre_theta_deriv(float(nu), m, theta) == polar_solution(float(nu), m, theta)[1]


def test_legendre_theta_domain():
    with pytest.raises(DomainError):
        legendre_theta(1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        legendre_theta(1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        legendre_theta(1.0, 0.5, math.pi)


# --- Airy constants --------------------------------------------------------------


def test_airy_table_matches_scipy():
    from scipy.special import ai_zeros

    a, ap, _, _ = ai_zeros(5)
    assert np.allclose(AIRY_ZEROS, -a, rtol=0, atol=1e-9)
    assert np.allclose(AIRY_PRIME_ZEROS, -ap, rtol=0, atol=1e-9)
    assert all(x < y for x, y in zip(AIRY_ZEROS, AIRY_ZEROS[1:]))
    assert AIRY_ZEROS[0] == pytest.approx(2.338107, abs=1e-6)
    assert AIRY_PRIME_ZEROS[0] == pytest.approx(1.018793, abs=1e-6)


HALF = Lattice(0.0, 0.5)


def _scan(f, values=None):
    """An ``evaluate`` of f for lattice_roots, with ``values`` in place of f on the first call."""
    calls = []

    def evaluate(rows, x):
        calls.append(x.tolist())
        if values is not None and len(calls) == 1:
            return values
        out = np.array([f(v) for v in x.tolist()])
        if not np.isfinite(out).all():
            raise RootSearchError("f is not finite on the scan")
        return out

    return evaluate, calls


def test_lattice_roots_takes_lattice_zeros_once_and_refines_sign_changes():
    def f(x):
        return (x - 1.0) * (x - 2.3)

    # two rows: 0.0-3.0 by single steps, and 0.0, 2.0, 4.0, whose bracket [0, 2] is bisected
    # to the lattice zero at 1.0 and whose last point is only a bracket end
    evaluate, calls = _scan(f)
    index = np.array([0, 1, 2, 3, 4, 5, 6, 0, 4, 8])
    got = lattice_roots(HALF, [7, 3], index, evaluate, [(f, "f"), (f, "f")], brentq, xtol=1e-14)
    assert [list(roots) for roots in got] == [[1.0, pytest.approx(2.3, abs=1e-13)], [1.0, pytest.approx(2.3, abs=1e-13)]]
    # lockstep bisection of both brackets of row 2; the zero at 1.0 ends its bracket from above
    assert calls[1:] == [[1.0, 3.0], [0.5, 2.5]]
    with pytest.raises(RootSearchError, match="f is not finite"):
        lattice_roots(HALF, [2], np.array([0, 1]), _scan(lambda x: math.inf)[0], [(f, "f")], brentq)


def test_lattice_roots_names_a_bracket_that_refinement_rejects():
    def f(x):
        return x - 0.8

    def diverge(f, lo, hi, **tol):
        raise RuntimeError("failed to converge")

    index = np.arange(4)
    (roots,) = lattice_roots(HALF, [4], index, _scan(f)[0], [(f, "f")], diverge)
    with pytest.raises(RootSearchError, match="f could not be refined") as err:
        list(roots)
    assert err.value.window == (0.5, 1.0)

    def refuse(f, lo, hi):
        raise DomainError("f is undefined here")

    (roots,) = lattice_roots(HALF, [4], index, _scan(f)[0], [(f, "f")], refuse)
    with pytest.raises(DomainError, match="undefined"):  # passes unchanged
        list(roots)


def test_brent_takes_the_bracket_ends_from_the_scan():
    # a scan that disagrees in sign with f (as the cone scan and the scalar condition may in
    # the polar series' noise) used to end in scipy's ValueError; Brent now starts from the
    # scan's values, evaluates f only inside the bracket, and ends within it
    inside = []

    def f(x):
        inside.append(x)
        return x - 1.0

    values = np.array([-1.0, 1.0, 1.0, 1.0])  # a sign change on [0, 0.5], where f has none
    (roots,) = lattice_roots(HALF, [4], np.arange(4), _scan(f, values)[0], [(f, "f")], brentq)
    (root,) = list(roots)
    assert 0.0 < root <= 0.5 and inside and all(0.0 < x < 0.5 for x in inside)


def test_lattice_points_are_closed_form_and_index_finds_the_first_at_or_past():
    lattice = Lattice(1e-4, 0.02)
    assert lattice.point(10250) == 1e-4 + 10250 * 0.02
    for x in (-1.0, 0.0, 1e-4, 0.0201, 0.02011, 5.13, 205.0, 205.0001):
        i = lattice.index(x)
        assert lattice.point(i) >= x > lattice.point(i - 1)


# --- orders that broadcast --------------------------------------------------------

POLAR_POINTS = st.tuples(
    st.floats(0.0, 25.0),
    st.one_of(
        st.integers(0, 7).map(float),
        st.floats(0.0, 7.0),
        st.tuples(st.integers(1, 7), st.floats(-3.99e-3, 3.99e-3)).map(lambda t: t[0] + t[1]),
    ),
    # the retained pole's side of a cone from 0.3 to 89 deg, and the north half
    st.one_of(st.floats(math.radians(91.0), math.radians(179.7)), st.floats(0.05, 1.5)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(POLAR_POINTS, min_size=1, max_size=30))
def test_polar_solution_with_one_order_per_point_is_each_scalar_call(points):
    # the integer, fractional, interpolation-band and terminating branches are picked
    # per element; each element agrees with its scalar call to 1e-13 of the local envelope
    # (the largest |Theta| and |Theta'| over nu +- 1, nu >= 0, at its order and angle)
    nu, m, theta = (np.array(column) for column in zip(*points))
    value, deriv = polar_solution(nu, m, theta)
    assert np.array_equal(legendre_theta(nu, m, theta), value)
    for i, (n, order, th) in enumerate(points):
        lone = polar_solution(n, order, th)
        near = polar_solution(np.linspace(max(n - 1.0, 0.0), n + 1.0, 21), order, th)
        envelope = max(np.abs(near[0]).max(), np.abs(near[1]).max())
        assert abs(value[i] - lone[0]) <= 1e-13 * envelope
        assert abs(deriv[i] - lone[1]) <= 1e-13 * envelope


def test_polar_solution_broadcasts_its_order():
    theta = np.array([[2.5], [2.9]])
    m = np.array([0.0, 2.0 / 3.0, 1.001, 3.0])
    value, deriv = polar_solution(4.3, m, theta)
    assert value.shape == deriv.shape == (2, 4)
    for (i, j), v in np.ndenumerate(value):
        assert v == pytest.approx(legendre_theta(4.3, m[j], theta[i, 0]), rel=1e-13, abs=1e-13)
    with pytest.raises(DomainError, match="order m"):
        polar_solution(4.3, np.array([1.0, -0.5]), 2.5)


# (nu, m, theta) -> repr of legendre_theta and of polar_solution's derivative: the far
# branch with integer, fractional and interpolation-band orders, the reflected
# polynomial (nu - m in N) and the near series, each pinned to its last bit
POLAR_PINS = [
    ((3.7, 0.0, 2.8), "0.03358628325100869", "2.9282085616295244"),
    ((5.3, 2.0, 2.5), "-0.08665392439226186", "0.2941372160069746"),
    ((12.9, 5.0, 2.9), "0.005462916884452414", "0.06022873852874634"),
    ((0.3, 1.0, 2.2), "3.0922737260027393", "3.166784232868668"),
    ((4.1, 2.0 / 3.0, 2.7), "-0.12946451877057646", "1.0687400268472875"),
    ((7.45, 1.5, 2.4), "-0.05897234783217754", "0.008305152106792113"),
    ((2.2, 4.0 / 3.0, 2.95), "-0.80290667367511", "-3.466701963051154"),
    ((3.3, 1.001, 2.6), "0.14681544838765911", "-0.8362838837174756"),
    ((6.7, 2.9985, 2.8), "0.11013708236053547", "0.36279737396830014"),
    ((5.0, 2.0, 2.7), "-0.11988907586561214", "0.25913553766473135"),
    ((2.0 / 3.0 + 4.0, 2.0 / 3.0, 2.5), "0.014064319952037793", "1.1270145075813267"),
    ((3.7, 1.0, 0.9), "0.016757541439046928", "-0.8758230531709541"),
    ((8.2, 2.0 / 3.0, 1.4), "-0.05564411819499351", "0.6457507711535503"),
]


@pytest.mark.parametrize("point, value, deriv", POLAR_PINS, ids=[repr(p[0]) for p in POLAR_PINS])
def test_scalar_polar_values_are_pinned(point, value, deriv):
    assert repr(legendre_theta(*point)) == value
    got = polar_solution(*point)
    assert type(got[0]) is float and type(got[1]) is float
    assert (repr(got[0]), repr(got[1])) == (value, deriv)
