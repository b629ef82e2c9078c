"""Independent mpmath oracles for the boundary-value problems sphcav solves.

Nothing here imports sphcav.  Each eigenvalue is the first sign change of the
defining function on an upward scan, refined by Anderson-Bjorck (a bracketing
regula falsi) in 30-digit arithmetic:

* cone: the polar solution regular at theta = pi, written as
  sin^m * 2F1(m - nu, m + nu + 1; m + 1; sin^2((pi - theta_c)/2)), vanishes
  at the cone surface (TM), or its theta-derivative does (TE);
* TE wall: j_nu(x) = sqrt(pi/(2x)) J_{nu+1/2}(x) vanishes;
* TM wall: d/dx[x j_nu(x)], proportional to J_mu(x) + 2x J_mu'(x) with
  mu = nu + 1/2, vanishes.

``mp_wall_root_near`` and ``mp_cone_root_near`` refine a given radial or cone
root instead, at 40 digits, to measure its distance in ulp.
"""

import math

import mpmath as mp

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
DPS = 30


def _first_root(g, lo, hi, step):
    prev, x = g(lo), lo
    while x < hi:
        nxt = x + step
        cur = g(nxt)
        if prev * cur < 0:
            return float(mp.findroot(g, (x, nxt), solver="anderson", tol=1e-24))
        x, prev = nxt, cur
    raise AssertionError("oracle found no root")


def mp_cone_function(m, theta_c_rad, pol, nu):
    """The south-regular polar solution (TM) or its theta-derivative (TE) at the cone.

    With t = pi - theta_c and z = sin^2(t/2) the solution is
    sin^m(t) 2F1(a, b; c; z), a = m - nu, b = m + nu + 1, c = m + 1, whose
    derivative follows from the product rule and d/dz 2F1 = (ab/c) 2F1(a+1, b+1; c+1; z).
    Call inside ``mp.workdps``.
    """
    m, nu = mp.mpf(m), mp.mpf(nu)
    t = mp.pi - mp.mpf(theta_c_rad)
    z = mp.sin(t / 2) ** 2
    a, b, c = m - nu, m + nu + 1, m + 1
    f = mp.hyp2f1(a, b, c, z)
    if pol == "TM":
        return mp.sin(t) ** m * f
    fp = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
    return m * mp.sin(t) ** (m - 1) * mp.cos(t) * f + mp.sin(t) ** (m + 1) / 2 * fp


def mp_cone_root(m, theta_c_rad, pol, lo=1e-4, hi=3.0, step=0.01):
    """First nu in (lo, hi) at which the cone function of ``pol`` changes sign."""
    with mp.workdps(DPS):
        return _first_root(
            lambda nu: mp_cone_function(m, theta_c_rad, pol, nu), mp.mpf(lo), mp.mpf(hi), mp.mpf(step)
        )


def mp_cone_root_tm(m, theta_c_rad, lo=1e-4, hi=3.0, step=0.01):
    """First nu in (lo, hi) at which the south-regular polar solution vanishes at the cone."""
    return mp_cone_root(m, theta_c_rad, "TM", lo, hi, step)


def mp_cone_root_near(m, theta_c_rad, pol, nu, dps=40):
    """The root of the cone function of ``pol`` nearest nu, at dps digits, as an mpf: the
    narrowest of the brackets nu -+ 1e-12 (1 + nu) 10^k, k = 0 ... 10, that changes sign is
    refined.  Cone roots are more than 0.5 apart, so it is the root nu approximates."""
    with mp.workdps(dps + 10):
        g = lambda v: mp_cone_function(m, theta_c_rad, pol, v)  # noqa: E731
        x, half = mp.mpf(nu), mp.mpf("1e-12") * (1 + abs(mp.mpf(nu)))
        for _ in range(11):
            if g(x - half) * g(x + half) < 0:
                return +mp.findroot(g, (x - half, x + half), solver="anderson")
            half *= 10
        raise AssertionError("no sign change around the root")


def mp_cone_sign_changes(m, theta_c_rad, pol, hi, step=0.02, lo=1e-4):
    """Number of sign changes of the cone function on a nu grid from lo to hi."""
    with mp.workdps(20):
        n = int((hi - lo) / step)
        vals = [mp_cone_function(m, theta_c_rad, pol, lo + i * step) for i in range(n + 1)]
    return sum(1 for u, v in zip(vals, vals[1:]) if u * v < 0)


def _wall_root(g):
    # for nu >= 0 both wall functions are positive up to their first root,
    # which lies at or above pi/2 (nu = 0: pi for j_0, pi/2 for cos x)
    return _first_root(g, mp.mpf("0.5"), mp.mpf(60), mp.mpf("0.05"))


def mp_j_first_zero(nu):
    """First positive root of the spherical Bessel function j_nu (TE wall)."""
    with mp.workdps(DPS):
        mu = mp.mpf(nu) + mp.mpf(1) / 2
        return _wall_root(lambda x: mp.besselj(mu, x))


def mp_riccati_deriv_first_zero(nu):
    """First positive root of d/dx[x j_nu(x)] (TM wall)."""
    with mp.workdps(DPS):
        mu = mp.mpf(nu) + mp.mpf(1) / 2
        return _wall_root(lambda x: mp.besselj(mu, x) + 2 * x * mp.besselj(mu, x, derivative=1))


def _bessel_ratio(mu, x):
    """J_mu(x) / J_(mu-1)(x) by its continued fraction 1/(b_0 - 1/(b_1 - ...)), b_k = 2(mu+k)/x,
    summed by modified Lentz; it converges for every x > 0, since J is the minimal solution
    of the recurrence, and at every order, where mpmath's besselj series at x ~ mu ~ 1e5
    does not."""
    tiny, f = mp.mpf(10) ** (-2 * mp.mp.dps), 2 * mu / x
    c, d, k = f, mp.mpf(0), 1
    while True:
        b = 2 * (mu + k) / x
        d, c = b - d, b - 1 / c
        d, c = 1 / (d or tiny), c or tiny
        f *= c * d
        if abs(c * d - 1) < mp.eps:
            return 1 / f
        k += 1


def mp_wall_root_near(nu, pol, x, dps=40):
    """The root of the ``pol`` wall condition for order nu in [x - 1e-9 x, x + 1e-9 x], at dps
    digits, as an mpf.  Near a root the condition is divided by a Bessel function that does
    not vanish there (roots of J_mu and of J_mu + 2x J_mu' interlace with those of J_(mu-1)
    and J_mu): TE J_mu/J_(mu-1), TM (1 - 2 mu) + 2x J_(mu-1)/J_mu.  Radial roots are more
    than 3 apart, so it is the root nearest x."""
    with mp.workdps(dps + 10):
        mu = mp.mpf(nu) + mp.mpf(1) / 2
        if pol == "TE":
            g = lambda t: _bessel_ratio(mu, t)  # noqa: E731
        else:
            g = lambda t: 1 - 2 * mu + 2 * t / _bessel_ratio(mu, t)  # noqa: E731
        x, half = mp.mpf(x), mp.mpf(x) * mp.mpf("1e-9")
        assert g(x - half) * g(x + half) < 0, "no sign change around the root"
        return +mp.findroot(g, (x - half, x + half), solver="anderson")


def frequency_ghz(x, radius_m):
    """Resonance in GHz of a dimensionless wall root x in a sphere of radius a."""
    return SPEED_OF_LIGHT * x / (2.0 * math.pi * radius_m) / 1e9
