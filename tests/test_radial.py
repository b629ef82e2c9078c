import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from oracles import mp_wall_root_near
from scipy.optimize import brentq

from sphcav import radial, specfun
from sphcav.errors import DomainError, RootSearchError
from sphcav.radial import (
    RadialSweep,
    RootKind,
    SPEED_OF_LIGHT,
    advance,
    frequency_from_root,
    j_zero,
    mcmahon_seed,
    nth,
    radial_root,
    riccati_deriv_zero,
)
from sphcav.specfun import riccati_deriv, spherical_j
from sphcav.spectrum import CavityConfig, enumerate_modes

GHZ_PER_X = SPEED_OF_LIGHT / (2.0 * math.pi * 0.015) / 1e9

# universal first roots, published table (radius 15 mm)
TABLE1 = [
    # nu, x_te, f_te_ghz, x_tm, f_tm_ghz
    (0.0, math.pi, 10.00, math.pi / 2.0, 5.00),
    (0.5, 3.832, 12.20, 2.166, 6.89),
    (1.0, 4.493, 14.30, 2.744, 8.73),
    (1.5, 5.136, 16.35, 3.311, 10.54),
    (2.0, 5.763, 18.35, 3.870, 12.32),
    (2.5, 6.380, 20.31, 4.424, 14.08),
    (3.0, 6.988, 22.24, 4.973, 15.83),
]


def test_order_zero_roots_are_elementary():
    assert j_zero(0.0, 1).x == pytest.approx(math.pi, abs=1e-12)
    assert j_zero(0.0, 2).x == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert riccati_deriv_zero(0.0, 1).x == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert riccati_deriv_zero(0.0, 2).x == pytest.approx(1.5 * math.pi, abs=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0 / 3.0, 1.0, 7.3, 40.0, 120.0])
def test_first_roots_lie_within_a_few_ulp_of_the_exact_root(nu):
    # Brent stops at scipy's relative floor, so each root is as close as its evaluator
    # allows: here within 16 ulp of a 40-digit root
    for kind, solver in ((TE, j_zero), (TM, riccati_deriv_zero)):
        for n in (1, 2, 3):
            x = solver(nu, n).x
            exact = mp_wall_root_near(nu, kind.value, x)
            assert abs(float((mpf(x) - exact) / math.ulp(float(exact)))) <= 16.0, (kind, n)


def test_table1_roots_regression():
    for nu, x_te, f_te, x_tm, f_tm in TABLE1:
        te = j_zero(nu, 1)
        tm = riccati_deriv_zero(nu, 1)
        assert abs(te.x - x_te) <= 5e-4
        assert abs(tm.x - x_tm) <= 5e-4
        assert abs(frequency_from_root(te.x, 0.015) / 1e9 - f_te) <= 0.05
        assert abs(frequency_from_root(tm.x, 0.015) / 1e9 - f_tm) <= 0.05


def test_named_roots():
    assert j_zero(0.5, 1).x == pytest.approx(3.8317059702, abs=1e-9)
    assert riccati_deriv_zero(2.0 / 3.0, 1).x == pytest.approx(2.36, abs=5e-3)
    assert riccati_deriv_zero(2.0, 1).x == pytest.approx(3.870, abs=5e-4)


def test_root_residuals_within_bound():
    for nu in (0.0, 0.3, 2.0 / 3.0, 1.5, 4.2):
        for n in (1, 2, 3):
            te = j_zero(nu, n)
            tm = riccati_deriv_zero(nu, n)
            assert abs(te.residual) <= 1e-9
            assert abs(tm.residual) <= 1e-9
            assert abs(spherical_j(nu, te.x)) <= 1e-9
            assert abs(riccati_deriv(nu, tm.x)) <= 1e-9


def test_roots_increase_with_n_and_exceed_order():
    for nu in (0.0, 0.7, 3.3):
        xs_te = [j_zero(nu, n).x for n in (1, 2, 3, 4)]
        xs_tm = [riccati_deriv_zero(nu, n).x for n in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(xs_te, xs_te[1:]))
        assert all(a < b for a, b in zip(xs_tm, xs_tm[1:]))
        assert xs_te[0] > nu and xs_tm[0] > nu


def test_first_roots_monotone_in_order():
    nus = np.arange(0.0, 5.01, 0.1)
    te = [j_zero(float(nu), 1).x for nu in nus]
    tm = [riccati_deriv_zero(float(nu), 1).x for nu in nus]
    assert all(a < b for a, b in zip(te, te[1:]))
    assert all(a < b for a, b in zip(tm, tm[1:]))


def test_mcmahon_seed_accuracy():
    for nu in range(5, 21):
        for kind, solver in (
            (RootKind.TE_JZERO, j_zero),
            (RootKind.TM_RICCATI_DERIV_ZERO, riccati_deriv_zero),
        ):
            seed = mcmahon_seed(float(nu), 1, kind)
            true = solver(float(nu), 1).x
            assert abs(seed - true) / true < 0.01


def test_mcmahon_seed_higher_branches():
    for n in (2, 3):
        for kind, solver in (
            (RootKind.TE_JZERO, j_zero),
            (RootKind.TM_RICCATI_DERIV_ZERO, riccati_deriv_zero),
        ):
            seed = mcmahon_seed(10.0, n, kind)
            true = solver(10.0, n).x
            assert abs(seed - true) / true < 0.01


def test_mcmahon_coefficient_identity():
    # the order-(1/3) coefficient is the first Airy zero scaled by 2^(-1/3)
    assert 2.338107 * 2.0 ** (-1.0 / 3.0) == pytest.approx(1.855757, abs=1e-6)


def test_mcmahon_domain():
    with pytest.raises(DomainError):
        mcmahon_seed(0.3, 1, RootKind.TE_JZERO)
    with pytest.raises(DomainError):
        mcmahon_seed(5.0, 9, RootKind.TE_JZERO)


BAD_KINDS = ["te", "TEM", "", None, 1, RootKind.TE_JZERO.name]


@pytest.mark.parametrize("kind", list(RootKind))
def test_mcmahon_seed_takes_a_kind_or_its_value(kind):
    # "TE" used to give the TM seed: 12.445 for 15.035 at nu = 10
    assert mcmahon_seed(10.0, 1, kind.value) == mcmahon_seed(10.0, 1, kind)
    assert mcmahon_seed(10.0, 1, "TE") == pytest.approx(15.035, abs=1e-3)
    for bad in BAD_KINDS:
        with pytest.raises(DomainError, match="radial kind"):
            mcmahon_seed(10.0, 1, bad)


def test_frequency_from_root():
    f = frequency_from_root(math.pi, 0.015)
    assert f == pytest.approx(9.993e9, rel=1e-3)
    assert frequency_from_root(2.744, 0.015) == pytest.approx(8.73e9, rel=1e-3)
    assert frequency_from_root(2.0, 0.015) == pytest.approx(2.0 * frequency_from_root(1.0, 0.015))
    with pytest.raises(DomainError):
        frequency_from_root(1.0, 0.0)
    with pytest.raises(DomainError):
        frequency_from_root(-1.0, 0.015)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_frequency_from_root_rejects_a_root_that_is_not_positive_and_finite(x):
    # nan used to give a nan frequency and inf an infinite one
    with pytest.raises(DomainError, match="root must be positive and finite"):
        frequency_from_root(x, 0.015)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_frequency_from_root_rejects_a_radius_that_is_not_finite(radius):
    with pytest.raises(DomainError, match="finite"):
        frequency_from_root(math.pi, radius)


def test_tm_dispersion_below_te():
    # for equal angular index the TM resonance sits below the TE one
    for nu in (0.5, 1.0, 2.0):
        assert riccati_deriv_zero(nu, 1).x < j_zero(nu, 1).x


def test_root_domain_errors():
    with pytest.raises(DomainError):
        j_zero(-0.6, 1)
    with pytest.raises(DomainError):
        j_zero(1.0, 0)
    with pytest.raises(DomainError):
        riccati_deriv_zero(1.0, -2)


@pytest.mark.parametrize("n", [1.5, 7.0, 1.0, math.nan, math.inf, "2", None])
@pytest.mark.parametrize(
    "search",
    [j_zero, riccati_deriv_zero, lambda nu, n: radial_root(nu, n, TM), lambda nu, n: nth([RadialSweep(nu, TE)], n)],
)
def test_a_radial_index_that_is_not_an_integer_raises_before_any_scan(monkeypatch, search, n):
    # j_zero(1.0, 1.5) used to raise TypeError from AIRY_ZEROS, riccati_deriv_zero(2.0, 7.0)
    # the same at roots[6] after scanning seven roots
    monkeypatch.setattr(specfun, "jv", lambda v, x: pytest.fail("scanned"))
    with pytest.raises(DomainError, match="radial index n"):
        search(2.0, n)


def test_a_radial_index_may_be_any_integer_type():
    assert _bits([j_zero(1.0, np.int64(2)), riccati_deriv_zero(1.0, True)]) == _bits(
        [j_zero(1.0, 2), riccati_deriv_zero(1.0, 1)]
    )


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("kind", list(RootKind))
def test_sweep_rejects_an_order_that_is_not_finite_above_minus_half(nu, kind):
    with pytest.raises(DomainError, match="nu"):
        RadialSweep(nu, kind)


@pytest.mark.parametrize("kind", list(RootKind))
def test_sweep_rejects_an_order_past_its_lattice(kind):
    # nu = 1e308 ended in an OverflowError from the lattice index, and nth at nu = 1.8e302 never
    # returned, its caps below the ulp of nu; up to MAX_NU neighbouring lattice points stay apart
    for nu in (1e308, 1.8e302, math.nextafter(RadialSweep.MAX_NU, math.inf)):
        with pytest.raises(DomainError, match="nu <="):
            RadialSweep(nu, kind)
    sweep = RadialSweep(RadialSweep.MAX_NU, kind)
    assert np.all(np.diff(sweep.LATTICE.point(sweep._i + np.arange(-2, 100))) > 0.0)


@pytest.mark.parametrize("kind", list(RootKind))
def test_radial_root_takes_a_kind_or_its_value(kind):
    # "TE" used to give the TM root: x = 3.8702 for 5.7635 at nu = 2
    solver = j_zero if kind is RootKind.TE_JZERO else riccati_deriv_zero
    assert radial_root(2.0, 1, kind.value) == radial_root(2.0, 1, kind) == solver(2.0, 1)
    assert radial_root(2.0, 1, "TE").x == pytest.approx(5.7635, abs=1e-4)
    for bad in BAD_KINDS:
        with pytest.raises(DomainError, match="radial kind"):
            radial_root(2.0, 1, bad)


def _advanced(sweep, x_cap):
    """The roots of ``sweep`` once they hold every root <= x_cap (the last may exceed it)."""
    advance([sweep], [x_cap])
    return list(sweep.roots)


@pytest.mark.parametrize("kind", list(RootKind))
def test_sweep_takes_a_kind_or_its_value(kind):
    # RadialSweep(2.0, "TE") used to raise a bare AttributeError
    sweep = RadialSweep(2.0, kind.value)
    assert sweep.kind is kind and _advanced(sweep, 12.0) == _advanced(RadialSweep(2.0, kind), 12.0)
    for bad in BAD_KINDS:
        with pytest.raises(DomainError, match="radial kind"):
            RadialSweep(2.0, bad)


TE, TM = RootKind.TE_JZERO, RootKind.TM_RICCATI_DERIV_ZERO
EPS = float(np.finfo(float).eps)


class DenseSweep(RadialSweep):
    """The reference scan, scalar and independent of radial.advance: the wall condition at
    every lattice point k * 0.05 in turn, from the last at or below max(nu, 1e-3) (k >= 1),
    one float call each, and scipy's Brent at the sweep's tolerance."""

    def __init__(self, nu, kind):
        super().__init__(nu, kind)
        self._i = max(1, math.floor(max(nu, 1e-3) / 0.05))

    def below(self, x_cap):
        f = spherical_j if self.kind is TE else riccati_deriv
        k, fk = self._i, f(self.nu, self._i * 0.05)
        while k * 0.05 < x_cap:
            f_next = f(self.nu, (k + 1) * 0.05)
            if fk == 0.0 or fk * f_next < 0.0:
                a, b = k * 0.05, (k + 1) * 0.05
                x = a if fk == 0.0 else brentq(lambda t: f(self.nu, t), a, b, xtol=1e-300, rtol=4 * EPS)
                self.roots.append(radial.RadialRoot(self.nu, len(self.roots) + 1, self.kind, x, f(self.nu, x)))
            k, fk = k + 1, f_next
        self._i = k
        return list(self.roots)


def _bits(roots):
    return [(r.nu, r.n, r.kind, r.x.hex(), r.residual.hex()) for r in roots]


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0 / 3.0, 7.3, 40.0, 120.0])
def test_sweep_matches_the_scalar_scan(nu):
    # advanced in short steps that end on and between lattice points, a sweep keeps the
    # roots of the scalar scan taken in one: a root is fixed by its lattice interval alone
    caps = [nu + 0.35 * k - 0.03 * (k % 2) for k in range(1, 120)]
    for kind in (TE, TM):
        sweep, want = RadialSweep(nu, kind), DenseSweep(nu, kind)
        for cap in caps:
            advance([sweep], [cap])
        assert len(want.below(caps[-1])) >= 5
        assert _sweep_state([sweep]) == _sweep_state([want])


def test_sweep_continues_without_refining_twice(monkeypatch):
    refined = []

    def counting(f, a, b, **tol):
        refined.append(a)
        return brentq(f, a, b, **tol)

    monkeypatch.setattr(radial, "brentq", counting)
    sweep = RadialSweep(2.0, TM)
    first = _advanced(sweep, 10.0)
    assert [r.x for r in first if r.x <= 10.0] == [riccati_deriv_zero(2.0, n).x for n in (1, 2)]
    refined.clear()
    assert _advanced(sweep, 9.0) == first and not refined
    more = _advanced(sweep, 30.0)
    assert more[: len(first)] == first and more[-1].x > 28.0
    assert len(refined) == len(set(refined)) == len(more) - len(first)


def _assert_scan_matches_the_dense_scan(nu):
    for kind in (TE, TM):
        want = DenseSweep(nu, kind).below(nu + 120.0)
        assert len(want) >= 21
        assert _bits(_advanced(RadialSweep(nu, kind), nu + 120.0)) == _bits(want)
        for n in (1, 2, 7, 20):
            assert _bits([radial_root(nu, n, kind)]) == _bits(want[n - 1 : n])


SCAN_NUS = [
    *np.linspace(-0.499, 0.0, 26)[1:-1].tolist(),  # with 0 below: 25 points on (-0.499, 0]
    *np.round(np.arange(0.0, 5.05, 0.1), 12).tolist(),
    1e-9, 2.0 / 3.0, 13.0 / 3.0, 7.3, 40.0, 120.0, 200.0,
]


@pytest.mark.parametrize("nu", SCAN_NUS)
def test_coarse_scan_matches_the_dense_scan(nu):
    _assert_scan_matches_the_dense_scan(nu)


@settings(max_examples=15, deadline=None)
@given(nu=st.floats(min_value=-0.499, max_value=200.0))
def test_coarse_scan_matches_the_dense_scan_anywhere(nu):
    _assert_scan_matches_the_dense_scan(nu)


@pytest.mark.parametrize("at", [20, 25])  # a coarse point, a point between two
def test_an_exact_zero_on_the_grid_is_the_root(monkeypatch, at):
    zero = (20 + at) * 0.05  # at lattice steps past the scan's start at x = 1.0
    monkeypatch.setattr(specfun, "jv", lambda v, x: np.asarray(x) - zero)
    want = DenseSweep(1.0, TE).below(5.0)
    assert [r.x for r in want] == [zero]
    assert _bits(_advanced(RadialSweep(1.0, TE), 5.0)) == _bits(want)


@pytest.mark.parametrize("at", [20, 23, 25, 39])  # a coarse point, points bisection reaches
def test_an_exact_zero_on_the_grid_is_the_root_in_a_shared_round(monkeypatch, at):
    # two sweeps open the same coarse interval around the zero, so it is bisected in
    # lockstep; the zero is still each one's root, and nothing is refined
    zero = (20 + at) * 0.05  # at lattice steps past the first scan's start at x = 1.0
    calls = []

    def jv(v, x):
        calls.append(np.size(x))
        return np.asarray(x) - zero

    monkeypatch.setattr(specfun, "jv", jv)
    monkeypatch.setattr(radial, "brentq", lambda *args, **tol: pytest.fail("a lattice zero was refined"))
    sweeps = [RadialSweep(1.0, TE), RadialSweep(1.1, TE)]  # scans from x = 1.0 and x = 1.1
    advance(sweeps, [5.0, 5.0])
    assert max(calls[1:], default=0) <= 2  # bisection steps, no one-call fill of the interval
    for sweep in sweeps:
        assert [r.x for r in sweep.roots] == [zero]
        assert _bits(sweep.roots) == _bits(DenseSweep(sweep.nu, TE).below(5.0))


def _sweep_state(sweeps):
    return [(_bits(s.roots), s._i) for s in sweeps]


CAP = st.floats(min_value=0.0, max_value=70.0)
SWEEP_SPEC = st.tuples(
    st.floats(min_value=-0.5, max_value=60.0, exclude_min=True, exclude_max=True),
    st.sampled_from([TE, TM]),
    st.one_of(st.none(), CAP),  # the cap of a twin an ulp above, if there is one
    st.floats(min_value=0.0, max_value=30.0),  # how far this sweep is advanced alone beforehand
    CAP,
)


@settings(max_examples=40, deadline=None)
@example(specs=[(0.0, TE, None, 0.0, 3 * 0.05)])  # 3 * 0.05 / 0.05 rounds above 3
@example(specs=[(0.0, TE, 70.0, 0.0, 2.0), (59.0, TM, None, 0.0, 70.0), (30.0, TE, 0.0, 5.0, 35.3)])
@given(specs=st.lists(SWEEP_SPEC, min_size=1, max_size=40))
def test_sweeps_advanced_together_match_each_alone_and_the_dense_scan(specs):
    # up to 80 sweeps advanced at once from staggered points of their scans, each to its own
    # cap, orders an ulp apart among them: every root, its n and residual, and where each
    # scan stands, to the bit
    orders = []
    for nu, kind, twin_cap, head, cap in specs:
        orders.append((nu, kind, head, cap))
        if twin_cap is not None:
            orders.append((math.nextafter(nu, math.inf), kind, head, twin_cap))
    caps = [cap for *_, cap in orders]

    def made(cls, scan):
        sweeps = [cls(nu, kind) for nu, kind, *_ in orders]
        for sweep, (nu, _, head, _) in zip(sweeps, orders):
            scan(sweep, nu + head)
        return sweeps

    together, alone = made(RadialSweep, _advanced), made(RadialSweep, _advanced)
    dense = made(DenseSweep, DenseSweep.below)
    advance(together, caps)
    for sweep, cap in zip(alone, caps):
        _advanced(sweep, cap)
    for sweep, cap in zip(dense, caps):
        sweep.below(cap)
    assert _sweep_state(together) == _sweep_state(alone) == _sweep_state(dense)
    for sweep, cap in zip(together, caps):
        assert sweep._x >= cap and (not sweep.roots or sweep.roots[-1].n == len(sweep.roots))


def test_advance_takes_a_sweep_listed_twice_once():
    # once, to the larger of its two caps, listed first or last
    want = [RadialSweep(2.0, TM), RadialSweep(3.0, TE)]
    _advanced(want[0], 30.0), _advanced(want[1], 10.0)
    for caps in ([30.0, 10.0, 12.0], [12.0, 10.0, 30.0]):
        sweep, other = RadialSweep(2.0, TM), RadialSweep(3.0, TE)
        advance([sweep, other, sweep], caps)
        assert _sweep_state([sweep, other]) == _sweep_state(want)


@pytest.mark.parametrize("x_cap", [math.nan, math.inf])
def test_advance_rejects_a_cap_that_is_not_finite(x_cap):
    # a cap that is not finite, or a count of caps other than one per sweep, raises before
    # any scan, rather than zip dropping sweeps or caps
    sweeps = [RadialSweep(1.0, TE), RadialSweep(2.0, TM)]
    for caps in ([1.0, x_cap], [x_cap, 5.0], [5.0], [5.0, 5.0, 5.0], []):
        with pytest.raises(DomainError, match="cap"):
            advance(sweeps, caps)
    assert _sweep_state(sweeps) == _sweep_state([RadialSweep(1.0, TE), RadialSweep(2.0, TM)])


@settings(max_examples=25, deadline=None)
@given(nu=st.floats(min_value=-0.5, max_value=200.0, exclude_min=True), kind=st.sampled_from([TE, TM]))
def test_consecutive_roots_are_far_apart(nu, kind):
    # at least pi apart for nu >= 0 (see radial.py); 3.02 at the least as nu -> -1/2
    xs = [r.x for r in _advanced(RadialSweep(nu, kind), nu + 60.0)]
    assert len(xs) >= 5
    assert min(b - a for a, b in zip(xs, xs[1:])) > 2.5


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(min_value=0.0, max_value=60.0))
def test_te_and_tm_roots_interlace(nu):
    # x'_1 < x_1 < x'_2 < x_2 < ...: [x j_nu]' vanishes once between zeros of x j_nu
    te = [r.x for r in _advanced(RadialSweep(nu, TE), nu + 30.0)]
    tm = [r.x for r in _advanced(RadialSweep(nu, TM), nu + 30.0)]
    count = min(len(te), len(tm))
    assert count >= 3
    merged = [x for pair in zip(tm[:count], te[:count]) for x in pair]
    assert all(a < b for a, b in zip(merged, merged[1:]))


@pytest.mark.parametrize("x_cap", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", list(RootKind))
def test_below_rejects_a_cap_that_is_not_finite(kind, x_cap):
    with pytest.raises(DomainError, match="cap"):
        _advanced(RadialSweep(1.0, kind), x_cap)


@pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 7.3, 120.0])
@pytest.mark.parametrize("kind", list(RootKind))
def test_below_and_nth_share_one_sweep(nu, kind):
    # nth is advance with a rising cap: on one sweep, in either order, the bits of a fresh one;
    # n = 6 and 20 lie beyond the stored Airy zeros
    fresh = {n: _bits(nth([RadialSweep(nu, kind)], n)) for n in (1, 2, 6, 20)}
    want = _advanced(RadialSweep(nu, kind), nu + 120.0)
    assert len(want) >= 21
    assert [_bits([r]) for r in want[:20]] == [_bits(nth([RadialSweep(nu, kind)], n)) for n in range(1, 21)]
    sweep = RadialSweep(nu, kind)
    assert 6 < len(_advanced(sweep, nu + 50.0)) < 20
    assert _bits(nth([sweep], 2)) == fresh[2] and _bits(nth([sweep], 6)) == fresh[6]
    assert _bits(nth([sweep], 20)) == fresh[20] and _bits(nth([sweep], 1)) == fresh[1]
    assert _bits(_advanced(sweep, nu + 120.0)) == _bits(want)
    sweep = RadialSweep(nu, kind)
    assert _bits(nth([sweep], 6)) == fresh[6]
    assert _bits(_advanced(sweep, nu + 120.0)) == _bits(want)


NTH_SPEC = st.tuples(
    st.one_of(  # widely spread orders: near -1/2, small, and up to 60
        st.floats(min_value=-0.5, max_value=0.5, exclude_min=True),
        st.floats(min_value=0.5, max_value=60.0),
    ),
    st.sampled_from([TE, TM]),
    st.booleans(),  # a twin an ulp above
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=30.0)),  # how far past nu it is scanned beforehand
)


@settings(max_examples=40, deadline=None)
@example(specs=[(float(nu), (TE, TM)[nu // 2 % 2], False, None) for nu in range(0, 60, 2)], n=1)  # caps 3.9-64
@example(specs=[(0.0, TM, True, None), (40.0, TE, False, 3.0), (59.5, TM, False, None)], n=6)
@given(specs=st.lists(NTH_SPEC, min_size=1, max_size=15), n=st.integers(min_value=1, max_value=6))
def test_nth_over_many_sweeps_is_each_lone_search(specs, n):
    # 1-30 sweeps taken to their n-th roots together, some scanned beforehand: each sweep's
    # roots and where its scan stands are those of its lone search (one shared cap per round
    # would take nu = 0 past its lone search's cap)
    orders = []
    for nu, kind, twin, head in specs:
        orders.append((nu, kind, head))
        if twin:
            orders.append((math.nextafter(nu, math.inf), kind, head))

    def made():
        sweeps = [RadialSweep(nu, kind) for nu, kind, _ in orders]
        for sweep, (nu, _, head) in zip(sweeps, orders):
            if head is not None:
                _advanced(sweep, nu + head)
        return sweeps

    together, alone = made(), made()
    got = nth(together, n)
    assert _bits(got) == _bits([nth([sweep], n)[0] for sweep in alone])
    assert _sweep_state(together) == _sweep_state(alone)


def test_nth_takes_widely_spread_sweeps_to_their_first_roots_in_one_round(monkeypatch):
    # each sweep goes to its own McMahon cap, above its first root, in one advance call;
    # grouping the caps within one block of the lowest took 58 rounds here
    calls = []
    real = radial.advance
    monkeypatch.setattr(radial, "advance", lambda sweeps, caps: calls.append(len(sweeps)) or real(sweeps, caps))
    sweeps = [RadialSweep(float(nu), kind) for nu in range(201) for kind in (TE, TM)]
    roots = nth(sweeps, 1)
    assert calls == [402]
    assert all(r.n == 1 and r.x > r.nu for r in roots)


def test_nth_over_no_sweeps_is_empty():
    assert nth([], 1) == []
    with pytest.raises(DomainError):
        nth([], 0)


@settings(max_examples=200, deadline=None)
@given(
    nu=st.floats(min_value=-0.5, max_value=200.0, exclude_min=True),
    x=st.floats(min_value=0.0, max_value=300.0, exclude_min=True),
    kind=st.sampled_from([TE, TM]),
)
@example(nu=-0.25 + 2.0**-53 + 2.0**-55, x=3.3, kind=TM)  # (nu + 1) + 1/2 != nu + 3/2 here
def test_sweep_value_is_the_wall_condition_of_the_field(nu, x, kind):
    # the scan, Brent and the field evaluate one function, so the field's wall condition
    # vanishes at the root the sweep returns
    want = spherical_j(nu, x) if kind is TE else riccati_deriv(nu, x)
    assert RadialSweep(nu, kind).value(x).hex() == want.hex()

X_CAP = 10.5  # no radial root within 1e-3 of it on either domain below


@settings(max_examples=12, deadline=None)
@given(radius=st.floats(min_value=1e-3, max_value=1.0), opening=st.sampled_from([360.0, 270.0]))
def test_frequency_times_radius_is_invariant(radius, opening):
    def spectrum(a):
        f_max = X_CAP * SPEED_OF_LIGHT / (2.0 * math.pi * a)
        return enumerate_modes(CavityConfig(a, opening), f_max_hz=f_max)

    # keyed by label: modes one ulp apart in frequency may sort either way
    ref = {(r.polarization, r.nu, r.m, r.n): r.frequency_hz * 0.015 for r in spectrum(0.015)}
    got = {(r.polarization, r.nu, r.m, r.n): r.frequency_hz * radius for r in spectrum(radius)}
    assert got.keys() == ref.keys()
    assert min(abs(f * 2.0 * math.pi / SPEED_OF_LIGHT - X_CAP) for f in ref.values()) > 1e-3
    for key, fa in ref.items():
        assert got[key] == pytest.approx(fa, rel=1e-13)


def test_non_finite_scan_raises(monkeypatch):
    real = specfun.jv
    monkeypatch.setattr(specfun, "jv", lambda v, x: np.where(x > 5.0, np.nan, real(v, x)))
    assert j_zero(0.0, 1).x == pytest.approx(math.pi, abs=1e-12)  # its scan stays below 5
    with pytest.raises(RootSearchError):
        j_zero(0.0, 3)
    with pytest.raises(RootSearchError):
        _advanced(RadialSweep(0.0, TM), 20.0)


def test_root_search_window_when_no_root_is_found(monkeypatch):
    # the scan gives up after the first cap whose scan passes nu + (40 + 4n) max(1, nu)^(1/3)
    real = specfun.jv
    monkeypatch.setattr(specfun, "jv", lambda v, x: np.ones_like(x))
    with pytest.raises(RootSearchError) as err:
        j_zero(1.0, 2)
    assert err.value.window == pytest.approx((1.0, 49.9), abs=1e-9)
    # J_{7/2} held at 1: the TE sweep of nu = 3 has no root, the others have theirs; a batch
    # names that sweep and gives up on it where its lone search does
    monkeypatch.setattr(specfun, "jv", lambda v, x: np.where(np.asarray(v) == 3.5, 1.0, real(v, x)))
    with pytest.raises(RootSearchError) as lone:
        j_zero(3.0, 2)
    sweeps = [RadialSweep(nu, kind) for nu in (0.0, 1.0, 3.0, 7.0, 30.0) for kind in (TE, TM)]
    with pytest.raises(RootSearchError, match=r"nu=3\.0\b") as err:
        nth(sweeps, 2)
    assert err.value.window == lone.value.window
    assert all(len(s.roots) >= 2 for s in sweeps if s.nu < 3.0)


@pytest.mark.parametrize("nu", [1.0, 8.0, 1000.0, 1e5])
@pytest.mark.parametrize("n", [1, 12])
def test_root_search_stop_scales_with_the_cube_root_of_the_order(monkeypatch, nu, n):
    # root n lies about z_n (nu/2)^(1/3) above nu, so the stop does too: it is passed by
    # less than one cap step (_BLOCK * _STEP = 3.2 plus a grid step)
    monkeypatch.setattr(specfun, "jv", lambda v, x: np.ones_like(x))
    with pytest.raises(RootSearchError) as err:
        j_zero(nu, n)
    limit = nu + (40.0 + 4.0 * n) * nu ** (1.0 / 3.0)
    assert err.value.window[0] == nu
    assert limit < err.value.window[1] <= limit + 3.25


@pytest.mark.parametrize("nu", [900.0, 5000.0, 17000.0, 1e5, 1e6])
@pytest.mark.parametrize("kind", list(RootKind))
def test_nth_is_below_at_large_orders(nu, kind):
    # the stop grows with nu^(1/3), so no root that advance finds is given up on; the
    # fixed stop lo + 40 + 4n used to give up on j_zero(900, 12) and j_zero(17000, 1)
    ns = (1, 2, 5, 6, 12, 20)
    got = [nth([RadialSweep(nu, kind)], n)[0] for n in ns]
    want = _advanced(RadialSweep(nu, kind), got[-1].x)
    assert [_bits([r]) for r in got] == [_bits([want[n - 1]]) for n in ns]


def test_large_order_roots():
    # 1.92, 0.03 and 0.67 ulp from a 40-digit root
    assert j_zero(900.0, 12).x == 1015.9729119641532
    assert j_zero(17000.0, 1).x == 17048.257387738555
    assert riccati_deriv_zero(1e6, 1).x == 1000081.3654818124


def test_radial_brent_evaluates_the_condition_only_inside_its_bracket(monkeypatch):
    # Brent takes the wall condition at the bracket ends from the scan, so every float call
    # of the condition during a refinement lies strictly inside the bracket
    bracket, outside, calls = [], [], []

    def counting(f, a, b, **tol):
        bracket[:] = [a, b]
        calls.append(0)
        try:
            return brentq(f, a, b, **tol)
        finally:
            bracket.clear()

    def watch(real):
        def condition(nu, x):
            if bracket:
                calls[-1] += 1
                if not bracket[0] < x < bracket[1]:
                    outside.append((x, *bracket))
            return real(nu, x)

        return condition

    monkeypatch.setattr(radial, "brentq", counting)
    monkeypatch.setattr(radial, "spherical_j", watch(spherical_j))
    monkeypatch.setattr(radial, "riccati_deriv", watch(riccati_deriv))
    sweeps = [RadialSweep(nu, kind) for nu in (0.0, 2.0 / 3.0, 7.3, 40.0) for kind in (TE, TM)]
    advance(sweeps, [70.0] * len(sweeps))
    assert sum(len(s.roots) for s in sweeps) == len(calls) >= 40
    assert all(calls) and not outside
