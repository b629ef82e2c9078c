import collections
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jv

from sphcav import radial, spectrum
from sphcav.errors import DomainError, FixtureLookupError
from sphcav.radial import RadialSweep, j_zero, riccati_deriv_zero
from sphcav.spectrum import (
    CavityConfig,
    cone_sweep,
    dispersion_table,
    enumerate_modes,
    format_csv,
    format_json,
    format_table,
    fundamental_tm,
    list_fixtures,
    load_fixture,
    validate,
    wedge_sweep,
)

A15 = CavityConfig(radius_m=0.015)
WEDGE90 = CavityConfig(radius_m=0.015, wedge_opening_deg=270.0)


def test_config_validation():
    with pytest.raises(DomainError):
        CavityConfig(radius_m=0.0)
    with pytest.raises(DomainError):
        CavityConfig(radius_m=0.015, wedge_opening_deg=0.0)
    with pytest.raises(DomainError):
        CavityConfig(radius_m=0.015, cone_half_angle_deg=90.0)


def test_full_sphere_fundamental_tm():
    rec = fundamental_tm(A15)
    assert rec.polarization == "TM"
    assert rec.nu == 1.0 and rec.m == 1.0
    assert rec.frequency_hz / 1e9 == pytest.approx(8.73, abs=0.01)


def test_wedge90_mode_list_matches_published_order():
    # exactly six records below 13.7 GHz, in the published order, with the
    # tesseral members slotted between the sectoral ones
    records = enumerate_modes(WEDGE90, f_max_hz=13.7e9)
    got = [(r.polarization, round(r.nu, 4), round(r.m, 4), r.k) for r in records]
    want = [
        ("TM", round(2.0 / 3.0, 4), round(2.0 / 3.0, 4), 0),
        ("TM", round(4.0 / 3.0, 4), round(4.0 / 3.0, 4), 0),
        ("TM", round(5.0 / 3.0, 4), round(2.0 / 3.0, 4), 1),
        ("TM", 2.0, 2.0, 0),
        ("TE", round(2.0 / 3.0, 4), round(2.0 / 3.0, 4), 0),
        ("TM", round(7.0 / 3.0, 4), round(4.0 / 3.0, 4), 1),
    ]
    assert got == want
    fams = [r.family for r in records]
    assert fams == ["sectoral", "sectoral", "tesseral", "sectoral", "sectoral", "tesseral"]
    freqs = [r.frequency_hz / 1e9 for r in records]
    assert freqs == sorted(freqs)


def test_tesseral_sits_between_adjacent_sectorals():
    records = enumerate_modes(WEDGE90, f_max_hz=13.7e9)
    by_key = {(r.polarization, round(r.nu, 4), r.k): r.frequency_hz for r in records}
    tess = by_key[("TM", round(5.0 / 3.0, 4), 1)]
    s_lo = by_key[("TM", round(4.0 / 3.0, 4), 0)]
    s_hi = by_key[("TM", 2.0, 0)]
    assert s_lo < tess < s_hi


def test_wedge90_frequencies():
    records = enumerate_modes(WEDGE90, f_max_hz=13.7e9)
    freqs = [r.frequency_hz / 1e9 for r in records]
    want = [7.5068, 9.9330, 11.1267, 12.3108, 12.8981, 13.4870]
    assert freqs == pytest.approx(want, abs=2e-3)


def test_enumerate_modes_max_count():
    records = enumerate_modes(WEDGE90, max_count=4)
    assert len(records) == 4
    assert [r.polarization for r in records] == ["TM", "TM", "TM", "TM"]


def _refinements(monkeypatch) -> list:
    """(sweep, a, b, x) of each refinement by radial's brentq, as it is made: the sweep is the
    one whose condition Brent's method evaluates inside the bracket [a, b], and only that one."""
    refined, inside = [], []
    value = RadialSweep.value

    def recording(sweep, x):
        inside.append(sweep)
        return value(sweep, x)

    def counting(f, a, b, **tol):
        inside.clear()
        x = brentq(f, a, b, **tol)
        assert inside and all(sweep is inside[0] for sweep in inside)
        refined.append((inside[0], a, b, x))
        return x

    monkeypatch.setattr(RadialSweep, "value", recording)
    monkeypatch.setattr(radial, "brentq", counting)
    return refined


@pytest.mark.parametrize("config", [A15, WEDGE90], ids=["sphere", "wedge270"])
def test_max_count_is_a_prefix_and_refines_each_root_once(config, monkeypatch):
    made = _refinements(monkeypatch)
    got = enumerate_modes(config, max_count=150)
    refined = [(sweep.nu, sweep.kind, a, b) for sweep, a, b, _ in made]
    assert len(got) == 150
    assert len(refined) == len(set(refined)) >= len({(r.polarization, r.nu, r.n) for r in got})
    assert got == enumerate_modes(config, f_max_hz=got[-1].frequency_hz)[:150]


def test_one_radial_sweep_per_eigenvalue(monkeypatch):
    # nu = m + k is formed in floating point, so on the 270 deg wedge one
    # eigenvalue arrives as floats an ulp apart (13/3 = 4/3 + 3 = 10/3 + 1);
    # its radial roots are refined once and shared, and each record keeps its nu
    made = _refinements(monkeypatch)
    got = enumerate_modes(WEDGE90, max_count=150)
    refined = [(round(sweep.nu, 9), sweep.kind, round(x, 9)) for sweep, _, _, x in made]
    assert len(refined) == len(set(refined))
    twins: dict = {}
    for r in got:
        twins.setdefault((r.polarization, round(r.nu, 9), r.n), []).append(r)
    shared = [rs for rs in twins.values() if len({r.nu for r in rs}) > 1]
    assert len(shared) >= 10
    assert all(len({r.root_x for r in rs}) == 1 for rs in shared)


def test_enumerate_requires_a_limit():
    with pytest.raises(DomainError):
        enumerate_modes(WEDGE90)


@pytest.mark.parametrize("count", [-3, 0])
def test_enumerate_rejects_a_count_below_one(count):
    # a negative count used to slice modes off the end, 0 to return none
    with pytest.raises(DomainError, match="max_count"):
        enumerate_modes(A15, f_max_hz=20e9, max_count=count)
    with pytest.raises(DomainError, match="max_count"):
        enumerate_modes(A15, max_count=count)


@pytest.mark.parametrize("count", [math.nan, math.inf, 2.5, 1.0, "3"])
def test_enumerate_rejects_a_count_that_is_not_an_integer(monkeypatch, count):
    # nan and inf used to grow the cap 1.5x forever, 2.5 and 1.0 to raise TypeError at the slice
    monkeypatch.setattr(spectrum, "_swept_candidates", lambda *args: pytest.fail("scanned"))
    with pytest.raises(DomainError, match="max_count"):
        enumerate_modes(A15, f_max_hz=20e9, max_count=count)
    with pytest.raises(DomainError, match="max_count"):
        enumerate_modes(A15, max_count=count)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.015])
def test_config_rejects_a_radius_that_is_not_positive_and_finite(bad):
    with pytest.raises(DomainError, match="radius"):
        CavityConfig(radius_m=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -5e9])
def test_enumerate_rejects_a_cutoff_that_is_not_positive_and_finite(bad):
    with pytest.raises(DomainError, match="f_max_hz"):
        enumerate_modes(A15, f_max_hz=bad)


def test_full_sphere_excludes_null_mode():
    records = enumerate_modes(A15, f_max_hz=9e9)
    assert all(not (r.nu == 0.0 and r.m == 0.0) for r in records)
    assert min(r.frequency_hz for r in records) / 1e9 == pytest.approx(8.7275, abs=1e-3)


def test_frequency_cutoff_is_inclusive():
    rec = fundamental_tm(A15)
    records = enumerate_modes(A15, f_max_hz=rec.frequency_hz)
    assert any(abs(r.frequency_hz - rec.frequency_hz) < 1.0 for r in records)


def test_enumerate_cone_geometry():
    # fat north-pole cone: the zonal branch-1 TM fundamental comes first;
    # the m = 1 Dirichlet branch coincides with the m = 0 Neumann (TE)
    # eigenvalue through the identity P_nu^1 = dP_nu/dtheta
    cfg = CavityConfig(radius_m=0.015, cone_half_angle_deg=33.69)
    recs = enumerate_modes(cfg, f_max_hz=9.5e9)
    assert [(r.polarization, r.m) for r in recs] == [("TM", 0.0), ("TM", 1.0)]
    assert recs[0].nu == pytest.approx(0.373547, abs=1e-5)
    assert recs[0].frequency_hz / 1e9 == pytest.approx(6.417, abs=2e-3)
    assert recs[0].family == "zonal"
    assert recs[0].k is None
    from sphcav.angular import cone_nu

    te_neumann = cone_nu(0.0, math.radians(33.69), "TE", 1)
    assert recs[1].nu == pytest.approx(te_neumann, abs=1e-9)


def _te_zonal_roots(x_cap):
    """(nu, n, x) of every root of j_nu = 0 (J_{nu+1/2}) below x_cap, nu = 1, 2, ..."""
    out = []
    for nu in range(1, int(x_cap) + 1):
        grid = np.arange(0.5, x_cap + 0.02, 0.02)
        vals = jv(nu + 0.5, grid)
        idx = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
        roots = [brentq(lambda x: jv(nu + 0.5, x), grid[i], grid[i + 1], xtol=1e-14) for i in idx]
        out += [(float(nu), n, x) for n, x in enumerate(roots, start=1) if x <= x_cap]
    return sorted(out, key=lambda t: t[2])


def test_pec_wedge_lists_te_zonal_modes():
    # between PEC faces cos(0 phi) carries TE m = 0 (E purely azimuthal, normal
    # to both faces); sin(0 phi) = 0 leaves no TM m = 0
    recs = enumerate_modes(WEDGE90, f_max_hz=40e9)
    assert len(recs) == 205
    zonal = [r for r in recs if r.m == 0.0]
    assert all(r.polarization == "TE" and r.family == "zonal" for r in zonal)
    x_cap = 2.0 * math.pi * 0.015 * 40e9 * (1.0 + 1e-6) / 299_792_458.0
    want = _te_zonal_roots(x_cap)
    assert len(zonal) == len(want) == 13
    for rec, (nu, n, x) in zip(zonal, want):
        assert (rec.nu, rec.n, rec.k) == (nu, n, int(nu))
        assert rec.root_x == pytest.approx(x, rel=1e-12)


def test_pec_wedge_with_cone_lists_te_zonal_modes():
    from sphcav.angular import cone_roots

    recs = enumerate_modes(CavityConfig(0.015, 270.0, 20.0), f_max_hz=15e9)
    zonal = [r for r in recs if r.m == 0.0]
    assert [r.polarization for r in zonal] == ["TE"]
    assert zonal[0].nu == cone_roots(0.0, math.radians(20.0), "TE", 2.0)[0]
    assert zonal[0].frequency_hz / 1e9 == pytest.approx(14.518, abs=1e-3)


def test_wedge_near_integer_order_with_cone():
    # m1 = 1.0001: the cone scan passes through nu = m1 exactly
    from oracles import mp_cone_root_tm

    cfg = CavityConfig(0.015, math.degrees(math.pi / 1.0001), 20.0)
    recs = enumerate_modes(cfg, f_max_hz=15e9)
    tm = [r for r in recs if r.polarization == "TM"]
    assert len(tm) == 3
    for r in tm:
        want = mp_cone_root_tm(r.m, math.radians(20.0), lo=r.nu - 0.01, hi=r.nu + 0.01, step=0.005)
        assert r.nu == pytest.approx(want, abs=1e-9)


def test_angular_candidates_with_wedge_and_cone():
    # combined geometry, first azimuthal index m > 0 only: the TM (Dirichlet)
    # branch sits just above m, the TE (Neumann) branch just below it
    from sphcav.spectrum import _angular_candidates

    cfg = CavityConfig(radius_m=0.015, wedge_opening_deg=270.0, cone_half_angle_deg=0.38)
    m = 2.0 / 3.0
    cands = [c[1:] for c in _angular_candidates(cfg.domain(), 0.9, {}) if c[0] > 0.0]
    assert all(k is None for _, k, _ in cands)
    by_kind = {kind.value: nu for nu, _, kind in cands}
    assert set(by_kind) == {"TM", "TE"}
    assert by_kind["TM"] == pytest.approx(0.667148, abs=1e-5)
    assert by_kind["TM"] > m
    assert by_kind["TE"] < m
    assert by_kind["TE"] == pytest.approx(m, abs=1e-3)


def test_cone_sweep_values_and_monotonicity():
    rows = cone_sweep(A15, [0.38, 7.59, 14.93, 21.80, 28.07, 33.69])
    nus = [r["nu"] for r in rows]
    freqs = [r["f_ghz"] for r in rows]
    assert nus == pytest.approx(
        [0.087440, 0.181623, 0.238208, 0.287278, 0.332131, 0.373547], abs=2e-6
    )
    assert freqs == pytest.approx(
        [5.3331, 5.6926, 5.9073, 6.0927, 6.2616, 6.4171], abs=2e-4
    )
    assert all(a < b for a, b in zip(nus, nus[1:]))
    assert all(a < b for a, b in zip(freqs, freqs[1:]))


def test_wedge_sweep_inversion_and_monotone_grid():
    rows = wedge_sweep(A15, [180.0, 210.0, 240.0, 270.0, 300.0, 330.0])
    f = {int(r["opening_deg"]): r["f_ghz"] for r in rows}
    # the published headline comparison: the 270-degree opening resonates
    # well below the hemisphere despite the larger volume
    assert f[270] <= 0.9 * f[180]
    # along the sampled grid the sectoral fundamental decreases monotonically
    # with opening (m1 = 180/opening decreases), so the grid argmin is the
    # largest sampled opening, not an interior point
    vals = [f[k] for k in (180, 210, 240, 270, 300, 330)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert min(rows, key=lambda r: r["f_ghz"])["opening_deg"] == 330.0


def test_wedge_sweep_full_circle_jumps_back_to_integer_m():
    rows = wedge_sweep(A15, [355.0, 360.0])
    assert rows[0]["m1"] == pytest.approx(180.0 / 355.0, rel=1e-12)
    assert rows[0]["f_ghz"] == pytest.approx(6.9156, abs=1e-3)
    assert rows[1]["m1"] == 1.0
    assert rows[1]["f_ghz"] == pytest.approx(8.7275, abs=1e-3)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(min_value=350.0, max_value=360.0, exclude_max=True),
    hi=st.floats(min_value=350.0, max_value=360.0, exclude_max=True),
)
def test_wedge_m1_tends_to_half_from_above(lo, hi):
    # m1 = pi / Phi, so m1 - 1/2 = (360 - Phi) / (2 Phi) in degrees
    lo, hi = sorted((lo, hi))
    rows = wedge_sweep(A15, [lo, hi, 360.0])
    m_lo, m_hi = rows[0]["m1"], rows[1]["m1"]
    assert m_lo >= m_hi > 0.5
    assert abs((m_hi - 0.5) - (360.0 - hi) / (2.0 * hi)) <= 1e-15
    assert rows[2]["m1"] == 1.0


def test_pec_pmc_wedge_fundamental():
    # the experimental mixed-face wedge admits m = 1/3 at a 270-degree
    # opening; its fundamental sits near the published 6.27 GHz observation
    cfg = CavityConfig(radius_m=0.015, wedge_opening_deg=270.0, wedge_face_kind="PEC_PMC")
    rec = fundamental_tm(cfg)
    assert rec.m == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rec.frequency_hz / 1e9 == pytest.approx(6.266, abs=2e-3)
    assert abs(rec.frequency_hz / 1e9 - 6.27) < 0.01


def test_dispersion_table_rows():
    rows = dispersion_table([0.0, 1.5, 3.0])
    r0, r15, r3 = rows
    assert r0["x_te"] == pytest.approx(math.pi, abs=1e-10)
    assert r0["x_tm"] == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert r0["f_te_ghz"] == pytest.approx(10.00, abs=0.05)
    assert r15["x_te"] == pytest.approx(5.136, abs=5e-4)
    assert r15["x_tm"] == pytest.approx(3.311, abs=5e-4)
    assert r15["f_te_ghz"] == pytest.approx(16.35, abs=0.05)
    assert r15["f_tm_ghz"] == pytest.approx(10.54, abs=0.05)
    assert r3["x_te"] == pytest.approx(6.988, abs=5e-4)
    assert r3["x_tm"] == pytest.approx(4.973, abs=5e-4)


def _hexed(rows):
    return [{key: v.hex() if isinstance(v, float) else v for key, v in row.items()} for row in rows]


def test_batched_sweep_rows_are_the_rows_taken_one_at_a_time():
    # every row of a sweep, its roots found together, has the bits of the row made alone
    rng = np.random.default_rng(22)
    config = CavityConfig(0.015 * (1.0 + rng.uniform(-0.03, 0.03)))
    thetas = [float(t) + rng.uniform(-0.1, 0.1) for t in np.arange(0.5, 34.0, 0.5)]
    openings = [float(p) + rng.uniform(-0.4, 0.4) for p in np.arange(120.0, 359.0, 5.0)]
    openings += [359.0 - rng.uniform(0.0, 0.4), 360.0]
    nus = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, *rng.uniform(-0.49, 60.0, 20).tolist()]
    cones = [fundamental_tm(replace(config, cone_half_angle_deg=tc)) for tc in thetas]
    wedges = [fundamental_tm(replace(config, wedge_opening_deg=phi)) for phi in openings]
    assert _hexed(cone_sweep(config, thetas)) == _hexed(
        [{"theta_c_deg": tc, "nu": r.nu, "f_ghz": r.frequency_hz / 1e9} for tc, r in zip(thetas, cones)]
    )
    assert _hexed(wedge_sweep(config, openings)) == _hexed(
        [{"opening_deg": phi, "m1": r.m, "f_ghz": r.frequency_hz / 1e9} for phi, r in zip(openings, wedges)]
    )
    want = []
    for nu in nus:
        te, tm = j_zero(nu, 1).x, riccati_deriv_zero(nu, 1).x
        f_te, f_tm = radial.frequency_from_root(te, 0.02) / 1e9, radial.frequency_from_root(tm, 0.02) / 1e9
        want.append({"nu": nu, "x_te": te, "f_te_ghz": f_te, "x_tm": tm, "f_tm_ghz": f_tm})
    assert _hexed(dispersion_table(nus, 0.02)) == _hexed(want)


def test_sweeps_of_no_rows_are_empty():
    assert cone_sweep(A15, []) == wedge_sweep(A15, []) == dispersion_table([]) == []


def test_cone_max_count_records_carry_the_roots_of_their_own_nu():
    # a cone root is fixed by its lattice interval alone, so every cap of the growing loop
    # has it to the bit and continues the radial sweep keyed by it; a radial root is fixed
    # by its lattice interval too, so each record's radial root is the lone root of its nu
    got = enumerate_modes(CavityConfig(0.015, 360.0, 20.0), max_count=200)
    assert len(got) == 200
    for rec in got:
        lone = (riccati_deriv_zero if rec.polarization == "TM" else j_zero)(rec.nu, rec.n)
        assert rec.root_x.hex() == lone.x.hex(), rec


def _watch_cone_conditions(monkeypatch, seen):
    """Call seen(polarization, nu, m) on each array evaluation of a cone condition."""
    from sphcav import angular

    def watch(real, pol):
        def condition(nu, m, theta):
            if isinstance(nu, np.ndarray):
                seen(pol, nu, m)
            return real(nu, m, theta)

        return condition

    monkeypatch.setattr(angular, "legendre_theta", watch(angular.legendre_theta, "TM"))
    monkeypatch.setattr(angular, "polar_solution", watch(angular.polar_solution, "TE"))


def test_cone_max_count_is_the_enumeration_at_its_last_frequency(monkeypatch):
    # each cap of the growing loop continues the cone sweep of every (m, polarization) where
    # the last cap left it: each lattice point of a sweep is evaluated once, apart from the
    # end of one cap, which the next cap evaluates again
    from sphcav import angular

    points, caps = [], []
    _watch_cone_conditions(monkeypatch, lambda pol, nu, m: points.extend((pol, *p) for p in zip(m, nu)))
    real_swept = spectrum._swept_candidates
    monkeypatch.setattr(spectrum, "_swept_candidates", lambda *a: caps.append(a[1]) or real_swept(*a))
    config = CavityConfig(0.015, 360.0, 20.0)
    got = enumerate_modes(config, max_count=200)
    assert len(got) == 200 and len(caps) >= 2
    lattice, rows = angular.ConeSweep.LATTICE, collections.defaultdict(collections.Counter)
    for pol, m, nu in points:
        i = round((nu - lattice.origin) / lattice.step)
        assert nu == lattice.point(i)
        rows[pol, m][i] += 1
    assert len(rows) > 10
    for counts in rows.values():
        assert sorted(counts) == list(range(len(counts)))  # every point from the first on
        assert set(counts.values()) <= {1, 2} and sum(n == 2 for n in counts.values()) < len(caps)
    assert got == enumerate_modes(config, f_max_hz=got[-1].frequency_hz)[:200]


def test_sweeps_and_cone_fixtures_scan_their_cones_once(monkeypatch):
    # each call advances all its cone sweeps in one specfun.advance call, with one array
    # evaluation of each polarization's condition
    from sphcav import angular

    scans = []  # per advance call: its number of sweeps and its array evaluations per polarization
    real_advance = angular.advance

    def advance(sweeps, caps):
        scans.append((len(sweeps), collections.Counter()))
        return real_advance(sweeps, caps)

    monkeypatch.setattr(angular, "advance", advance)
    _watch_cone_conditions(monkeypatch, lambda pol, nu, m: scans[-1][1].update([pol]))
    assert len(cone_sweep(A15, [0.38, 7.59, 14.93, 21.80])) == 4
    assert len(validate("table3_cone").rows) == len(load_fixture("table3_cone")["rows"])
    assert len(validate("table4_combined").rows) == len(load_fixture("table4_combined")["rows"])
    assert len(enumerate_modes(CavityConfig(0.015, 270.0, 20.0), f_max_hz=15e9)) > 0
    assert scans[0][0] == 4 and len(scans) == 4 and min(n for n, _ in scans) > 1
    assert [dict(c) for _, c in scans] == [{"TM": 1}] * 3 + [{"TM": 1, "TE": 1}]


def test_determinism_byte_identical():
    a = format_csv(enumerate_modes(WEDGE90, f_max_hz=13.7e9))
    b = format_csv(enumerate_modes(WEDGE90, f_max_hz=13.7e9))
    assert a == b
    ja = format_json(enumerate_modes(WEDGE90, f_max_hz=13.7e9))
    jb = format_json(enumerate_modes(WEDGE90, f_max_hz=13.7e9))
    assert ja == jb


def test_csv_format_columns():
    text = format_csv(enumerate_modes(WEDGE90, max_count=2))
    lines = text.strip().split("\n")
    assert lines[0] == "pol,nu,m,k,n,x,f_GHz,family"
    assert lines[1].startswith("TM,")
    assert len(lines) == 3


def test_json_format_keys():
    import json

    objs = json.loads(format_json(enumerate_modes(WEDGE90, max_count=1)))
    assert set(objs[0]) == {"pol", "nu", "m", "k", "n", "x", "f_GHz", "family"}


def test_table_format_rounds_to_two_decimals():
    text = format_table(enumerate_modes(WEDGE90, max_count=1))
    assert "7.51" in text


def test_fixture_loading():
    assert set(list_fixtures()) == {
        "table1_dispersion",
        "table2_wedge90",
        "table3_cone",
        "table4_combined",
    }
    fx = load_fixture("table2_wedge90")
    assert fx["kind"] == "modes"
    assert len(fx["rows"]) == 6
    assert fx["rows"][0]["m"] == pytest.approx(2.0 / 3.0)
    with pytest.raises(FixtureLookupError):
        load_fixture("table9_bogus")


def test_validate_table1_passes():
    report = validate("table1_dispersion")
    assert report.passed
    assert report.max_theory_dev < 0.005


def test_validate_table2_flags_only_the_last_mode():
    # the recomputed spectrum matches five of six published theory values
    # within 0.5%; the sixth published value (nu = 7/3) deviates by ~0.76%
    # from the actual first root of the Riccati derivative, 4.239993
    report = validate("table2_wedge90")
    flags = [row["ok"] for row in report.rows]
    assert flags == [True, True, True, True, True, False]
    assert not report.passed
    assert report.rows[5]["theory_dev"] == pytest.approx(0.0076, abs=5e-4)
    # agreement with the finite-element reference column is uniformly good
    assert report.max_reference_dev < 0.012


def test_validate_table3_reports_systematic_nu_offset():
    # the fixture's (theta_c -> nu) map is internally consistent with its
    # frequency column but does not solve the Dirichlet cone condition; the
    # recomputation therefore deviates beyond tolerance on most rows
    report = validate("table3_cone")
    assert not report.passed
    devs = [row["nu_dev"] for row in report.rows]
    assert max(devs) == pytest.approx(0.0375, abs=2e-3)
    assert min(devs) < 0.005  # the 21.8-degree row happens to agree


def test_validate_table4_rows():
    # rows 2-3 agree with the published theory within 1%; row 1 deviates by
    # ~1.4%, while all three recomputations sit within 1% of the
    # finite-element reference column
    report = validate("table4_combined")
    flags = [row["ok"] for row in report.rows]
    assert flags == [False, True, True]
    assert report.max_reference_dev < 0.01
    for row in report.rows:
        assert row["nu"] > row["m_exact"]  # Dirichlet truncation raises nu


def test_validate_unknown_fixture():
    with pytest.raises(FixtureLookupError):
        validate("nope")
