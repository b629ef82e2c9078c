"""The benchmark's checks can fail.

Each workload's check set must reject a result with one root shifted by a
relative 1e-6, a result with one mode (or row) dropped, and a result with one
polarization swapped; and every named check must reject at least one
corruption aimed at it.  Inputs are the workloads' own, cut down so the
program runs in seconds.  Run with

    python3 -m pytest -q benchmarks

(kept out of the repository's tier-1 ``testpaths``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

import oracle as O
import workloads as W
from sphcav import energy, fields
from sphcav.radial import RootKind

SEED = 7


def _run(inp, ops):
    return {name: call() for name, call in ops(inp)}


def _failed(outcome) -> set[tuple[str, str]]:
    return {(op, check) for op, check, ok, _ in outcome.checks if not ok}


# --- cut-down workloads ---------------------------------------------------------------


@pytest.fixture(scope="module")
def sphere():
    inp = W.build_sphere(SEED)
    inp["sphere_fmax"] *= 0.5
    inp["count"] = 60
    res = _run(inp, W.ops_sphere)
    return inp, res


@pytest.fixture(scope="module")
def cone():
    inp = W.build_cone(SEED)
    inp["cone_fmax"] *= 0.75
    res = _run(inp, W.ops_cone)
    return inp, res


@pytest.fixture(scope="module")
def sweeps():
    inp = W.build_sweeps(SEED)
    inp["thetas"] = inp["thetas"][::16]
    inp["openings"] = inp["openings"][::12] + [360.0]
    res = _run(inp, W.ops_sweeps)
    return inp, res


@pytest.fixture(scope="module")
def mode_fields():
    inp = W.build_fields(SEED)
    inp["modes"] = [m for m in inp["modes"] if m["name"] in ("sphere_TM_sectoral", "wedge_TE_sectoral", "cone_TM_zonal")]
    res = _run(inp, W.ops_fields)
    return inp, res


# --- mutations ------------------------------------------------------------------------


def _shift_record(recs, i):
    r = recs[i]
    recs[i] = replace(r, root_x=r.root_x * (1 + 1e-6), frequency_hz=r.frequency_hz * (1 + 1e-6))


def _swap_record(recs, i):
    r = recs[i]
    recs[i] = replace(r, polarization="TE" if r.polarization == "TM" else "TM")


def _mutate_records(res, op, how):
    res = copy.deepcopy(res)
    recs = res[op]
    i = len(recs) // 2
    if how == "shift":
        _shift_record(recs, i)
    elif how == "drop":
        del recs[i]
    else:
        _swap_record(recs, i)
    return res


def _other_pol_ghz(nu, radius, pol):
    other = "TE" if pol == "TM" else "TM"
    return O.frequency(O.radial_roots(nu, other, 0.0, count=1)[0], radius) / 1e9


def _mutate_sweeps(inp, res, op, how):
    res = copy.deepcopy(res)
    a = inp["radius"]
    if op.startswith("validate_"):
        report = res[op]["report"]
        rows = [dict(r) for r in report.rows]
        key = "f_ghz" if "f_ghz" in rows[0] else "f_tm_ghz"
        i = len(rows) // 2
        if how == "shift":
            rows[i][key] *= 1 + 1e-6
        elif how == "drop":
            del rows[i]
        elif key == "f_tm_ghz":  # the other polarization's values for this row
            rows[i]["f_tm_ghz"], rows[i]["f_te_ghz"] = rows[i]["f_te_ghz"], rows[i]["f_tm_ghz"]
        else:  # every fixture is at 15 mm
            rows[i]["f_ghz"] = _other_pol_ghz(rows[i]["nu"], 0.015, rows[i].get("pol", "TM"))
        res[op]["report"] = replace(report, rows=rows)
        return res
    rows = res[op]
    i = len(rows) // 2
    if how == "shift":
        for key in rows[i]:
            if key.startswith(("f_", "x_")):
                rows[i][key] *= 1 + 1e-6
    elif how == "drop":
        del rows[i]
    elif op == "dispersion_table":
        r = rows[i]
        r["x_te"], r["x_tm"], r["f_te_ghz"], r["f_tm_ghz"] = r["x_tm"], r["x_te"], r["f_tm_ghz"], r["f_te_ghz"]
    else:
        nu = rows[i]["nu"] if "nu" in rows[i] else rows[i]["m1"]
        rows[i]["f_ghz"] = _other_pol_ghz(nu, a, "TM")
    return res


def _redo_mode(inp, res, name, mode):
    """Program results for ``name`` recomputed from a corrupted ModeSpec."""
    spec = next(m for m in inp["modes"] if m["name"] == name)
    res[f"{name}.make_mode"] = mode
    res[f"{name}.evaluate"] = [fields.evaluate(mode, p) for p in spec["points"]]
    res[f"{name}.wave_impedances"] = tuple(
        fields.wave_impedances(mode, *spec["impedance_at"], polarization=p) for p in (W.TE, W.TM)
    )
    res[f"{name}.mode_energy"] = energy.mode_energy(mode)


def _mutate_fields(inp, res, how, name="sphere_TM_sectoral"):
    res = dict(res)
    mode = res[f"{name}.make_mode"]
    if how == "shift":
        _redo_mode(inp, res, name, replace(mode, radial=replace(mode.radial, x=mode.radial.x * (1 + 1e-6))))
    elif how == "drop":
        del res[f"{name}.evaluate"]
    else:
        kind = RootKind.TE_JZERO if mode.polarization is RootKind.TM_RICCATI_DERIV_ZERO else RootKind.TM_RICCATI_DERIV_ZERO
        spec = next(m for m in inp["modes"] if m["name"] == name)
        _redo_mode(inp, res, name, fields.make_mode(kind, spec["pair"], 1, inp["radius"], domain=spec["domain"]))
    return res


MUTATIONS = ("shift", "drop", "swap")


# --- the checks pass on the program's own results ------------------------------------


def test_sphere_passes_with_the_known_fault(sphere):
    out = W.check_sphere(*sphere)
    assert out.correct, out.failed_checks()
    assert out.known_fault == {"wedge270_40GHz"}


def test_cone_passes_with_the_known_fault(cone):
    out = W.check_cone(*cone)
    assert out.correct, out.failed_checks()
    assert out.known_fault == {"wedge270_cone20_15GHz"}


def test_sweeps_pass(sweeps):
    out = W.check_sweeps(*sweeps)
    assert out.correct, out.failed_checks()


def test_mode_fields_pass(mode_fields):
    out = W.check_fields(*mode_fields)
    assert out.correct, out.failed_checks()


# --- every workload rejects each of the three corruptions ----------------------------


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize("op", ["sphere_80GHz", "sphere_count200", "wedge270_40GHz"])
def test_sphere_rejects(sphere, op, how):
    inp, res = sphere
    out = W.check_sphere(inp, _mutate_records(res, op, how))
    assert {o for o, _ in _failed(out)} == {op}


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize("op", ["cone20_16GHz", "wedge270_cone20_15GHz"])
def test_cone_rejects(cone, op, how):
    inp, res = cone
    out = W.check_cone(inp, _mutate_records(res, op, how))
    assert {o for o, _ in _failed(out)} == {op}


def test_cone_rejects_shifted_eigenvalue(cone):
    inp, res = cone
    res = copy.deepcopy(res)
    recs = res["cone20_16GHz"]
    recs[0] = replace(recs[0], nu=recs[0].nu * (1 + 1e-6))
    assert ("cone20_16GHz", "eigenvalues") in _failed(W.check_cone(inp, res))


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize(
    "op", ["cone_sweep", "wedge_sweep", "dispersion_table", "validate_table1_dispersion", "validate_table2_wedge90",
           "validate_table3_cone", "validate_table4_combined"],
)
def test_sweeps_reject(sweeps, op, how):
    inp, res = sweeps
    out = W.check_sweeps(inp, _mutate_sweeps(inp, res, op, how))
    assert {o for o, _ in _failed(out)} == {op}


@pytest.mark.parametrize("how", MUTATIONS)
def test_mode_fields_reject(mode_fields, how):
    inp, res = mode_fields
    out = W.check_fields(inp, _mutate_fields(inp, res, how))
    assert {o for o, _ in _failed(out)} == {"sphere_TM_sectoral"}


# --- every named check can fail --------------------------------------------------------


def test_spectrum_checks_each_fail(sphere):
    inp, res = sphere
    op = "sphere_80GHz"
    cases = {
        "completeness": lambda r: r[op].pop(3),
        "eigenvalues": lambda r: r[op].__setitem__(5, replace(r[op][5], nu=r[op][5].nu + 1e-8)),
        "radial_roots": lambda r: r[op].__setitem__(5, replace(r[op][5], root_x=r[op][5].root_x * (1 + 1e-6))),
        "radius_scaling": lambda r: r[op].__setitem__(5, replace(r[op][5], frequency_hz=r[op][5].frequency_hz * (1 + 1e-6))),
        "sorted": lambda r: r[op].reverse(),
        "weyl": lambda r: r.__setitem__(op, [x for x in r[op] if x.polarization == "TM"]),
    }
    for check, corrupt in cases.items():
        bad = copy.deepcopy(res)
        corrupt(bad)
        assert (op, check) in _failed(W.check_sphere(inp, bad)), check
    bad = copy.deepcopy(res)
    bad["sphere_count200"] = bad["sphere_count200"][1:] + bad["sphere_count200"][:1]
    assert ("sphere_count200", "lowest_first") in _failed(W.check_sphere(inp, bad))


def test_wedge_fault_is_told_apart_from_other_losses(sphere):
    inp, res = sphere
    bad = copy.deepcopy(res)
    recs = bad["wedge270_40GHz"]
    del recs[[r.polarization for r in recs].index("TM")]
    out = W.check_sphere(inp, bad)
    assert ("wedge270_40GHz", "completeness") in _failed(out)
    assert "wedge270_40GHz" not in out.known_fault


def test_sweep_checks_each_fail(sweeps):
    inp, res = sweeps
    cases = {
        ("cone_sweep", "rows"): lambda r: r["cone_sweep"][0].__setitem__("theta_c_deg", 1.0),
        ("cone_sweep", "eigenvalues"): lambda r: r["cone_sweep"][0].__setitem__("nu", r["cone_sweep"][0]["nu"] + 1e-8),
        ("cone_sweep", "radial_roots"): lambda r: r["cone_sweep"][0].__setitem__("f_ghz", r["cone_sweep"][0]["f_ghz"] * (1 + 1e-6)),
        ("validate_table3_cone", "ok_flags"): lambda r: r["validate_table3_cone"].__setitem__(
            "report", replace(r["validate_table3_cone"]["report"], rows=[dict(x, ok=True) for x in r["validate_table3_cone"]["report"].rows])
        ),
        ("validate_table1_dispersion", "exit_code"): lambda r: r["validate_table1_dispersion"].__setitem__("exit", 2),
        ("validate_table4_combined", "rows"): lambda r: r["validate_table4_combined"].__setitem__(
            "report", replace(r["validate_table4_combined"]["report"], rows=r["validate_table4_combined"]["report"].rows[:-1])
        ),
        ("validate_table4_combined", "eigenvalues"): lambda r: r["validate_table4_combined"].__setitem__(
            "report",
            replace(r["validate_table4_combined"]["report"], rows=[dict(x, nu=x["nu"] + 1e-8) for x in r["validate_table4_combined"]["report"].rows]),
        ),
    }
    for (op, check), corrupt in cases.items():
        bad = copy.deepcopy(res)
        corrupt(bad)
        assert (op, check) in _failed(W.check_sweeps(inp, bad)), (op, check)


def test_field_checks_each_fail(mode_fields):
    inp, res = mode_fields
    name = "cone_TM_zonal"
    mode = res[f"{name}.make_mode"]

    def scaled(sample, e=1.0, h=1.0):
        return fields.FieldSample(point=sample.point, E=sample.E * e, H=sample.H * h)

    def wrong_nu(rel):
        def corrupt(r):
            pair = replace(mode.eigenpair, nu=mode.eigenpair.nu * (1 + rel))
            spec = next(m for m in inp["modes"] if m["name"] == name)
            _redo_mode(inp, r, name, fields.make_mode(mode.polarization, pair, 1, inp["radius"], domain=spec["domain"]))

        return corrupt

    cases = {
        "eigenvalues": wrong_nu(1e-6),
        # a 1e-6 shift leaves ~2e-10 of tangential E on the cone, below WALL_TOL
        "pec_surfaces": wrong_nu(1e-3),
        "radial_roots": lambda r: r.__setitem__(f"{name}.make_mode", replace(mode, radial=replace(mode.radial, x=mode.radial.x * (1 + 1e-6)))),
        "energy_balance": lambda r: r.__setitem__(f"{name}.evaluate", [scaled(s, e=1.0 + 1e-5) for s in r[f"{name}.evaluate"]]),
        "mode_energy": lambda r: r.__setitem__(
            f"{name}.mode_energy", replace(r[f"{name}.mode_energy"], total_energy=r[f"{name}.mode_energy"].total_energy * (1 + 1e-5))
        ),
        "impedance_duality": lambda r: r.__setitem__(f"{name}.wave_impedances", (r[f"{name}.wave_impedances"][0] * (1 + 1e-6), r[f"{name}.wave_impedances"][1])),
        "results": lambda r: r.__delitem__(f"{name}.mode_energy"),
    }
    for check, corrupt in cases.items():
        bad = dict(res)
        corrupt(bad)
        assert (name, check) in _failed(W.check_fields(inp, bad)), check


def test_every_named_check_is_covered(sphere, cone, sweeps, mode_fields):
    """The per-check tests above name every check the workloads make."""
    covered = {
        "completeness", "eigenvalues", "radial_roots", "radius_scaling", "sorted", "weyl", "lowest_first",
        "rows", "ok_flags", "exit_code", "pec_surfaces", "energy_balance", "mode_energy",
        "impedance_duality", "results",
    }
    made = set()
    for check, fixture in ((W.check_sphere, sphere), (W.check_cone, cone), (W.check_sweeps, sweeps), (W.check_fields, mode_fields)):
        made |= {c for _, c, _, _ in check(*fixture).checks}
    assert made <= covered, made - covered


def test_oracle_roots_agree_with_published_table1():
    fx = O.read_fixture(W.FIXTURES / "table1_dispersion.txt")
    for row in fx["rows"]:
        assert abs(O.radial_roots(row["nu"], "TE", 0.0, count=1)[0] - row["x_te"]) <= fx["root_atol"]
        assert abs(O.radial_roots(row["nu"], "TM", 0.0, count=1)[0] - row["x_tm"]) <= fx["root_atol"]


def test_oracle_cone_series_matches_mpmath():
    grid = np.array([0.3, 1.1, 2.7, 4.4])
    for m in (0.0, 1.0, 2.0 / 3.0):
        for pol in ("TM", "TE"):
            fast = O.cone_function(grid, m, math.radians(20.0), pol)
            exact = [O.cone_function(v, m, math.radians(20.0), pol, exact=True) for v in grid]
            np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-9 * np.max(np.abs(exact)))


def test_combined_workloads_keep_every_operation_apart():
    names = [n for wl in W.WORKLOADS.values() for n, _ in wl.operations(wl.build(SEED))]
    assert len(names) == len(set(names))
    parts = [n for part in W.PARTS.values() for n, _ in part.operations(part.build(SEED))]
    assert sorted(names) == sorted(parts)
