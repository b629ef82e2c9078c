#!/usr/bin/env python3
"""Print the results of a fixed set of sphcav cases, one line each, every float as float.hex().

  PYTHONPATH=src python3 scripts/snapshot.py > snapshot.txt

Run it on two source trees and diff the outputs: an empty diff means every
covered result is identical to the last bit.  The cases cover mode records and
the fundamental TM mode of eleven geometries (full sphere, wedges of both face
kinds, cones and their combinations, and a 270.6 deg wedge where every nu has its
own radial sweep), max_count enumeration, the cone and wedge sweeps, the
dispersion table over closely and widely spaced orders, the four fixture
reports, radial roots (j_zero and riccati_deriv_zero up to n = 20, and each
kind's roots below nu + 60 from one RadialSweep) at eight orders, four
large-order roots (nu = 900 to 1e6) and one nth batch of both kinds over orders
0 to 200 (n = 1 and 3), the
first four cone_nu branches of both polarizations at eleven cone angles and
five orders, the fields, impedances and energies of seventeen modes, a
6 x 4 x 12 field grid of two wedge modes walked row by row in phi with the dual
wave's impedance after each sample, the reachability test of nu - m in N just
off the integer (classify, make_mode and evaluate at (5 + delta, 3), and
legendre_theta at two such points), the energy of a high-order cone mode, the
stdout, stderr and exit code of command lines (the README's examples, every --help
text, each row command in every format, all four fixtures, a computational error
and an argument error), and spherical_j and
riccati_deriv at small arguments (seven orders up to 500, five x from 1e-310 to
0.49, each also as one array), hyp2f1 at a parameter 5e-12 off an integer, and
two field samples with k r < 0.5, and the refusals of the cone queries and of advance
(cone_nu with a branch of 0 or 1.5 or the polarization "TEM", cone_nus with one bad
query of a batch, cone_roots with nu_max = inf, advance with sweeps of two classes).  A
call that raises prints the error's type and message instead of a value, and the scan
window it names, if any.
"""

import contextlib
import dataclasses
import enum
import io
import math

import numpy as np

from sphcav import cli, radial
from sphcav.angular import AngularEigenpair, ConeSweep, Family, classify, cone_nu, cone_nus, cone_roots
from sphcav.energy import mode_energy
from sphcav.fields import evaluate, make_mode, wave_impedances
from sphcav.radial import RadialSweep, RootKind, j_zero, riccati_deriv_zero
from sphcav.specfun import advance, hyp2f1, legendre_theta, riccati_deriv, spherical_j
from sphcav.spectrum import (
    CavityConfig,
    cone_sweep,
    dispersion_table,
    enumerate_modes,
    fundamental_tm,
    list_fixtures,
    validate,
    wedge_sweep,
)

A = 0.015
TM, TE = RootKind.TM_RICCATI_DERIV_ZERO, RootKind.TE_JZERO
PMC = "PEC_PMC"

# (label, config, f_max in GHz, whether max_count=150 is also taken)
GEOMETRIES = [
    ("sphere", CavityConfig(A), 80.0, True),
    ("wedge270", CavityConfig(A, 270.0), 40.0, True),
    ("wedge355", CavityConfig(A, 355.0), 30.0, False),
    ("wedge45", CavityConfig(A, 45.0), 40.0, False),
    ("cone20", CavityConfig(A, 360.0, 20.0), 20.0, True),
    ("wedge270_cone20", CavityConfig(A, 270.0, 20.0), 20.0, False),
    ("pmc270", CavityConfig(A, 270.0, 0.0, PMC), 40.0, True),
    ("pmc270_cone20", CavityConfig(A, 270.0, 20.0, PMC), 20.0, False),
    ("wedge90_cone10", CavityConfig(A, 90.0, 10.0), 25.0, False),
    ("pmc120_cone10", CavityConfig(A, 120.0, 10.0, PMC), 25.0, False),
    ("wedge270.6", CavityConfig(A, 270.6), 40.0, False),  # every nu its own radial sweep
]

README_CLI = [
    "modes --radius-mm 15 --wedge-deg 270 --fmax-ghz 13.7 --format table",
    "modes --wedge-deg 270 --fmax-ghz 13.7 --format csv",
    "dispersion --nu-list 0,0.5,1,1.5,2,2.5,3",
    "cone-sweep --thetas 0.38,7.59,14.93,21.80,28.07,33.69",
    "wedge-sweep --openings 180,210,240,270,300,330",
    "field --mode TM,1,1,1 --at 0.008,1.1,0.3",
    "field --wedge-deg 270 --wedge-faces PEC_PMC --mode TM,0.3333333333333333,0.3333333333333333,1"
    " --at 0.008,1.1,4.71238898038469",
    "energy --mode TM,0.6666666666666666,0.6666666666666666,1 --wedge-deg 270",
    "validate --fixture table2_wedge90",
]
ROW_COMMANDS = [
    "dispersion --nu-list 0,1.5,7.3 --radius-mm 12",
    "cone-sweep --thetas 7.59,33.69 --wedge-deg 270",
    "wedge-sweep --openings 90,355 --cone-deg 10",
]
SUBCOMMANDS = ("modes", "dispersion", "cone-sweep", "wedge-sweep", "field", "validate", "energy")
COMMANDS = [
    *README_CLI,
    "--help",
    *(f"{name} --help" for name in SUBCOMMANDS),
    *(f"{line} --format {fmt}" for line in ROW_COMMANDS for fmt in ("csv", "json", "table")),
    *(f"validate --fixture {name}" for name in list_fixtures()),
    "modes --count 0",  # a typed error: exit 1
    "field --mode TM,1,1,1 --at 0.01,1",  # an argument error: exit 2
]


def fmt(value) -> str:
    """Values only: floats in hex, containers and dataclasses element by element."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, enum.Enum):
        return str(value.value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if isinstance(value, dict):
        return "{" + " ".join(f"{k}={fmt(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        return fmt({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return fmt(value.tolist())
    return "[" + " ".join(fmt(v) for v in value) + "]"


def show(label: str, compute) -> None:
    try:
        text = fmt(compute())
    except Exception as exc:
        text = f"raises {type(exc).__name__}: {exc}"
        if getattr(exc, "window", None) is not None:
            text += f" window={fmt(exc.window)}"
    print(f"{label}: {text}")


def geometries() -> None:
    for label, config, f_ghz, counted in GEOMETRIES:
        show(f"{label}.fundamental_tm", lambda: fundamental_tm(config))
        records = enumerate_modes(config, f_max_hz=f_ghz * 1e9)
        print(f"{label}.modes: {len(records)} below {f_ghz:g} GHz")
        for i, rec in enumerate(records):
            print(f"{label}.modes[{i}]: {fmt(rec)}")
        if counted:
            show(f"{label}.count150", lambda: [(r.polarization, r.nu, r.m, r.n, r.frequency_hz) for r in
                                               enumerate_modes(config, max_count=150)])


def sweeps() -> None:
    thetas = [0.38, 5.0, 7.59, 14.93, 21.8, 28.07, 33.69, 45.0]
    openings = [45.0, 90.0, 180.0, 210.0, 240.0, 270.0, 300.0, 330.0, 355.0, 359.0, 360.0]
    for faces in ("PEC_PEC", PMC):
        for opening in (360.0, 270.0, 90.0):
            config = CavityConfig(A, opening, 0.0, faces)
            show(f"cone_sweep.{faces}.{opening:g}", lambda: cone_sweep(config, thetas))
        for cone in (0.0, 10.0, 20.0):
            config = CavityConfig(A, 360.0, cone, faces)
            show(f"wedge_sweep.{faces}.cone{cone:g}", lambda: wedge_sweep(config, openings))
    show("dispersion_table", lambda: dispersion_table([0.0, 1 / 3, 0.5, 2 / 3, 1.0, 1.5, 7 / 3, 3.0, 10.5], A))
    show("dispersion_table.spread", lambda: dispersion_table([0.0, 7.3, 40.0, 120.0, 200.0], A))
    for name in list_fixtures():
        show(f"validate.{name}", lambda: validate(name))


def _advanced(sweep: RadialSweep, cap: float) -> list:
    advance([sweep], [cap])
    return sweep.roots


def roots() -> None:
    for nu in (0.0, 1e-9, 1 / 3, 0.5, 2 / 3, 7.3, 40.0, 120.0):
        for name, nth in (("j_zero", j_zero), ("riccati_deriv_zero", riccati_deriv_zero)):
            for n in (1, 2, 5, 6, 7, 20):
                show(f"{name}({nu!r}, {n})", lambda: nth(nu, n))
        for kind in (TE, TM):
            show(f"RadialSweep({nu!r}, {kind.value}) to nu + 60", lambda: _advanced(RadialSweep(nu, kind), nu + 60.0))
    for nu, n in ((900.0, 12), (17000.0, 1), (1e5, 12), (1e6, 1)):  # roots above nu + 40 + 4n
        for name, nth in (("j_zero", j_zero), ("riccati_deriv_zero", riccati_deriv_zero)):
            show(f"{name}({nu!r}, {n})", lambda: nth(nu, n))
    spread = [(nu, kind) for nu in (0.0, 1 / 3, 7.3, 40.0, 120.0, 200.0) for kind in (TE, TM)]
    for n in (1, 3):  # the sweeps of one batch, their caps spread over x = 2-230
        show(f"radial.nth(spread, {n})", lambda: radial.nth([RadialSweep(nu, kind) for nu, kind in spread], n))


def cones() -> None:
    for theta in (0.38, 5.0, 7.59, 14.93, 20.0, 21.8, 28.07, 33.69, 45.0, 60.0, 80.0):
        for m in (0.0, 2.0 / 3.0, 1.0, 2.5, 7.0):
            for pol in ("TM", "TE"):
                for branch in (1, 2, 3, 4):
                    show(f"cone_nu({m!r}, {theta:g} deg, {pol}, {branch})",
                         lambda: cone_nu(m, math.radians(theta), pol, branch))


def modes() -> None:
    m1, q1 = 2.0 / 3.0, 1.0 / 3.0
    full, wedge, pmc = CavityConfig(A), CavityConfig(A, 270.0), CavityConfig(A, 270.0, 0.0, PMC)
    cone, wedge_cone = CavityConfig(A, 360.0, 20.0), CavityConfig(A, 270.0, 20.0)
    cone5, cone45, wedge355 = CavityConfig(A, 360.0, 5.0), CavityConfig(A, 360.0, 45.0), CavityConfig(A, 355.0)
    tc = math.radians(20.0)
    m355 = math.pi / wedge355.domain().azimuth_opening_rad
    cases = [
        ("sphere_TM_sectoral", TM, 2.0, 2.0, full),
        ("sphere_TE_tesseral", TE, 3.0, 1.0, full),
        ("sphere_TM_zonal", TM, 1.0, 0.0, full),
        ("sphere_TE_null", TE, 0.0, 0.0, full),
        ("sphere_TM_fractional", TM, 0.37, 0.37, full),
        ("wedge_TM_tesseral", TM, m1 + 1.0, m1, wedge),
        ("wedge_TE_sectoral", TE, 2.0 * m1, 2.0 * m1, wedge),
        ("wedge_TE_zonal", TE, 1.0, 0.0, wedge),
        ("pmc_TM_sectoral", TM, q1, q1, pmc),
        ("pmc_TE_tesseral", TE, q1 + 1.0, q1, pmc),
        ("cone_TM_zonal", TM, cone_nu(0.0, tc, "TM", 1), 0.0, cone),
        ("cone_TE_m1", TE, cone_nu(1.0, tc, "TE", 1), 1.0, cone),
        ("wedge_cone_TM", TM, cone_nu(m1, tc, "TM", 1), m1, wedge_cone),
        ("sphere_TE_tesseral_7_3", TE, 7.0, 3.0, full),
        ("wedge355_TM_tesseral", TM, m355 + 2.0, m355, wedge355),
        ("cone5_TE_m1", TE, cone_nu(1.0, math.radians(5.0), "TE", 1), 1.0, cone5),
        ("cone45_TE_m1", TE, cone_nu(1.0, math.radians(45.0), "TE", 1), 1.0, cone45),
    ]
    for name, kind, nu, m, config in cases:
        domain = config.domain()
        pair = AngularEigenpair(nu, m, classify(nu, m, cone_present=domain.has_cone))
        mode = make_mode(kind, pair, 1, A, domain=domain)
        lo, hi = domain.cone_half_angle_rad, domain.azimuth_opening_rad
        points = [(r * A, lo + t * (math.pi - lo), p * hi) for r, t, p in
                  ((0.3, 0.2, 0.1), (0.55, 0.5, 0.5), (0.8, 0.7, 0.9), (1.0, 0.35, 0.0), (0.9, 0.95, 1.0))]
        for i, point in enumerate(points):
            show(f"{name}.evaluate[{i}]", lambda: evaluate(mode, point))
        for pol in (None, TE, TM):
            show(f"{name}.wave_impedances.{pol and pol.value}", lambda: wave_impedances(mode, 0.6 * A, 1.2, polarization=pol))
        show(f"{name}.mode_energy", lambda: mode_energy(mode))


def field_rows() -> None:
    # a 6 x 4 x 12 grid walked row by row in phi, each sample followed by the dual wave's
    # impedance at the same point
    domain = CavityConfig(A, 270.0).domain()
    m1 = 2.0 / 3.0
    for name, kind, dual, nu, m in (("wedge_TM_tesseral", TM, TE, m1 + 1.0, m1), ("wedge_TE_sectoral", TE, TM, 2 * m1, 2 * m1)):
        pair = AngularEigenpair(nu, m, classify(nu, m))
        mode = make_mode(kind, pair, 1, A, domain=domain)
        for r in np.linspace(0.1, 1.0, 6).tolist():
            for theta in np.linspace(0.2, 2.9, 4).tolist():
                for phi in np.linspace(0.05, 0.95, 12).tolist():
                    point = (r * A, theta, phi * domain.azimuth_opening_rad)
                    show(f"{name}.row({r!r}, {theta!r}, {phi!r})", lambda: evaluate(mode, point))
                    show(f"{name}.row({r!r}, {theta!r}, {phi!r}).dual", lambda: wave_impedances(mode, *point, polarization=dual))


def reachability() -> None:
    for delta in (1e-13, 1.9e-12, 5e-12):  # about the absolute 1e-12 of specfun.terminates
        nu = 5.0 + delta
        pair = AngularEigenpair(nu, 3.0, Family.TESSERAL)
        show(f"classify({nu!r}, 3.0)", lambda: classify(nu, 3.0))
        show(f"make_mode(TE, {nu!r}, 3.0).radial", lambda: make_mode(TE, pair, 1, A).radial)
        show(f"evaluate(TE, {nu!r}, 3.0)", lambda: evaluate(make_mode(TE, pair, 1, A), (0.008, math.pi - 1e-4, 0.3)))
    for nu, m, theta in ((5.999999999997616, 2.0, math.pi - 3.3e-3), (4.0 + 1.5e-12, 0.0, 3.0)):
        show(f"legendre_theta({nu!r}, {m!r}, {theta!r})", lambda: legendre_theta(nu, m, theta))
    domain = CavityConfig(A, 360.0, 20.0).domain()
    pair = AngularEigenpair(cone_nu(12.0, domain.cone_half_angle_rad, "TM", 8), 12.0, Family.TESSERAL)
    show("cone20_TM_m12_branch8.mode_energy", lambda: mode_energy(make_mode(TM, pair, 1, A, domain=domain)))


def small_arguments() -> None:
    xs = [1e-310, 1e-200, 1e-3, 0.3, 0.49]
    for nu in (0.0, 0.3, 2.4, 149.7, 150.0, 200.0, 500.0):
        for name, f in (("spherical_j", spherical_j), ("riccati_deriv", riccati_deriv)):
            for x in xs:
                show(f"{name}({nu!r}, {x!r})", lambda: f(nu, x))
            show(f"{name}({nu!r}, array)", lambda: f(nu, np.array(xs)))
    show("hyp2f1(-7 + 5e-12, 1.5, 1.7, 0.6)", lambda: hyp2f1(-7.0 + 5e-12, 1.5, 1.7, 0.6))
    for nu, r in ((1.0, 0.05 * A), (200.0, 1e-6)):  # k r = 0.14 and 2.1e-4
        pair = AngularEigenpair(nu, nu, Family.SECTORAL)
        show(f"evaluate(TM, {nu!r}, {nu!r}, r={r!r})", lambda: evaluate(make_mode(TM, pair, 1, A), (r, 1.5, 0.3)))


def refusals() -> None:
    tc = math.radians(20.0)
    for pol, branch in (("TM", 0), ("TM", 1.5), ("TEM", 1)):
        show(f"cone_nu(0.0, 20 deg, {pol}, {branch!r})", lambda: cone_nu(0.0, tc, pol, branch))
    for bad in ((1.0, tc, "TEM", 1), (1.0, tc, "TM", 0), (1.0, tc, "TE", 2.5), (200.0, 0.35, "TM", 1)):
        # the bad query second of three; 200.0 is not finite on its scan
        show(f"cone_nus(..., {bad!r}, ...)", lambda: cone_nus([(0.0, tc, "TM", 1), bad, (2.0, tc, "TE", 2)]))
    show("cone_roots(1.0, 20 deg, TM, inf)", lambda: cone_roots(1.0, tc, "TM", math.inf))
    show("advance([ConeSweep, RadialSweep])", lambda: advance([ConeSweep(0.0, tc, "TM"), RadialSweep(1.0, TE)], [5.0, 5.0]))


def commands() -> None:
    for line in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(line.split())
            except SystemExit as exc:  # --help and argument errors exit from argparse
                code = exc.code
        print(f"sphcav {line}: exit {code}")
        for stream, text in (("out", out), ("err", err)):
            for row in text.getvalue().splitlines():
                print(f"  {stream}| {row}")


SECTIONS = (geometries, sweeps, roots, cones, modes, field_rows, reachability, commands, small_arguments, refusals)

if __name__ == "__main__":
    for section in SECTIONS:
        section()
