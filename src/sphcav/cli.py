"""Command-line interface.

Subcommands:
  modes        enumerate the spectrum of a cavity configuration
  dispersion   first TE/TM roots and frequencies for a list of nu
  cone-sweep   branch-1 TM eigenvalue and frequency vs cone half-angle
  wedge-sweep  fundamental TM frequency vs azimuthal opening
  field        six field components of one mode at a point
  validate     recompute a bundled reference fixture and report deviations
  energy       energy report for one mode

Exit codes: 0 success, 2 validation failure, 1 computational error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import fields as fld
from . import spectrum
from .angular import AngularEigenpair, classify
from .energy import mode_energy
from .errors import SphcavError
from .radial import RootKind


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.replace(",", " ").split()]


def _parse_point(text: str) -> tuple[float, float, float]:
    try:
        r, theta, phi = _parse_float_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"point must be r,theta,phi; got {text!r}") from exc
    return r, theta, phi


def _config_from(args) -> spectrum.CavityConfig:
    return spectrum.CavityConfig(
        radius_m=args.radius_mm / 1000.0,
        wedge_opening_deg=args.wedge_deg,
        cone_half_angle_deg=args.cone_deg,
        wedge_face_kind=args.wedge_faces,
    )


def _parse_mode(text: str) -> tuple[RootKind, float, float, int]:
    try:
        pol_s, nu_s, m_s, n_s = text.split(",")
        return RootKind(pol_s.upper()), float(nu_s), float(m_s), int(n_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"mode must be pol,nu,m,n; got {text!r}") from exc


def _build_mode(args) -> fld.ModeSpec:
    kind, nu, m, n = args.mode
    config = _config_from(args)
    domain = config.domain()
    pair = AngularEigenpair(nu=nu, m=m, family=classify(nu, m, cone_present=domain.has_cone))
    return fld.make_mode(kind, pair, n, config.radius_m, domain=domain)


def _modes(args) -> int:
    f_max = args.fmax_ghz * 1e9 if args.fmax_ghz is not None else None
    records = spectrum.enumerate_modes(_config_from(args), f_max_hz=f_max, max_count=args.count)
    sys.stdout.write(getattr(spectrum, f"format_{args.format}")(records))  # format_csv, _json or _table
    return 0


def _print_rows(compute, args) -> int:
    """The handler of a row command, ``compute`` bound: the rows of compute(args) in args.format."""
    rows = compute(args)
    cols = list(rows[0].keys()) if rows else []
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        print(",".join(cols))
        for row in rows:
            print(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    else:
        print("  ".join(f"{c:>12}" for c in cols))
        for row in rows:
            print("  ".join(f"{row[c]:>12.6g}" if isinstance(row[c], float) else f"{row[c]:>12}" for c in cols))
    return 0


def _field(args) -> int:
    sample = fld.evaluate(_build_mode(args), args.at)
    for label, vec in (("E", sample.E), ("H", sample.H)):
        for comp, val in zip("r theta phi".split(), vec):
            print(f"{label}_{comp} = {val.real:+.9e} {val.imag:+.9e}j")
    s = fld.poynting(sample)
    print(f"S = ({s[0]:.9e}, {s[1]:.9e}, {s[2]:.9e})")
    return 0


def _validate(args) -> int:
    report = spectrum.validate(args.fixture)
    print("\n".join(report.lines()))
    return 0 if report.passed else 2


def _energy(args) -> int:
    rep = mode_energy(_build_mode(args))
    print(f"radial_integrable = {rep.radial_integrable}")
    print(f"angular_norm      = {rep.angular_norm:.12g}")
    print(f"total_energy_J    = {rep.total_energy:.12g}")
    for key, val in rep.factorization.items():
        print(f"{key:<17} = {val:.12g}")
    return 0


def _command(sub, name: str, help: str, run, options: dict, geometry: bool = True, formats: bool = False) -> None:
    """Subcommand ``name``, which calls ``run(args)``: the geometry options if it takes them, then
    ``options`` (flag: add_argument keywords), then --format if it prints records or rows."""
    p = sub.add_parser(name, help=help)
    if geometry:
        p.add_argument("--radius-mm", type=float, default=15.0, help="cavity radius [mm]")
        p.add_argument("--wedge-deg", type=float, default=360.0, help="azimuthal opening [deg]; 360 = full")
        p.add_argument("--cone-deg", type=float, default=0.0, help="polar cone half-angle [deg]; 0 = none")
        p.add_argument(
            "--wedge-faces",
            choices=("PEC_PEC", "PEC_PMC"),
            default="PEC_PEC",
            help="wedge face boundary kinds (PEC_PMC is experimental)",
        )
    for flag, keywords in options.items():
        p.add_argument(flag, **keywords)
    if formats:
        p.add_argument("--format", choices=("csv", "json", "table"), default="table")
    p.set_defaults(run=run)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at its first main call: importing sphcav builds none."""
    parser = argparse.ArgumentParser(prog="sphcav", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    floats = dict(type=_parse_float_list, required=True)
    mode = dict(type=_parse_mode, required=True, help="pol,nu,m,n")
    _command(sub, "modes", "enumerate cavity modes", _modes, {
        "--fmax-ghz": dict(type=float, default=None, help="frequency cutoff [GHz]"),
        "--count": dict(type=int, default=None, help="number of modes (alternative to --fmax-ghz)"),
    }, formats=True)
    dispersion = functools.partial(_print_rows, lambda a: spectrum.dispersion_table(a.nu_list, a.radius_mm / 1000.0))
    _command(sub, "dispersion", "TE/TM first roots for a nu list", dispersion, {
        "--nu-list": floats,
        "--radius-mm": dict(type=float, default=15.0),
    }, geometry=False, formats=True)
    cone_sweep = functools.partial(_print_rows, lambda a: spectrum.cone_sweep(_config_from(a), a.thetas))
    _command(sub, "cone-sweep", "branch-1 TM eigenvalue vs cone angle", cone_sweep, {
        "--thetas": dict(floats, help="cone half-angles [deg]"),
    }, formats=True)
    wedge_sweep = functools.partial(_print_rows, lambda a: spectrum.wedge_sweep(_config_from(a), a.openings))
    _command(sub, "wedge-sweep", "fundamental TM frequency vs opening", wedge_sweep, {
        "--openings": dict(floats, help="openings [deg]"),
    }, formats=True)
    _command(sub, "field", "field components of one mode at a point", _field, {
        "--mode": mode,
        "--at": dict(type=_parse_point, required=True, help="r[m],theta[rad],phi[rad]"),
    })
    _command(sub, "validate", "recompute a bundled reference fixture", _validate, {
        "--fixture": dict(choices=spectrum.list_fixtures(), required=True),
    }, geometry=False)
    _command(sub, "energy", "energy report for one mode", _energy, {"--mode": mode})
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except SphcavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
