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


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius-mm", type=float, default=15.0, help="cavity radius [mm]")
    p.add_argument("--wedge-deg", type=float, default=360.0, help="azimuthal opening [deg]; 360 = full")
    p.add_argument("--cone-deg", type=float, default=0.0, help="polar cone half-angle [deg]; 0 = none")
    p.add_argument(
        "--wedge-faces",
        choices=("PEC_PEC", "PEC_PMC"),
        default="PEC_PEC",
        help="wedge face boundary kinds (PEC_PMC is experimental)",
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="sphcav", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modes", help="enumerate cavity modes")
    _add_geometry_args(p)
    p.add_argument("--fmax-ghz", type=float, default=None, help="frequency cutoff [GHz]")
    p.add_argument("--count", type=int, default=None, help="number of modes (alternative to --fmax-ghz)")
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")

    p = sub.add_parser("dispersion", help="TE/TM first roots for a nu list")
    p.add_argument("--nu-list", type=_parse_float_list, required=True)
    p.add_argument("--radius-mm", type=float, default=15.0)
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")

    p = sub.add_parser("cone-sweep", help="branch-1 TM eigenvalue vs cone angle")
    _add_geometry_args(p)
    p.add_argument("--thetas", type=_parse_float_list, required=True, help="cone half-angles [deg]")
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")

    p = sub.add_parser("wedge-sweep", help="fundamental TM frequency vs opening")
    _add_geometry_args(p)
    p.add_argument("--openings", type=_parse_float_list, required=True, help="openings [deg]")
    p.add_argument("--format", choices=("csv", "json", "table"), default="table")

    p = sub.add_parser("field", help="field components of one mode at a point")
    _add_geometry_args(p)
    p.add_argument("--mode", type=_parse_mode, required=True, help="pol,nu,m,n")
    p.add_argument("--at", type=_parse_point, required=True, help="r[m],theta[rad],phi[rad]")

    p = sub.add_parser("validate", help="recompute a bundled reference fixture")
    p.add_argument("--fixture", choices=spectrum.list_fixtures(), required=True)

    p = sub.add_parser("energy", help="energy report for one mode")
    _add_geometry_args(p)
    p.add_argument("--mode", type=_parse_mode, required=True, help="pol,nu,m,n")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except SphcavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_rows(rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(rows, indent=2))
        return
    cols = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        print(",".join(cols))
        for row in rows:
            print(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
        return
    print("  ".join(f"{c:>12}" for c in cols))
    for row in rows:
        print("  ".join(f"{row[c]:>12.6g}" if isinstance(row[c], float) else f"{row[c]:>12}" for c in cols))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "modes":
        config = _config_from(args)
        f_max = args.fmax_ghz * 1e9 if args.fmax_ghz is not None else None
        records = spectrum.enumerate_modes(config, f_max_hz=f_max, max_count=args.count)
        out = {
            "csv": spectrum.format_csv,
            "json": spectrum.format_json,
            "table": spectrum.format_table,
        }[args.format](records)
        sys.stdout.write(out)
        return 0

    if cmd == "dispersion":
        rows = spectrum.dispersion_table(args.nu_list, args.radius_mm / 1000.0)
        _print_rows(rows, args.format)
        return 0

    if cmd == "cone-sweep":
        rows = spectrum.cone_sweep(_config_from(args), args.thetas)
        _print_rows(rows, args.format)
        return 0

    if cmd == "wedge-sweep":
        rows = spectrum.wedge_sweep(_config_from(args), args.openings)
        _print_rows(rows, args.format)
        return 0

    if cmd == "field":
        mode = _build_mode(args)
        r, theta, phi = args.at
        sample = fld.evaluate(mode, (r, theta, phi))
        for label, vec in (("E", sample.E), ("H", sample.H)):
            for comp, val in zip("r theta phi".split(), vec):
                print(f"{label}_{comp} = {val.real:+.9e} {val.imag:+.9e}j")
        s = fld.poynting(sample)
        print(f"S = ({s[0]:.9e}, {s[1]:.9e}, {s[2]:.9e})")
        return 0

    if cmd == "validate":
        report = spectrum.validate(args.fixture)
        print("\n".join(report.lines()))
        return 0 if report.passed else 2

    if cmd == "energy":
        mode = _build_mode(args)
        rep = mode_energy(mode)
        print(f"radial_integrable = {rep.radial_integrable}")
        print(f"angular_norm      = {rep.angular_norm:.12g}")
        print(f"total_energy_J    = {rep.total_energy:.12g}")
        for key, val in rep.factorization.items():
            print(f"{key:<17} = {val:.12g}")
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
