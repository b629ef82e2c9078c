"""Mode enumeration, geometry sweeps, and validation against bundled fixtures.

A cavity is described by its radius, an azimuthal opening (360 deg = full
sphere), and an optional polar cone.  Enumeration is one loop of caps: each round
walks the admissible azimuthal indices, takes the angular eigenvalues of each from
the domain (AngularDomain.eigenvalue_lists: nu = m + k without a cone, cone branches
otherwise) and quantizes radially for both polarizations; the last round's records
are sorted by frequency with a deterministic tie-break (TM before TE, then smaller
m).  The CSV, JSON and table writers take a record's cells under one column table.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, replace
from importlib import resources

from .angular import AngularDomain, classify, cone_nus
from .errors import DomainError, FixtureLookupError, positive_index
from .radial import SPEED_OF_LIGHT, RadialSweep, RootKind, frequency_from_root, nth
from .specfun import advance

__all__ = [
    "CavityConfig",
    "ModeRecord",
    "enumerate_modes",
    "fundamental_tm",
    "cone_sweep",
    "wedge_sweep",
    "dispersion_table",
    "list_fixtures",
    "load_fixture",
    "validate",
    "ValidationReport",
    "format_csv",
    "format_json",
    "format_table",
]

_FREQ_SLACK = 1e-6  # inclusive cutoff slack, avoids boundary flakiness


@dataclass(frozen=True)
class CavityConfig:
    """Cavity geometry: radius plus optional wedge opening and polar cone."""

    radius_m: float
    wedge_opening_deg: float = 360.0
    cone_half_angle_deg: float = 0.0
    wedge_face_kind: str = "PEC_PEC"

    def __post_init__(self):
        if not 0.0 < self.radius_m < math.inf:
            raise DomainError(f"radius must be positive and finite, got {self.radius_m}")
        self.domain()  # the domain validates the opening, the cone and the face kind

    def domain(self) -> AngularDomain:
        return AngularDomain(
            azimuth_opening_rad=math.radians(self.wedge_opening_deg),
            cone_half_angle_rad=math.radians(self.cone_half_angle_deg),
            face_kind=self.wedge_face_kind,
        )


@dataclass(frozen=True)
class ModeRecord:
    polarization: str  # "TM" | "TE"
    nu: float
    m: float
    k: int | None
    n: int
    root_x: float
    frequency_hz: float
    family: str


def _sort_key(rec: ModeRecord):
    return (rec.frequency_hz, 0 if rec.polarization == "TM" else 1, rec.m, rec.nu, rec.n)


def _swept_candidates(domain: AngularDomain, x_cap: float, sweeps: dict) -> list[tuple]:
    """Every (m, nu, k, kind, sweep) admissible up to x_cap, kind the radial condition of the
    polarization and sweep its RadialSweep scanned past x_cap; k is the offset nu - m without a
    cone, None with one.  Every (m, kind) takes its eigenvalues from one
    AngularDomain.eigenvalue_lists call and every radial sweep advances in one specfun.advance
    call.  ``sweeps`` keeps one RadialSweep per (nu, kind) and, across a cone, one ConeSweep per
    (m, polarization), which each cap of max_count's loop continues where they stand.

    nu = m + k is formed in floating point, so one eigenvalue can arrive as floats an
    ulp apart (13/3 = 4/3 + 3 = 10/3 + 1); keyed to 12 decimals they share one sweep,
    and each candidate keeps its own nu.  A cone root is keyed by its exact nu, which its
    lattice interval alone fixes, so every cap of max_count's loop finds the same sweep.
    """
    kinds = (RootKind.TM_RICCATI_DERIV_ZERO, RootKind.TE_JZERO)
    pairs = [(m, kind) for m in domain.indices(x_cap) for kind in kinds if domain.admits(m, kind.value)]
    spectra = domain.eigenvalue_lists([(m, kind.value) for m, kind in pairs], x_cap, sweeps)
    candidates = []
    for (m, kind), nus in zip(pairs, spectra):
        for nu in nus:
            key = (nu if domain.has_cone else round(nu, 12), kind)
            sweep = sweeps.get(key) or sweeps.setdefault(key, RadialSweep(nu, kind))
            candidates.append((m, nu, None if domain.has_cone else round(nu - m), kind, sweep))
    advance([sweep for *_, sweep in candidates], [x_cap] * len(candidates))
    return candidates


def enumerate_modes(
    config: CavityConfig,
    f_max_hz: float | None = None,
    max_count: int | None = None,
) -> list[ModeRecord]:
    """All modes up to f_max_hz (inclusive with 1e-6 slack), sorted by frequency.

    One loop of caps: f_max_hz is a loop of one round; with ``max_count`` alone the cap starts
    at x = 4 and grows 1.5x until the sweeps hold that many roots below it.  Each round sweeps
    each (nu, kind) for radial roots, and across a cone each (m, polarization) for cone roots,
    every cap continuing the sweeps where the last left them.  The records are built in one
    walk of each sweep's roots, at the last round.
    """
    if f_max_hz is None and max_count is None:
        raise DomainError("provide f_max_hz or max_count")
    if f_max_hz is not None and not 0.0 < f_max_hz < math.inf:
        raise DomainError(f"f_max_hz must be positive and finite, got {f_max_hz}")
    if max_count is not None:
        max_count = positive_index(max_count, "max_count")
    domain, a, sweeps = config.domain(), config.radius_m, {}
    f_cap = f_max_hz or frequency_from_root(4.0, a)
    while True:
        f_top = f_cap * (1.0 + _FREQ_SLACK)
        found = _swept_candidates(domain, 2.0 * math.pi * a * f_top / SPEED_OF_LIGHT, sweeps)
        roots = (r for *_, s in found for r in s.roots)
        if f_max_hz is not None or sum(frequency_from_root(r.x, a) <= f_top for r in roots) >= max_count:
            break
        f_cap *= 1.5
    records = []
    for m, nu, k, kind, sweep in found:
        family = None  # classified once per candidate with a mode below the cap
        for root in sweep.roots:
            if (f := frequency_from_root(root.x, a)) > f_top:
                break
            family = family or classify(nu, m, cone_present=domain.has_cone).value
            records.append(ModeRecord(kind.value, nu, m, k, root.n, root.x, f, family))
    records.sort(key=_sort_key)
    return records[:max_count]


def _fundamentals(configs: list[CavityConfig]) -> list[ModeRecord]:
    """Lowest-frequency TM mode of each configuration, their cone scans and radial roots found
    together."""
    heads = []
    for config in configs:
        domain = config.domain()
        if domain.full_azimuth:
            m = 0.0 if domain.has_cone else 1.0
        else:
            m = domain.nearest_index(0.0, "TM")
        heads.append((config.radius_m, m, domain))
    branches = iter(cone_nus([(m, d.cone_half_angle_rad, "TM", 1) for _, m, d in heads if d.has_cone]))
    nus = [next(branches) if d.has_cone else m for _, m, d in heads]
    roots = nth([RadialSweep(nu, RootKind.TM_RICCATI_DERIV_ZERO) for nu in nus], 1)
    return [
        ModeRecord(
            "TM", nu, m, None if d.has_cone else 0, 1, r.x, frequency_from_root(r.x, a),
            classify(nu, m, cone_present=d.has_cone).value,
        )
        for (a, m, d), nu, r in zip(heads, nus, roots)
    ]


def fundamental_tm(config: CavityConfig) -> ModeRecord:
    """Lowest-frequency TM mode of the configuration."""
    return _fundamentals([config])[0]


def cone_sweep(config: CavityConfig, theta_c_list_deg: list[float]) -> list[dict]:
    """Branch-1 TM angular eigenvalue and fundamental frequency per cone angle."""
    recs = _fundamentals([replace(config, cone_half_angle_deg=tc) for tc in theta_c_list_deg])
    return [{"theta_c_deg": tc, "nu": r.nu, "f_ghz": r.frequency_hz / 1e9} for tc, r in zip(theta_c_list_deg, recs)]


def wedge_sweep(config: CavityConfig, openings_deg: list[float]) -> list[dict]:
    """Fundamental TM frequency per azimuthal opening."""
    recs = _fundamentals([replace(config, wedge_opening_deg=phi) for phi in openings_deg])
    return [{"opening_deg": phi, "m1": r.m, "f_ghz": r.frequency_hz / 1e9} for phi, r in zip(openings_deg, recs)]


def dispersion_table(nu_list: list[float], radius_m: float = 0.015) -> list[dict]:
    """First TE/TM roots and frequencies per angular index, every root found together."""
    kinds = (RootKind.TE_JZERO, RootKind.TM_RICCATI_DERIV_ZERO)
    roots = iter(nth([RadialSweep(nu, kind) for nu in nu_list for kind in kinds], 1))
    return [
        {
            "nu": te.nu,
            "x_te": te.x,
            "f_te_ghz": frequency_from_root(te.x, radius_m) / 1e9,
            "x_tm": tm.x,
            "f_tm_ghz": frequency_from_root(tm.x, radius_m) / 1e9,
        }
        for te, tm in zip(roots, roots)
    ]


# --- reference fixtures ------------------------------------------------------

_FIXTURE_NAMES = ("table1_dispersion", "table2_wedge90", "table3_cone", "table4_combined")


def list_fixtures() -> tuple[str, ...]:
    return _FIXTURE_NAMES


def _parse_cell(text: str):
    """A float, a fraction num/den, or else the text."""
    num, slash, den = text.partition("/")
    try:
        return float(num) / float(den) if slash else float(num)
    except ValueError:
        return text


def load_fixture(name: str) -> dict:
    """Parse a bundled fixture file into {meta..., 'rows': [dict, ...]}."""
    if name not in _FIXTURE_NAMES:
        raise FixtureLookupError(f"no fixture named {name!r}; available: {_FIXTURE_NAMES}")
    text = resources.files("sphcav.fixtures").joinpath(f"{name}.txt").read_text()
    meta: dict = {}
    columns: list[str] | None = None
    rows: list[dict] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if columns is None:
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if key == "columns":
                columns = value.split()
            else:
                meta[key] = _parse_cell(value)
        else:
            cells = line.split()
            rows.append({c: _parse_cell(v) for c, v in zip(columns, cells)})
    meta["rows"] = rows
    return meta


@dataclass(frozen=True)
class ValidationReport:
    fixture: str
    rows: list[dict]
    max_theory_dev: float
    mean_theory_dev: float
    max_reference_dev: float
    passed: bool

    def lines(self) -> list[str]:
        out = [f"fixture {self.fixture}: {'PASS' if self.passed else 'FAIL'}"]
        for row in self.rows:
            out.append("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
        out.append(
            f"  theory column: max dev {self.max_theory_dev:.3%}, "
            f"mean {self.mean_theory_dev:.3%}; reference column: max dev "
            f"{self.max_reference_dev:.3%}"
        )
        return out


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _dispersion_row(fx: dict, row: dict, radius: float, comp: dict):
    ok, devs = True, []
    for key_x, key_f in (("x_te", "f_te_ghz"), ("x_tm", "f_tm_ghz")):
        df = abs(comp[key_f] - row[key_f])
        ok &= abs(comp[key_x] - row[key_x]) <= fx["root_atol"] and df <= fx["freq_atol_ghz"]
        devs.append(df / row[key_f])
    row_out = {key: comp[key] for key in ("nu", "x_te", "x_tm", "f_te_ghz", "f_tm_ghz")}
    return {**row_out, "ok": ok}, devs, [0.0]


def _frequency_row(fx: dict, row: dict, radius: float, head: dict, x: float, head_ok: bool = True):
    """The row of a first-root frequency compared with the theory and reference columns."""
    f_ghz = frequency_from_root(x, radius) / 1e9
    t_dev = abs(f_ghz - row["f_theory_ghz"]) / row["f_theory_ghz"]
    r_dev = abs(f_ghz - row["f_ref_ghz"]) / row["f_ref_ghz"]
    ok = head_ok and t_dev <= fx["theory_rtol"] and r_dev <= fx["reference_rtol"]
    return {**head, "f_ghz": f_ghz, "theory_dev": t_dev, "reference_dev": r_dev, "ok": ok}, [t_dev], [r_dev]


def _modes_row(fx: dict, row: dict, radius: float, root):
    head = {"mode": int(row["mode"]), "pol": row["pol"], "nu": row["nu"], "m": row["m"]}
    return _frequency_row(fx, row, radius, head, root.x)


def _cone_row(fx: dict, row: dict, radius: float, rec: ModeRecord):
    nu_dev = abs(rec.nu - row["nu"])
    head = {"theta_c_deg": row["theta_c_deg"], "nu": rec.nu, "nu_fixture": row["nu"], "nu_dev": nu_dev}
    return _frequency_row(fx, row, radius, head, rec.root_x, nu_dev <= fx["nu_atol"])


def _combined_row(fx: dict, row: dict, radius: float, rec: ModeRecord):
    head = dict(
        opening_deg=row["opening_deg"], m_exact=rec.m, m_printed=row["m"], nu=rec.nu, nu_fixture=row["nu"]
    )
    return _frequency_row(fx, row, radius, head, rec.root_x)


# per fixture kind: (every row's result in one call, from the fixture and the radius: dispersion_table,
# one nth batch, or _fundamentals with every cone scan in one; the report row of one fixture row:
# (fixture, row, radius, its result) -> (report row, theory deviations, reference deviations))
_KINDS = dict(
    dispersion=(lambda fx, a: dispersion_table([row["nu"] for row in fx["rows"]], a), _dispersion_row),
    modes=(lambda fx, a: nth([RadialSweep(row["nu"], row["pol"]) for row in fx["rows"]], 1), _modes_row),
    cone=(lambda fx, a: _fundamentals([CavityConfig(a, 360.0, row["theta_c_deg"]) for row in fx["rows"]]), _cone_row),
    combined=(
        lambda fx, a: _fundamentals(
            [CavityConfig(a, row["opening_deg"], fx["cone_half_angle_deg"]) for row in fx["rows"]]
        ),
        _combined_row,
    ),
)


def validate(fixture_name: str) -> ValidationReport:
    """Recompute a fixture's theory column from scratch and compare both columns: every row of
    the fixture found in one call of its kind (_KINDS), then one report row per fixture row."""
    fx = load_fixture(fixture_name)
    if fx["kind"] not in _KINDS:
        raise FixtureLookupError(f"fixture kind {fx['kind']!r} has no validator")
    find, recompute = _KINDS[fx["kind"]]
    radius = fx["radius_mm"] / 1000.0
    found = zip(fx["rows"], find(fx, radius))
    rows, theory, reference = zip(*(recompute(fx, row, radius, got) for row, got in found))
    theory_devs = sum(theory, [])
    return ValidationReport(
        fixture=fixture_name,
        rows=list(rows),
        max_theory_dev=max(theory_devs),
        mean_theory_dev=statistics.fmean(theory_devs),
        max_reference_dev=max(sum(reference, [])),
        passed=all(r["ok"] for r in rows),
    )


# --- output formatting --------------------------------------------------------

# the columns of a mode record, each with its table width and precision; the table heads f_GHz "f [GHz]"
_COLUMNS = (
    ("pol", "<4", ""), ("nu", ">9", ".4f"), ("m", ">9", ".4f"), ("k", ">3", ""),
    ("n", ">2", ""), ("x", ">10", ".4f"), ("f_GHz", ">8", ".2f"), ("family", "", ""),
)
_NAMES = [name for name, *_ in _COLUMNS]


def _cells(r: ModeRecord) -> tuple:
    """The record's cell of each column, in _COLUMNS order."""
    return (r.polarization, r.nu, r.m, r.k, r.n, r.root_x, r.frequency_hz / 1e9, r.family)


def format_csv(records: list[ModeRecord]) -> str:
    """Floats as repr, a missing k as an empty cell."""
    rows = [_NAMES]
    rows += [["" if c is None else repr(c) if isinstance(c, float) else str(c) for c in _cells(r)] for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


def format_json(records: list[ModeRecord]) -> str:
    return json.dumps([dict(zip(_NAMES, _cells(r))) for r in records], indent=2) + "\n"


def format_table(records: list[ModeRecord]) -> str:
    """The human view: each column to its width and precision, a missing k as "-"."""
    rows = [["f [GHz]" if name == "f_GHz" else name for name in _NAMES]]
    rows += [["-" if c is None else format(c, digits) for c, (*_, digits) in zip(_cells(r), _COLUMNS)] for r in records]
    return "".join(" ".join(format(c, width) for c, (_, width, _) in zip(row, _COLUMNS)) + "\n" for row in rows)
