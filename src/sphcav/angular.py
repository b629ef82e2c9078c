"""Angular eigenvalue problem: admissible (nu, m) pairs and mode families.

AngularDomain owns both constraints that make the indices discrete; no other module computes
either.  Single-valuedness in phi: the index lattice of each polarization and wedge face kind
(indices, nearest_index, admits).  Regularity at the retained poles: polar and polar_value (the
reflection theta -> pi - theta, which the cone condition takes at theta_c alone) and
eigenvalues, which are nu = m + k without a cone (specfun.terminates tests nu - m in N) and
continuous families of cone roots with one: those of a ConeSweep per (m, polarization), which
an enumeration keeps per call, as its radial sweeps, and specfun.advance continues per cap.

Geometry conventions:
  * azimuth opening Phi in (0, 2pi]; Phi = 2pi means the full azimuth
  * cone half-angle theta_c in [0, pi/2); the cone removes the polar cap
    around theta = 0, so the retained domain is theta in [theta_c, pi] and
    regularity is demanded at the retained pole theta = pi
  * the solution regular at theta = pi is legendre_theta evaluated at
    pi - theta (the angular equation is symmetric under theta -> pi - theta),
    so the conducting-cone conditions read
        TM:  legendre_theta(nu, m, pi - theta_c) = 0
        TE:  legendre_theta_deriv(nu, m, pi - theta_c) = 0

The second form is what this module solves.  Published treatments sometimes
state the TM condition as "P_nu^m(cos theta_c) = 0"; read literally (with
P regular at theta = 0) that equation has no roots in the validated range
and does not describe a cap-removal cone, so it is taken as shorthand for
the reflected condition above.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ClassificationError, DomainError, RootSearchError, positive_index
from .specfun import Lattice, advance, legendre_theta, ln_gamma, polar_solution, terminates

__all__ = [
    "Family",
    "AngularDomain",
    "AngularEigenpair",
    "south_singular_coefficient",
    "classify",
    "ConeSweep",
    "cone_roots",
    "cone_nu",
    "cone_nus",
    "angular_ode_residual",
]


class Family(enum.Enum):
    SECTORAL = "sectoral"
    TESSERAL = "tesseral"
    ZONAL = "zonal"
    NULL = "null"


@dataclass(frozen=True)
class AngularDomain:
    """Angular extent of the cavity, and the one owner of what its constraints admit."""

    azimuth_opening_rad: float = 2.0 * math.pi
    cone_half_angle_rad: float = 0.0
    face_kind: str = "PEC_PEC"  # wedge faces at phi = 0 and Phi: PEC_PEC or PEC_PMC

    def __post_init__(self):
        if not (0.0 < self.azimuth_opening_rad <= 2.0 * math.pi):
            raise DomainError(f"azimuth opening must lie in (0, 2*pi], got {self.azimuth_opening_rad!r} rad")
        if not (0.0 <= self.cone_half_angle_rad < 0.5 * math.pi):
            raise DomainError(f"cone half-angle must lie in [0, pi/2), got {self.cone_half_angle_rad!r} rad")
        if self.face_kind not in ("PEC_PEC", "PEC_PMC"):
            raise DomainError(f"unknown wedge face kind {self.face_kind!r}")

    @property
    def full_azimuth(self) -> bool:
        return self.azimuth_opening_rad == 2.0 * math.pi

    @property
    def has_cone(self) -> bool:
        return self.cone_half_angle_rad > 0.0

    def _index(self, q: int) -> float:
        """The q-th wedge index: q pi/Phi between PEC faces, (2q+1) pi/(2 Phi) between PEC and PMC."""
        if self.face_kind == "PEC_PEC":
            return q * math.pi / self.azimuth_opening_rad
        return (2 * q + 1) * math.pi / (2.0 * self.azimuth_opening_rad)

    def nearest_index(self, m: float, polarization: str) -> float:
        """The index of polarization "TM" or "TE" nearest to m.

        On the full azimuth that is m (the sectoral curve is continuous); on a wedge
        m = q pi/Phi, q an integer between PEC faces (q > 0 for TM: sin(0 phi) = 0) or
        an odd half-integer between PEC and PMC faces.  A nan or infinite m raises DomainError.
        """
        if not math.isfinite(m):
            raise DomainError(f"azimuthal index must be finite, got m={m}")
        if self.full_azimuth:
            return m
        q = m * self.azimuth_opening_rad / math.pi
        if self.face_kind == "PEC_PEC":
            return self._index(max(round(q), int(polarization == "TM")))
        return self._index(math.floor(q))

    def indices(self, m_cap: float) -> list[float]:
        """Every index m <= m_cap of either polarization, ascending: 0, 1, 2, ... on the full
        azimuth, else the wedge lattice, which between PEC faces starts with the TE-only 0."""
        if not math.isfinite(m_cap):
            raise DomainError(f"index cap must be finite, got {m_cap}")
        if self.full_azimuth:
            return [float(n) for n in range(math.floor(m_cap) + 1)]
        out = []
        for q in itertools.count():
            if (m := self._index(q)) > m_cap:
                return out
            out.append(m)

    def admits(self, m: float, polarization: str) -> bool:
        """Whether m is an index of the polarization: 2 m Phi/pi within 1e-9 of the nearest one's."""
        q2, near2 = (2.0 * x * self.azimuth_opening_rad / math.pi for x in (m, self.nearest_index(m, polarization)))
        return abs(q2 - near2) <= 1e-9 * max(1.0, q2)

    def _retained(self, theta):
        """theta seen from the pole the solution is regular at: pi - theta across a cone."""
        if not self.has_cone:
            return theta
        return math.pi - theta if isinstance(theta, float) else np.pi - np.asarray(theta)

    def polar(self, nu, m, theta):
        """(Theta, dTheta/dtheta) regular at theta = 0, or at theta = pi across a cone;
        nu, m and theta broadcast as in specfun.polar_solution."""
        value, deriv = polar_solution(nu, m, self._retained(theta))
        return (value, -deriv) if self.has_cone else (value, deriv)

    def polar_value(self, nu, m, theta):
        """Theta of polar alone, without summing the derivative's series."""
        return legendre_theta(nu, m, self._retained(theta))

    def eigenvalues(self, m: float, polarization: str, nu_cap: float) -> list[float]:
        """Every nu <= nu_cap of order m, ascending: m + k (k = 0, 1, ...) regular at both
        poles, without the field-free (0, 0); across a cone the roots of the polarization's
        condition (cone_roots)."""
        return self.eigenvalue_lists([(m, polarization)], nu_cap, {})[0]

    def eigenvalue_lists(self, pairs, nu_cap: float, sweeps: dict) -> list[list[float]]:
        """eigenvalues of each (m, polarization) pair; across a cone, of the ConeSweep that
        ``sweeps`` keeps per pair (made if missing), all advanced to nu_cap in one call."""
        if not math.isfinite(nu_cap):
            raise DomainError(f"eigenvalue cap must be finite, got {nu_cap}")
        if self.has_cone:
            tc = self.cone_half_angle_rad
            cones = [sweeps.get((m, pol)) or sweeps.setdefault((m, pol), ConeSweep(m, tc, pol)) for m, pol in pairs]
            return _below(cones, [nu_cap] * len(cones))

        def lattice(m):  # m + k for k = 0, 1, ... up to nu_cap
            return itertools.takewhile(lambda nu: nu <= nu_cap, (m + k for k in itertools.count()))

        return [[nu for nu in lattice(m) if nu > 0.0] for m, _ in pairs]


@dataclass(frozen=True)
class AngularEigenpair:
    """An admissible (nu, m) pair with its family tag.

    ``k`` is the tesseral offset where nu = m + k applies (cone-free domains);
    cone-derived eigenvalues carry k = None.
    """

    nu: float
    m: float
    family: Family
    k: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.m)):
            raise DomainError(f"nu and m must be finite, got nu={self.nu}, m={self.m}")
        if self.nu <= -0.5:
            raise DomainError("energy integrability requires nu > -1/2")
        if self.m < 0.0:
            raise DomainError("m must be >= 0")


def south_singular_coefficient(nu: float, m: float) -> float:
    """Coefficient of the singular branch at theta = pi of the north-regular solution.

    For m > 0 this is [Gamma(nu+m+1)/Gamma(nu-m+1)] * sin((nu-m)*pi)/pi,
    multiplying the (pi-theta)^(-m) divergence; for m = 0 it is sin(nu*pi)/pi,
    multiplying the logarithmic divergence.  It is exactly 0 where nu - m is a
    non-negative integer within an absolute 1e-12 (specfun.terminates), which is
    the discreteness mechanism for cone-free domains.
    """
    if not (math.isfinite(nu) and 0.0 <= m < math.inf):
        raise DomainError(f"nu must be finite and m finite and >= 0, got nu={nu}, m={m}")
    if nu + m + 1.0 <= 0.0:
        raise DomainError(f"gamma ratio undefined for nu+m+1 = {nu + m + 1.0} <= 0")
    if terminates(nu, m):
        return 0.0
    w = nu - m
    if w + 1.0 > 0.0:
        ratio = math.exp(ln_gamma(nu + m + 1.0) - ln_gamma(w + 1.0))
        return ratio * math.sin(w * math.pi) / math.pi
    # reflection handles the Gamma(w+1) poles left of the origin:
    # sin(w*pi)/Gamma(w+1) = -sin(w*pi)^2 * Gamma(-w) / pi
    return -math.exp(ln_gamma(nu + m + 1.0) + ln_gamma(-w)) * math.sin(w * math.pi) ** 2 / math.pi**2


def classify(nu: float, m: float, cone_present: bool = False) -> Family:
    """Mode family of an admissible (nu, m) pair.  Without a cone nu - m must be a non-negative
    integer to an absolute 1e-12 (specfun.terminates): any other nu is singular at theta = pi."""
    if not (0.0 <= nu < math.inf and 0.0 <= m < math.inf):
        raise ClassificationError(f"(nu={nu}, m={m}) outside the physical quadrant")
    if nu == 0.0 and m == 0.0:
        return Family.NULL
    if not cone_present and not terminates(nu, m):
        raise ClassificationError(
            f"(nu={nu}, m={m}) is unreachable without a cone: nu - m must be a non-negative integer"
        )
    if m == 0.0:
        return Family.ZONAL
    if nu == m:
        return Family.SECTORAL
    return Family.TESSERAL


def angular_ode_residual(
    nu: float, m: float, theta: float, value: float, deriv: float, second_deriv: float
) -> float:
    """Residual of the angular equation assembled from supplied derivatives."""
    s = math.sin(theta)
    return second_deriv + math.cos(theta) / s * deriv + (nu * (nu + 1.0) - m * m / (s * s)) * value


class ConeSweep:
    """The cone roots of order m at half-angle theta_c of the polarization's condition (TM or
    TE, any case), found in increasing order and kept, the first max_branches of them (all if
    None); the constructor checks all four (DomainError), so a batch is checked before a scan.

    specfun.advance scans the lattice nu_i = 1e-4 + i 0.02, well below the root spacing, at
    every point from i = 0, each pass continuing the last, with all TM points of a pass in one
    legendre_theta call and all TE points in one polar_solution call, each point stopping its
    series at its own last term.  Brent refines each sign change to |delta nu| <= 1e-10, so a
    root is fixed by its lattice interval alone: a batch, a lone scan and a sweep continued
    from cap to cap give the same roots, to the bit.
    """

    LATTICE, STRIDE = Lattice(1e-4, 0.02), 1
    # A scan takes every lattice point from the origin, and the first root of order m lies within
    # about 1 of m, so one pass to it holds m / 0.02 points (cone_nu(1e10, ...) would hold 5e11).
    # An m past the point of index 2^18, about 5243, raises before any scan; the condition is not
    # finite there either (nan at m = 5000 for cones of 0.05 to 1.5 rad).
    MAX_M = LATTICE.point(2**18)
    TOL = dict(xtol=1e-10, rtol=1e-14)
    # Brent's method: this module's brentq as it stands, so that a wrapper around it sees each refinement
    brent = staticmethod(lambda: brentq)
    root = staticmethod(float)  # a root is kept as its nu

    def __init__(self, m: float, theta_c: float, polarization: str, max_branches: int | None = None):
        if not 0.0 <= m <= self.MAX_M:
            raise DomainError(f"order m of a cone sweep must satisfy 0 <= m <= {self.MAX_M:.6g}, got m={m}")
        if not (0.0 < theta_c < 0.5 * math.pi):
            raise DomainError("cone half-angle must lie strictly inside (0, pi/2)")
        pol = polarization.upper()
        if pol not in ("TM", "TE"):
            raise DomainError(f"polarization must be TM or TE, got {polarization!r}")
        if max_branches is not None:
            max_branches = positive_index(max_branches, "max_branches")
        self.m, self.theta_c, self.polarization, self.max_roots = m, theta_c, pol, max_branches
        self.args = (pol == "TM", m, math.pi - theta_c)
        self.name = f"{pol} cone condition for m={m}, theta_c={theta_c:g} rad"
        self._i = 0  # the lattice index of the last scanned point
        self.roots: list[float] = []

    @staticmethod
    def batched(nu, tm, m, t):
        """The cone condition at t = pi - theta_c, the cone seen from the retained pole: the
        regular polar solution there (TM) or its derivative (TE), looked up at each call."""
        return legendre_theta(nu, m, t) if tm else polar_solution(nu, m, t)[1]

    def value(self, nu: float) -> float:  # the scalar condition, for Brent's method
        return self.batched(nu, *self.args)


def _below(sweeps, caps) -> list[list[float]]:
    """The roots of each cone sweep below its cap, the sweeps advanced together to their caps."""
    advance(sweeps, caps)
    return [[nu for nu in s.roots if nu < cap] for s, cap in zip(sweeps, caps)]


def cone_roots(
    m: float, theta_c: float, polarization: str, nu_max: float, max_branches: int | None = None
) -> list[float]:
    """All cone eigenvalues below nu_max, smallest first, at most max_branches of them: a fresh
    ConeSweep advanced to nu_max, which refines at most one root past nu_max.

    The cone condition is the south-regular polar solution (TM) or its derivative (TE) at the
    cone, legendre_theta or polar_solution at pi - theta_c, which the connection formulas give
    in closed form: DLMF 15.8.4 for non-integer m, its logarithmic case 15.8.10 for integer m,
    and interpolation in m between the two within 4e-3 of an integer.  A scan value that
    overflows raises RootSearchError rather than losing roots; an m or nu_max that is not
    finite, or a max_branches that is not an integer >= 1, raises DomainError.
    """
    sweep = ConeSweep(m, theta_c, polarization, max_branches)
    if not math.isfinite(nu_max):
        raise DomainError(f"cone scan needs a finite nu_max, got {nu_max}")
    return _below([sweep], [nu_max])[0]


def _branch_scan(m: float, theta_c: float, polarization: str, branch) -> tuple:
    """The cone_roots arguments of cone branch ``branch``: a scan that ends at
    m + (branch + 1) pi/(pi - theta_c) and stops at the branch (cone_nu)."""
    branch = positive_index(branch, "branch index")
    return m, theta_c, polarization, m + (branch + 1) * math.pi / (math.pi - theta_c), branch


def _branch_root(scan: tuple, roots: list[float]) -> float:
    """The branch of ``scan`` among its ``roots``, or RootSearchError without it."""
    m, theta_c, polarization, hi, branch = scan
    if len(roots) < branch:
        what = f"no {polarization} cone root (branch {branch}) for m={m}, theta_c={theta_c:g} rad"
        raise RootSearchError(what, window=(ConeSweep.LATTICE.origin, hi))
    return roots[branch - 1]


def cone_nu(m: float, theta_c: float, polarization: str, branch: int = 1) -> float:
    """The branch-th smallest nu > 0 satisfying the cone condition.

    TM imposes a Dirichlet condition on the polar function at the cone
    surface, TE a Neumann one; both act on the solution regular at the
    retained pole theta = pi (AngularDomain.polar).  Consecutive branches lie
    about pi/(pi - theta_c) apart (the polar interval's length), so the scan stops at
    m + (branch + 1) pi/(pi - theta_c) and raises RootSearchError without
    the branch there.
    """
    scan = _branch_scan(m, theta_c, polarization, branch)
    return _branch_root(scan, cone_roots(*scan))


def cone_nus(queries) -> list[float]:
    """cone_nu of each (m, theta_c, polarization, branch), every sweep advanced in one call."""
    scans = [_branch_scan(*query) for query in queries]
    sweeps = [ConeSweep(m, theta_c, pol, branch) for m, theta_c, pol, _, branch in scans]
    return [_branch_root(scan, roots) for scan, roots in zip(scans, _below(sweeps, [s[3] for s in scans]))]
