#!/usr/bin/env python3
"""Distance in ulp of every radial and cone root that scripts/snapshot.py computes from a
40-digit root.

  python3 scripts/root_ulps.py SRC > ulps.txt

SRC is the src/ directory of the sphcav tree to measure.  Every section of
snapshot.py runs against it, its output discarded, while each RadialRoot that
radial makes is recorded, once per (kind, nu, n), and each cone root below its cap that a
cone sweep hands its caller (angular._below, behind cone_roots, cone_nus and the
enumerations' eigenvalue lists), once per (polarization, m, theta_c, branch).  Each root is
then refined in 40-digit mpmath (tests/oracles.py's mp_wall_root_near, a continued
fraction that holds at every order, and mp_cone_root_near, on mp_cone_function)
and printed with its distance |x - x_exact| / ulp(x_exact): first the radial roots,
then their count, largest distance and sum, then the same for the cone roots.  Run
it on two trees and join the lines on their leading fields to compare root by root.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(REPO / "scripts"), str(REPO / "tests")]
    import mpmath as mp
    from oracles import mp_cone_root_near, mp_wall_root_near

    import snapshot
    from sphcav import angular, radial

    made, real = {}, radial.RadialRoot
    cones, below = {}, angular._below

    def recording(nu, n, kind, x, residual):
        made.setdefault((kind.value, nu, n), x)
        return real(nu, n, kind, x, residual)

    def scanning(sweeps, caps):
        found = below(sweeps, caps)
        for sweep, roots in zip(sweeps, found):
            for branch, nu in enumerate(roots, 1):  # a sweep's roots start at branch 1
                cones.setdefault((sweep.polarization, sweep.m, sweep.theta_c, branch), nu)
        return found

    # radial and angular look the names up at each root and each scan
    radial.RadialRoot, angular._below = recording, scanning
    with contextlib.redirect_stdout(io.StringIO()):
        for section in snapshot.SECTIONS:
            section()
    radial.RadialRoot, angular._below = real, below

    def report(label, roots, exact_root):
        worst, total = (0.0, None), 0.0
        for key, x in sorted(roots.items()):
            exact = exact_root(*key, x)
            ulps = abs(float((mp.mpf(x) - exact) / math.ulp(float(exact))))
            print(*(k if isinstance(k, str) else repr(k) for k in key), f"{x!r} {ulps:.2f}")
            worst, total = max(worst, (ulps, key)), total + ulps
        print(f"{label} {len(roots)}")
        print(f"max {worst[0]:.2f} ulp at {worst[1]}")
        print(f"sum {total:.1f} ulp")

    report("roots", made, lambda kind, nu, n, x: mp_wall_root_near(nu, kind, x))
    report("cone roots", cones, lambda pol, m, theta_c, branch, nu: mp_cone_root_near(m, theta_c, pol, nu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
