#!/usr/bin/env python3
"""Distance in ulp of every radial root that scripts/snapshot.py computes from a 40-digit root.

  python3 scripts/root_ulps.py SRC > ulps.txt

SRC is the src/ directory of the sphcav tree to measure.  Every section of
snapshot.py runs against it, its output discarded, while each RadialRoot that
radial makes is recorded, once per (kind, nu, n).  Each root is then refined in
40-digit mpmath (tests/oracles.py's mp_wall_root_near, a continued fraction that
holds at every order) and printed with |x - x_exact| / ulp(x_exact); the last
lines give the count, the largest distance and the sum.  Run it on two trees and
join the lines on their first three fields to compare root by root.
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
    from oracles import mp_wall_root_near

    import snapshot
    from sphcav import radial

    made, real = {}, radial.RadialRoot

    def recording(nu, n, kind, x, residual):
        made.setdefault((kind.value, nu, n), x)
        return real(nu, n, kind, x, residual)

    radial.RadialRoot = recording  # radial looks the name up at each root it keeps
    with contextlib.redirect_stdout(io.StringIO()):
        for section in snapshot.SECTIONS:
            section()
    radial.RadialRoot = real
    worst, total = (0.0, None), 0.0
    for (kind, nu, n), x in sorted(made.items()):
        exact = mp_wall_root_near(nu, kind, x)
        ulps = abs(float((mp.mpf(x) - exact) / math.ulp(float(exact))))
        print(f"{kind} {nu!r} {n} {x!r} {ulps:.2f}")
        worst, total = max(worst, (ulps, (kind, nu, n))), total + ulps
    print(f"roots {len(made)}")
    print(f"max {worst[0]:.2f} ulp at {worst[1]}")
    print(f"sum {total:.1f} ulp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
