"""Import sphcav from this checkout's src/ and the benchmark modules from here."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
