"""Make the benchmark modules and the in-tree ``dynred`` importable.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
