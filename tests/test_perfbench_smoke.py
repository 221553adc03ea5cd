"""The benchmark's smoke check, run from the repository root.

perfbench traces the package from outside: it looks up every traced layer
by name in its module or on its class, so a deletion or rename in the
package breaks every traced run.  perfbench/smoke.py runs each workload
once untraced and once traced at tiny sizes and checks the layer
predictions; it writes only under .perfbench_out/ and removes what it made.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in ("forward-scatter", "assemble-small", "image-ballistic",
                 "bare directory"):
        assert f"smoke {name}: ok" in lines, proc.stdout
