"""The benchmark's own test: its reduced-size smoke mode passes.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_mode_emits_every_metric_and_covers_the_passes():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         cwd=HERE.parent, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().splitlines()[-1] == "smoke: ok"
