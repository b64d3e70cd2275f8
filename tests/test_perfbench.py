"""The benchmark harness at toy size.

perfbench/spans.py wraps every public function of the kinex layers by name,
so deleting or renaming one can break traced benchmark runs while every
other test still passes. Running the harness self-check here catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_harness_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
