"""The library is what the CLI runs: no module in src/kinex goes unused by it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kinex


def test_cli_loads_exactly_the_library_modules(tmp_path):
    # the import, then a simulate long enough to fork the draw producer, whose module loads only then
    package = Path(kinex.__file__).parent
    shipped = {"kinex"} | {f"kinex.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__"}
    run = f"kinex.cli.main(['simulate', '--n', '10000', '--t', '80', '--out', {str(tmp_path / 'out')!r}])"
    probe = f"import json, sys, kinex.cli; {run}; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'kinex')))"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert set(json.loads(out.stdout.splitlines()[-1])) == shipped
