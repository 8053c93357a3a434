import os
import subprocess
import sys
from pathlib import Path

import smcimpute

# heavy modules that importing the package must not pull in
HEAVY = ("scipy.linalg", "scipy.stats", "scipy.optimize", "concurrent.futures.process")


def test_package_imports_only_special_from_scipy():
    src = str(Path(smcimpute.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import smcimpute, smcimpute.cli, smcimpute.simlab\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == ""
