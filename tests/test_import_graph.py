import os
import subprocess
import sys
from pathlib import Path

import smcimpute

# heavy modules that importing the package must not pull in
HEAVY = ("scipy", "concurrent.futures.process")

SRC = str(Path(smcimpute.__file__).resolve().parents[1])

# Every command of the CLI, in a process where importing scipy fails.  It
# prints the scipy modules loaded, and numpy.ma and its submodules, which the
# program never uses (np.unique imports numpy.ma; it costs about 1.3 MB).
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
from pathlib import Path

import numpy as np

from smcimpute.cli import main
from smcimpute.dataset import Column, Dataset, VariableKind, VariableRole, write_csv
from smcimpute.rng import stream
from smcimpute.simlab import apply_mcar, gen_cox

tmp = Path(sys.argv[1])
rng = stream(4, "no-scipy")
x = rng.normal(size=200)
y = (rng.random(200) < 1.0 / (1.0 + np.exp(-0.5 - x))).astype(float)
full = np.ones(200, dtype=bool)
logit = Dataset((
    Column("x", VariableKind.CONTINUOUS, VariableRole.PARTIAL_COVARIATE, x, full.copy()),
    Column("y", VariableKind.BINARY, VariableRole.OUTCOME, y, full),
))
datasets = {
    "logit": (logit, "logistic", "y ~ x",
              "x,continuous,partial_covariate\\ny,binary,outcome\\n"),
    "cox": (gen_cox(200, rng), "cox", "surv(w,d) ~ x1 + x2",
            "x1,binary,partial_covariate\\nx2,continuous,partial_covariate\\n"
            "w,continuous,time\\nd,binary,event\\n"),
}
for name, (d, family, smodel, schema_rows) in datasets.items():
    write_csv(apply_mcar(d, 0.7, stream(4, "mask", name)), tmp / f"{name}.csv")
    (tmp / f"{name}.schema.csv").write_text("name,kind,role\\n" + schema_rows)
    common = ["--data", str(tmp / f"{name}.csv"), "--schema", str(tmp / f"{name}.schema.csv")]
    for method in ("fcs", "smcfcs"):
        out = str(tmp / f"{name}.{method}.csv")
        argv = ["impute", *common, "--method", method, "--m", "2", "--iter", "2", "--out", out]
        if method == "smcfcs":
            argv += ["--family", family, "--smodel", smodel]
        assert main(argv) == 0, argv
    common[1] = str(tmp / f"{name}.smcfcs.csv")
    assert main(["analyze", *common, "--family", family, "--smodel", smodel,
                 "--out", str(tmp / f"{name}.pooled.csv")]) == 0
for scenario in ("quad-normal-mcar", "cox-n100"):
    assert main(["simulate", "--scenario", scenario, "--reps", "1",
                 "--out", str(tmp / f"{scenario}.csv")]) == 0
print(",".join(m for m, module in sys.modules.items()
               if module is not None and (m.partition(".")[0] == "scipy"
                                          or m.split(".")[:2] == ["numpy", "ma"])))
"""


def _run(code, *args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )


def test_package_imports_neither_scipy_nor_process_pools():
    out = _run(
        "import sys\n"
        "import smcimpute, smcimpute.cli, smcimpute.simlab\n"
        f"print(','.join(m for m in sys.modules if m.startswith({HEAVY!r})))\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_cli_loads_the_simulation_lab_only_to_simulate():
    out = _run(
        "import sys\n"
        "import smcimpute.cli\n"
        "print('smcimpute.simlab' in sys.modules)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_every_cli_command_runs_where_scipy_cannot_be_imported(tmp_path):
    out = _run(WITHOUT_SCIPY, str(tmp_path))
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip() == ""
