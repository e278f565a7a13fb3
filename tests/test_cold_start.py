"""The import path of neqatom and its CLI stays free of scipy and of threads.

Only ``evolve`` loads scipy, for ``scipy.linalg.expm``. Each check runs in
a fresh interpreter, so modules imported by the test session do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import neqatom

SRC = Path(neqatom.__file__).resolve().parents[1]

TWO_HEIGHTS = """\
material = sic
omega = omega_r
omega_31 = omega_p
omega_32 = omega_r
T_W = 570
T_M = 170
z = 1e-7,1e-6
delta = 110e-9
"""

EVOLVE = """\
material = sic
omega_31 = omega_p
omega_32 = omega_r
T_W = 570
T_M = 170
z = 1e-7
delta = 110e-9
t = 0,1e-3,1
initial = 0,0,1
"""

SCIPY_FREE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pathlib import Path
import neqatom
import neqatom.cli as cli

tmp = Path(sys.argv[1])
cfg = tmp / "two.cfg"
cfg.write_text(sys.argv[2])
assert cli.load_config(cfg).material_name == "sic"
for command in ("rates", "thermal-track"):
    code = cli.run_command([command, "--config", str(cfg), "--out", str(tmp / command)])
    assert code == 0, (command, code)
loaded = [m for m in sys.modules if m.startswith("scipy.")]
assert not loaded and sys.modules["scipy"] is None, loaded
# scans run sequentially: no thread pool on the import path
assert "concurrent.futures" not in sys.modules
"""

EVOLVE_LOADS_SCIPY = """
import sys
from pathlib import Path
import neqatom.cli as cli

tmp = Path(sys.argv[1])
cfg = tmp / "evolve.cfg"
cfg.write_text(sys.argv[2])
assert "scipy.linalg" not in sys.modules
code = cli.run_command(["evolve", "--config", str(cfg), "--out", str(tmp / "evolve.csv")])
assert code == 0, code
assert "scipy.linalg" in sys.modules
"""


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_import_load_config_rates_and_thermal_track_without_scipy(tmp_path):
    proc = run_python(SCIPY_FREE, tmp_path, TWO_HEIGHTS)
    assert proc.returncode == 0, proc.stderr
    for command in ("rates", "thermal-track"):
        lines = (tmp_path / command).read_text().splitlines()
        assert len([line for line in lines if not line.startswith("#")]) == 1 + 2


def test_evolve_is_the_command_that_loads_scipy_linalg(tmp_path):
    proc = run_python(EVOLVE_LOADS_SCIPY, tmp_path, EVOLVE)
    assert proc.returncode == 0, proc.stderr
