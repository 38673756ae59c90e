import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_train_state_bands_selects_four():
    result = run_script("train_state_bands.py", "--seed", "0")
    assert result.returncode == 0, result.stderr
    selected = [line for line in result.stdout.splitlines() if "<- selected" in line]
    assert [line.split()[0] for line in selected] == ["4"]


def test_reproduce_characteristics_runs():
    result = run_script("reproduce_characteristics.py")
    assert result.returncode == 0, result.stderr
    assert "piecewise_exp" in result.stdout
