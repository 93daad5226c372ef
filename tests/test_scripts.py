import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_census(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bijection_census.py"), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


@pytest.mark.parametrize("value", ["0", "-5", "65", "200", "four"])
def test_census_refuses_orders_outside_the_cli_range(value):
    result = run_census("--max-order", value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --max-order" in result.stderr
    assert "Traceback" not in result.stderr


def test_census_runs_a_small_order():
    result = run_census("--max-order", "4")
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    # C1, C2, C3, C2xC2 and C4 have 1 + 2 + 2 + 5 + 3 subgroups
    assert [row.split()[0] for row in rows[1:6]] == ["C1", "C2", "C3", "C2xC2", "C4"]
    assert rows[-1].startswith("13 subgroups verified in ")
