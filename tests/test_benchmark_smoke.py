"""The benchmark command runs on the package as it is: schema only, no timing gate."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

END_TO_END = {"setup_s": "s", "solve_s": "s", "max_k": "k", "peak_rss_mb": "MB"}


@pytest.fixture(scope="module")
def checkout_copy(tmp_path_factory):
    """src/ and evenbench/ copied out, so the runs write their results there."""
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "evenbench"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize("workload", ["recursion", "trees-odd", "trees-rational"])
def test_workload_smoke_run(workload, checkout_copy):
    proc = subprocess.run(
        [sys.executable, str(Path("evenbench") / "run.py"), "--workload", workload,
         "--smoke", "--trace", "0", "--seed", "3", "--seconds", "0.2"],
        cwd=checkout_copy, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == END_TO_END
