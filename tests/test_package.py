import os
import subprocess
import sys
from pathlib import Path

import lipext

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in lipext.__all__ if not hasattr(lipext, name)]
    assert missing == []


def test_table1_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "table1_demo.py"), "--repeats", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("ranking of unindexed rows:") == 2
    assert "Montreal" in done.stdout and "Toronto" in done.stdout
