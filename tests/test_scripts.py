"""The scripts under scripts/, run end to end as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_full_verification_writes_four_passing_reports(tmp_path):
    # from a fresh working directory, with the package found by an absolute path
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_full_verification.py")],
                            cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    names = ["verify_anderson-samuels.json", "verify_appendix.json", "verify_main.json",
             "verify_proposition.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    assert all(json.loads((tmp_path / name).read_text())["passed"] for name in names)
    assert result.stdout.count("-> exit 0 in") == 4


def test_sweep_digest_prints_the_pinned_digest():
    # any byte that moves in verify main's stdout or report moves the digest
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_digest.py")],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stdout, result.stderr) == (0, (
        "2713246b7c2b77c568c1fc45160dafd5151aa93c4b0f4c2e2952e6923506d561  (12 runs)\n"), "")


def test_query_digest_prints_the_pinned_digest():
    # any byte that moves in the stdout or stderr of check or tail on the
    # benchmark's queries and the edge inputs moves the digest
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "query_digest.py")],
                            capture_output=True, text=True, timeout=300)
    assert (result.returncode, result.stdout, result.stderr) == (0, (
        "a8813176c63ba7087ca4200201eb71adbe3574e77930aeb458927d634c377b06  (1654 runs)\n"), "")
