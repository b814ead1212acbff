"""The benchmark's smoke run: every workload and gate at tiny sizes.

A library change that breaks what ``perfbench/`` uses fails here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def test_perfbench_smoke_passes():
    # Traced runs keep their span dumps by design; remove the ones this run adds.
    had_work = WORK.is_dir()
    before = set(WORK.glob("trace-*-seed0.json"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
    finally:
        for dump in set(WORK.glob("trace-*-seed0.json")) - before:
            dump.unlink()
        if not had_work and WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke": "passed"}'
