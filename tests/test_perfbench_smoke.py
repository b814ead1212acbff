"""The benchmark's smoke run: every workload and gate at tiny sizes.

A library change that breaks what ``perfbench/`` uses fails here, and so
does one that stops calling a function the tracer times by name.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = {"train_mlp_wide", "train_cnn_idx", "deploy_nmz"}
# Every workload trains a masked model, so each of these spans must be timed.
TRACED_NONZERO = (
    "masks.hard_ms",
    "masks.filter_scores_ms",
    "masks.kernel_scores_ms",
    "masks.soft_ms",
    "masks.calls",
    "training.update_ms",
)


def traced_metrics(stdout: str) -> dict[str, dict[str, float]]:
    """Metric values of each ``== <workload> (traced): …`` section of the report."""
    sections: dict[str, dict[str, float]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            name, mode = line[3:].split()[:2]
            current = sections.setdefault(name, {}) if mode == "(traced):" else None
        elif current is not None and line.endswith("is better)"):
            metric, value = line.split()[:2]
            current[metric] = float(value)
    return sections


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
    sections = traced_metrics(proc.stdout)
    assert set(sections) == WORKLOADS
    for name, values in sections.items():
        for metric in TRACED_NONZERO:
            assert values[metric] > 0, (name, metric)
