"""nmsparse benchmark: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload train_mlp_wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload deploy_nmz --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from its
``src/``. The last line of stdout is the result JSON (``correct``,
``attempted``, ``failed``, ``metrics``): end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``. The line before it, prefixed
``REPORT``, holds the environment stamp, artifact digests, error rate and
self-time breakdowns. Scratch files live in ``.perfbench_work/`` and are
removed at exit, except the span dump of a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # fixed, and no higher than nproc, so runs do not depend on core count
WORKLOADS = ("train_mlp_wide", "train_cnn_idx", "deploy_nmz")

# name -> (unit, better); the order is the order of BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("1/s", "higher"),
    "train_final_accuracy": ("ratio", "higher"),
    "export_s_p90": ("s", "lower"),
    "load_s_p90": ("s", "lower"),
    "infer_cols_per_s": ("1/s", "higher"),
    "infer_batch_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nmsparse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads_in_use() -> str:
    """Ask numpy's OpenBLAS how many threads it runs, when that library is loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
        for lib in libs:
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(ctypes.CDLL(lib), symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, nmsparse_threads: str | None) -> dict:
    import numpy as np
    import scipy

    from nmsparse import parallel

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "NMSPARSE_THREADS": "unset" if nmsparse_threads is None else f"unset here (was {nmsparse_threads!r})",
        "spmm_workers": parallel.max_workers(),
        "load": "closed loop, 1 caller, 1 process",
        "workload": workload,
        "seed": seed,
    }


def pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(samples, ledger) -> dict[str, float]:
    """Stage and batch times are reported at p90 rather than p50: on a host whose
    neighbours switch our speed between two levels, the median follows the share
    of slow samples in a run while p90 stays in the slow level (see README)."""
    import pipeline

    batch = samples.batch_s
    return {
        "setup_s": pct(samples.setup_s, 50),
        "train_samples_per_s": pct(samples.train_rate, 50),
        "train_final_accuracy": pct(samples.accuracy, 50),
        "export_s_p90": pct(samples.export_s, 90),
        "load_s_p90": pct(samples.load_s, 90),
        "infer_cols_per_s": len(batch) * pipeline.SERVE_COLS / sum(batch) if batch else 0.0,
        "infer_batch_ms_p90": 1e3 * pct(batch, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
    }


def medians(samples) -> dict[str, float]:
    """Medians of the sampled stage times, printed beside the p90s in the REPORT line."""
    out = {
        "export_s_p50": pct(samples.export_s, 50),
        "load_s_p50": pct(samples.load_s, 50),
        "infer_batch_ms_p50": 1e3 * pct(samples.batch_s, 50),
    }
    if samples.conv_s:
        out["conv_ms_p50"] = 1e3 * pct(samples.conv_s, 50)
    return out


def run_workload(w, seed: int, seconds: float, trace: bool, nmsparse_threads: str | None) -> tuple[dict, dict]:
    # pipeline and tracing load numpy, so they are imported only after main() fixes the BLAS threads
    import pipeline
    import tracing

    base_doc = json.loads((ROOT / pipeline.BASE_CONFIG).read_text())
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    samples, ledger, tracer = pipeline.Samples(), pipeline.Ledger(), tracing.Tracer()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for _ in range(w.setup_reps):
            t0 = time.perf_counter()
            inputs = pipeline.setup(w, base_doc, seed)
            samples.setup_s.append(time.perf_counter() - t0)
        pipeline.measure(w, inputs, seconds, tracer, trace, ledger, samples)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "env": environment(w.name, seed, nmsparse_threads),
        "mode": "traced" if trace else "untraced",
        "jobs": len(samples.job_s),
        "served_batches": len(samples.batch_s),
        "setup_reps": len(samples.setup_s),
        "digests": samples.digests[0] if samples.digests else {},
        "digests_repeat": len({json.dumps(d, sort_keys=True) for d in samples.digests}) == 1,
        "error_rate": ledger.failed / max(ledger.attempted, 1),
        "errors": ledger.errors[:10],
    }
    report["medians"] = medians(samples)
    if trace:
        walls = {flag: [s for traced, s in samples.job_s if traced == flag] for flag in (False, True)}
        overhead = 100.0 * (median(walls[True]) / median(walls[False]) - 1.0) if all(walls.values()) else 0.0
        values = tracing.per_layer_metrics(tracer, samples.gemm_s, overhead)
        units = tracing.PER_LAYER
        report.update(tracing.breakdowns(tracer))
        span_file = WORK / f"trace-{w.name}-seed{seed}.json"
        tracer.write(span_file)
        report["span_file"] = str(span_file.relative_to(ROOT))
    else:
        values = end_to_end(samples, ledger)
        units = END_TO_END
    report["metrics"] = {k: {"value": v, "unit": units[k][0], "better": units[k][1]} for k, v in values.items()}
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in values.items()},
    }
    return result, report


def print_report(name: str, result: dict, report: dict) -> None:
    print(f"== {name} ({report['mode']}): correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} error_rate={report['error_rate']:.4f} jobs={report['jobs']}")
    for metric, m in report["metrics"].items():
        print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']:8s} ({m['better']} is better)")
    for metric, value in report["medians"].items():
        print(f"  {metric:32s} {value:>16.6g} (median, REPORT only)")
    for key in ("step_self_share", "job_self_share"):
        if key in report:
            print(f"  {key}: {report[key]}")
    print(f"  digests: {report['digests']} repeat={report['digests_repeat']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, traced and not, at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    missing = [p for p in ("src/nmsparse/__init__.py", "configs/two_spirals_2of4.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an nmsparse source checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    # Fixed before numpy loads: BLAS reads these once.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    nmsparse_threads = os.environ.pop("NMSPARSE_THREADS", None)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import nmsparse

    if Path(nmsparse.__file__).resolve().parent != ROOT / "src" / "nmsparse":
        print(f"error: imported nmsparse from {nmsparse.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import pipeline

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result, report = run_workload(pipeline.SMOKE[name], args.seed, 0.0, trace, nmsparse_threads)
                print_report(name, result, report)
                ok = ok and result["correct"]
        print(json.dumps({"smoke": "passed" if ok else "failed"}))
        return 0 if ok else 1

    result, report = run_workload(pipeline.FULL[args.workload], args.seed, args.seconds, bool(args.trace), nmsparse_threads)
    print_report(args.workload, result, report)
    print("REPORT " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
