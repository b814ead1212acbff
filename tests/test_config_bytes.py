"""The shipped config's run writes the same bytes as recorded, on a host the table names.

The bytes of one config hold on one numpy/scipy build, one OpenBLAS kernel and
one set of numpy SIMD extensions: numpy's SIMD ``exp`` and OpenBLAS's GEMM
kernels round differently on other hosts. So the recorded digests are keyed by
``host_key()``. On a host with no entry the test prints the digests it got and
skips, so an entry can be added from its log.

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_config_bytes as t; print(t.host_key())"

prints this host's key.
"""
import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest
import scipy

from nmsparse.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "two_spirals_2of4.json"

# host_key() -> (metrics.csv, checkpoint.maxq) SHA-256; the run takes about 1 s on a 2-core SkylakeX host
RUN_DIGESTS = {
    ("2.4.6", "1.17.1", "SkylakeX", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")): (
        "78461c2780071c8765b1e3d4e6ee4816d76e6aab7a72d4a38b9234a0c9f29e13",
        "da2cf763602413e9df6314f36f73136bb61b61dba6f39496f428b8b5b4dae68d",
    ),
}


def openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def host_key() -> tuple:
    """numpy and scipy versions, OpenBLAS kernel and numpy's found SIMD extensions."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return np.__version__, scipy.__version__, openblas_core(), tuple(found)


def test_shipped_config_run_writes_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    # run from tmp_path so the relative out_dir stored in the checkpoint is the shipped one
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(CONFIG)]) == 0
    out = tmp_path / "runs" / "two_spirals_2of4"
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("metrics.csv", "checkpoint.maxq"))
    key = host_key()
    if key not in RUN_DIGESTS:
        with capsys.disabled():
            print(f"\nno recorded digests for host {key}; this run wrote {got}")
        pytest.skip(f"no recorded digests for host {key}")
    assert got == RUN_DIGESTS[key]
