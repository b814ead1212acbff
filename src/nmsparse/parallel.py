"""The one worker thread that ``masks.build_masks`` and ``training.sr_ste_step``
hand part of their numpy work to, and the kernels' worker count.

``perfbench/run.py`` stamps ``max_workers()`` into each run's environment
record as ``spmm_workers``.
"""
from concurrent.futures import Future, ThreadPoolExecutor

_WORKER = ThreadPoolExecutor(max_workers=1)  # starts its thread on the first submit


def submit(fn, /, *args) -> Future:
    """``fn(*args)`` on the worker thread, as a future the caller must read."""
    return _WORKER.submit(fn, *args)


def max_workers() -> int:
    """Number of threads the sparse kernels use: always 1."""
    return 1
