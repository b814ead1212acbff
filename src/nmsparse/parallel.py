"""Worker count of the sparse kernels.

The kernels are single-threaded, and nothing in the library imports this
module. It is kept only because ``perfbench/run.py`` stamps ``max_workers()``
into each run's environment record as ``spmm_workers``.
"""


def max_workers() -> int:
    """Number of threads the kernels use: always 1."""
    return 1
