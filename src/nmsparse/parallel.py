"""The one worker thread that ``masks.build_masks``, ``training.sr_ste_step``
and ``sparse_format.spmm`` hand half of a job to, and its thread count, which
``perfbench/run.py`` stamps into each run's environment as ``spmm_workers``.
"""
from concurrent.futures import ThreadPoolExecutor

_WORKER = ThreadPoolExecutor(max_workers=1)  # starts its thread on the first submit


def both(on_worker, here, inline: bool = False) -> tuple:
    """``(on_worker(), here())``, ``on_worker`` on the worker thread while this one runs ``here``
    (with ``inline``, both here, ``here`` first); ``here``'s error wins, raised once the worker is done."""
    if inline:
        mine = here()
        return on_worker(), mine
    theirs = _WORKER.submit(on_worker)
    try:
        mine = here()
    finally:
        theirs.exception()  # waits; an error raised above wins over the worker's
    return theirs.result(), mine


def max_workers() -> int:
    """Threads a product of at least ``sparse_format.SPLIT_MIN_MULADDS`` multiply-adds runs on."""
    return 2
