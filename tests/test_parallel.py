import threading
import time

import pytest

from nmsparse import parallel


def test_both_returns_the_worker_result_then_the_callers_from_two_threads():
    here = threading.get_ident()
    theirs, mine = parallel.both(threading.get_ident, threading.get_ident)
    assert mine == here and theirs != here
    assert parallel.both(lambda: "worker", lambda: "caller") == ("worker", "caller")


def test_a_caller_error_wins_and_is_raised_after_the_worker_finishes():
    finished = threading.Event()

    def on_worker():
        time.sleep(0.05)
        finished.set()
        raise KeyError("worker")

    def here():
        raise ValueError("caller")

    with pytest.raises(ValueError, match="caller"):
        parallel.both(on_worker, here)
    assert finished.is_set()
    with pytest.raises(KeyError, match="worker"):  # alone, the worker's error propagates
        parallel.both(on_worker, lambda: None)


@pytest.mark.parametrize("caller_fails", [False, True])
def test_inline_runs_the_callers_callable_first_on_this_thread(caller_fails):
    calls = []

    def on_worker():
        calls.append(("worker", threading.get_ident()))
        return "worker"

    def here():
        calls.append(("caller", threading.get_ident()))
        if caller_fails:
            raise ValueError("caller")
        return "caller"

    if caller_fails:
        with pytest.raises(ValueError, match="caller"):
            parallel.both(on_worker, here, inline=True)
        assert calls == [("caller", threading.get_ident())]  # the worker's callable never ran
    else:
        assert parallel.both(on_worker, here, inline=True) == ("worker", "caller")
        assert calls == [("caller", threading.get_ident()), ("worker", threading.get_ident())]
