from concurrent.futures import Future

import pytest

from dressed_cool import sweep


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools sweep.parallel_map asks for, in order.

    The pool is replaced by one that starts no process and runs each
    submitted chunk here, as the caller does: under fork every worker starts
    at the first submit, so a pool sized from the request alone would start
    that many processes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
    return sizes
