import concurrent.futures

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an in-process stand-in that starts no
    process; the returned list records the max_workers of each pool."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return opened
