import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

# Allow `import oracles` from any test module regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).resolve().parent))


class TracedMemory:
    """Traced bytes above a base: `rebase()` moves the base to the bytes held
    now and restarts the peak there; calling returns (current, peak)."""

    def rebase(self):
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]

    def __call__(self):
        current, peak = tracemalloc.get_traced_memory()
        return current - self.base, peak - self.base


@pytest.fixture
def traced_memory():
    """tracemalloc on and the cycle collector off for the test, so that only
    reference counting frees memory; the base is the bytes held at start."""
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        traced = TracedMemory()
        traced.rebase()
        yield traced
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
