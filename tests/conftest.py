import tracemalloc

import numpy as np
import pytest


def _traced_peak(fn, *args):
    """(fn(*args), the peak bytes traced above the memory in use at the
    call) under tracemalloc."""
    tracemalloc.start()
    try:
        # numpy reports its buffers to tracemalloc, or every bound is vacuous
        probe = np.empty(1 << 16, dtype=np.complex128)
        assert tracemalloc.get_traced_memory()[1] >= probe.nbytes
        del probe
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
