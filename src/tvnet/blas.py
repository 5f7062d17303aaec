"""One BLAS thread while a pipeline stage runs.

The stages' matrix products are small (n and k at most a few tens), so a
second OpenBLAS thread barely pays: on a 2-core Intel Xeon a basis fit at
n=10 is about 15 % faster with one thread, and one at n=40 about 7 %
slower. A threaded product waits for its slowest thread, though, so with
one other busy process on that machine the desk basis-supervised stage
took 2.4x as long with two threads, and its time varied from run to run. Results do not depend on the thread count
(tests/test_blas_threads.py), so limiting it changes no output byte.

The limit is set through the thread controls of every OpenBLAS the process
has loaded, found in /proc/self/maps; where there is none (another BLAS,
another platform) `single_thread` does nothing.
"""

import contextlib
import ctypes
import functools
import os

# (prefix, suffix) of the thread controls in plain, 64-bit-integer and
# SciPy/NumPy-wheel OpenBLAS builds
_NAMES = (("openblas", ""), ("openblas", "64_"), ("scipy_openblas", "64_"),
          ("scipy_openblas", ""))


@functools.lru_cache(maxsize=None)
def _controls():
    """(get, set) thread-count functions of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths
                       if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def single_thread():
    """Run the block with one BLAS thread; the previous count is restored
    on the way out."""
    controls = _controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
