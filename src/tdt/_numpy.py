"""numpy, loaded with one OpenBLAS thread: every tdt module imports ``np`` from here.

tdt makes no BLAS calls (its matrix products are int64), so an OpenBLAS worker
thread would only spin at load.  OpenBLAS reads the variable once, when numpy
loads; removing it again leaves the environment that parsers inherit unchanged.
A value the user set is kept, and nothing changes if numpy is already loaded.
"""

import os

if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

np = numpy
