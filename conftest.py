"""Pin BLAS to one thread for the test suite, before numpy is imported.

A multithreaded dgetri is several times slower than a single thread at
the sizes the tests invert (n=256), and the benchmark pins one thread as
well. A value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
