"""One BLAS thread for the test run, as perfbench/run.py pins for the benchmark.

The package works on small dense matrices, where threaded BLAS only adds
noise: on two shared cores the 2n x 2n zheevd behind duality_map at n = 40
took several times longer under two OpenBLAS threads, and varied from run
to run.  This file loads before any test module imports numpy; a thread
count already set in the environment is kept.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
