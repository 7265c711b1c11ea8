"""Test-session set-up: one BLAS thread, set before numpy loads.

The matrices are tiny (width 32, about 96 tokens a batch), so a second
BLAS thread does no useful work: on a 2-CPU host it spins, and the
subset test of ``test_digest_artifacts.py``, which trains in-process, took
3.1-3.3 s against 2.0-2.7 s with one thread, with identical output bytes.
A value the environment already sets is kept.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(var, "1")
