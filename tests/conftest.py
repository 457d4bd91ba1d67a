"""Tier-1 runs with one BLAS thread unless the environment sets another
count, as `hypcollar.cli` does: test modules import numpy before the CLI,
so the setting has to come before them."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
