"""Pin the BLAS libraries to one thread for every test run from this checkout.

On a 2-core machine a second OpenBLAS thread spins against the interpreter:
the full suite took 182 s with OpenBLAS's default two threads against 94 s
with one.  The variables must be set before numpy is first imported, which
this root conftest.py does since pytest loads it before any test module.
An explicit setting in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
