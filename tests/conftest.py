# keeps the tests directory importable so suites can share oracle helpers
import os

# one BLAS thread, as the benchmark runs: the optimizer's 9x9 LAPACK calls
# pay OpenBLAS's thread hand-off otherwise, which pushed criterion 5 past its
# wall-clock bound while another process kept the second CPU busy. numpy is
# not imported yet when pytest loads this file; a value set in the
# environment wins
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
