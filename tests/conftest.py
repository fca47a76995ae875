import os

# one BLAS/OpenMP thread per process, as in the benchmark: the matmuls here
# are small, and a pool of nproc threads per call only contends with other
# processes.  Set before numpy is first imported, which is when it counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
