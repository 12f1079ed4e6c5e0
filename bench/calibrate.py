"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared machine the speed of every process drifts by a quarter or more
over minutes, far more than the changes the benchmark must resolve.  The
kernel is a fixed amount of the work the workloads do -- Jacobi-CG
iterations on a sparse Poisson matrix plus Python-level bookkeeping -- and
uses numpy and scipy only, so no change to plasthom moves it.  ``run.py``
times it between the calls of a run and reports time metrics rescaled to a
machine on which the kernel takes REFERENCE_SECONDS.
"""

import time

import numpy as np
import scipy.sparse as sp

# the kernel's median duration on the 2-vCPU machine the bounds were set on
REFERENCE_SECONDS = 0.02


class ReferenceKernel:
    """Calling it runs the kernel once and returns its wall seconds."""

    def __init__(self, n=64, iterations=300):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.A = (sp.kron(eye, line) + sp.kron(line, eye)).tocsr()
        self.b = np.ones(n * n)
        self.iterations = iterations

    def __call__(self):
        start = time.perf_counter()
        A, b = self.A, self.b
        inv_diag = 1.0 / A.diagonal()
        x = np.zeros_like(b)
        r = b.copy()
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        for _ in range(self.iterations):
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
            np.linalg.norm(r)
        tally = {}
        for i in range(20000):
            tally[i % 97] = tally.get(i % 97, 0) + i
        return time.perf_counter() - start
