"""A fixed reference kernel that tracks the speed of the host.

On a shared machine the host runs the benchmark faster or slower by
20-40% from one minute to the next (see NOTES.md).  The benchmark times
this kernel before and after every op and reports op times in units of
the kernel's time, which cancels most of that drift.  The kernel uses no
splitkit code: it is a loop of the same kind of small dense operations
the solvers make at d=50, a matrix-vector product, an LU solve and a norm
per step.
"""

from time import perf_counter

import numpy as np
import scipy.linalg

DIM = 50
STEPS = 400


class Reference:
    """The reference kernel on fixed data; ``seconds()`` runs it once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((DIM, DIM)) / np.sqrt(DIM)
        self.M = M
        self.lu = scipy.linalg.lu_factor(np.eye(DIM) + M - M.T)
        self.x0 = rng.standard_normal(DIM)

    def seconds(self):
        """Wall time of one run of the kernel."""
        M, lu, x = self.M, self.lu, self.x0
        t0 = perf_counter()
        for _ in range(STEPS):
            x = scipy.linalg.lu_solve(lu, M @ x)
            x = x / np.linalg.norm(x)
        return perf_counter() - t0
