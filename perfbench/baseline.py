"""Reproduce the ROADMAP "Baseline" figures.

Usage, from the repository root::

    python3 perfbench/baseline.py

Prints run() wall time per iteration for BFoRB and BRFoB on affine d=50
and d=400 and for BFoRB on saddle 200x300 (instance seed 1, 2,000
iterations at tol = 1e-30), certify_trace on 20,000 recorded BFoRB
iterations at d=50, and the wall time of a ``splitkit run`` subprocess
with ``certify = true`` on affine d=50 (BFoRB + BRFoB), import included.  BLAS runs on one
thread, as in the benchmark.
"""

import os
import subprocess
import sys
import tempfile
import time

from run import THREAD_VARS

for _var in THREAD_VARS:            # before numpy is first imported
    os.environ[_var] = "1"

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import splitkit as sk  # noqa: E402

SEED = 1
ITERS = 2000

CLI_CONFIG = """\
[problem]
kind = affine
dim = 50
seed = {seed}
skew_fraction = 0.8

[run]
methods = BFoRB, BRFoB
lambda_fraction = 0.9
max_iters = 50000
tol = 1e-10
certify = true
"""


def per_iteration_us(problem, method, iters, record_history=False):
    lam = 0.9 * sk.max_stepsize(method, problem.B.lipschitz)
    config = sk.SolverConfig(method=method, lam=lam, z0=np.ones(problem.dim),
                             max_iters=iters, tol=1e-30)
    problem.prepare(lam)
    t0 = time.perf_counter()
    trace = sk.run(problem, config, record_history=record_history)
    wall = time.perf_counter() - t0
    return 1e6 * wall / trace.iterations, trace


def main():
    for dim in (50, 400):
        problem = sk.make_affine_instance(dim, SEED, 0.8).triple()
        for method in ("BFoRB", "BRFoB"):
            us, _ = per_iteration_us(problem, method, ITERS)
            print(f"run() {method} affine d={dim}: {us:.0f} us/iteration")
    saddle = sk.make_saddle_instance(200, 300, SEED, 0.1, 1.0).triple()
    us, _ = per_iteration_us(saddle, "BFoRB", ITERS)
    print(f"run() BFoRB saddle 200x300: {us:.0f} us/iteration")

    problem = sk.make_affine_instance(50, SEED, 0.8).triple()
    _, trace = per_iteration_us(problem, "BFoRB", 20000, record_history=True)
    t0 = time.perf_counter()
    sk.certify_trace(problem, trace)
    print(f"certify_trace, {trace.iterations} BFoRB iterations at d=50: "
          f"{time.perf_counter() - t0:.2f} s")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as fh:
            fh.write(CLI_CONFIG.format(seed=SEED))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "splitkit.cli", "run",
                        "--config", config, "--out", tmp, "--quiet"],
                       env=env, check=True, timeout=600)
        print(f"splitkit run, certify = true, affine d=50: "
              f"{time.perf_counter() - t0:.2f} s wall including import")


if __name__ == "__main__":
    main()
