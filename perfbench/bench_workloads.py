"""The three benchmark workloads: set-up, timed operation, and output check.

A workload instance owns its state.  ``setup()`` is the timed set-up,
``verify()`` builds the ground truth the checks compare against (untimed),
``op(i)`` is the i-th timed operation and ``check(i, out)`` checks its
output and returns an :class:`OpReport`.  Calls run in whole rounds of
``round`` calls, which visit every instance equally often and make
``ops_per_round`` ops in the metrics: one call is one op, except on the
CLI workload, where three calls (its three verbs) make one op.

Instance seeds come from the benchmark's ``--seed``: a workload that needs
a pool of instances uses ``seed + 1000*j`` for ``j = 0, 1, ...``, so the
first instance is always the one named by the seed itself.
"""

import contextlib
import io
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import bench_checks as checks

METHODS = ("BFoRB", "BRFoB", "FRDR")

#: Stepsizes are this fraction of each method's guaranteed bound.
LAMBDA_FRACTION = 0.9

#: Iteration budget of a solve to tolerance; a run that reaches it fails.
SOLVE_BUDGET = 50_000
SOLVE_TOL = 1e-10

#: A tolerance no nonzero step meets: runs take a fixed number of steps.
FIXED_TOL = 1e-300


@dataclass
class OpReport:
    """Check result of one op: failures, work units and extra counters."""

    errors: list
    units: int
    unit_wall: float = None     # seconds the units are counted over
    extra: dict = field(default_factory=dict)


def stepsizes(sk, problem):
    """{method: (lam, gamma)} at LAMBDA_FRACTION of each bound; gamma = 1/L."""
    L = problem.B.lipschitz
    out = {}
    for method in METHODS:
        gamma = 1.0 / L if method == "FRDR" else None
        out[method] = (LAMBDA_FRACTION * sk.max_stepsize(method, L, gamma),
                       gamma)
    return out


def prepare(problem, lams):
    """Factorize for the stepsizes, as run() would on its first call."""
    for lam, gamma in lams.values():
        problem.prepare(lam)
        if gamma is not None:
            problem.C.prepare(gamma)


class SolveAffine:
    """Passes of BFoRB, BRFoB and FRDR from z0 = ones to tol = 1e-10.

    Affine d=50, skew 0.8, a pool of 16 instances taken in turn: the
    per-iteration cost here is Python and wrapper overhead.
    """

    name = "solve-affine-d50"
    round = ops_per_round = 16

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.seeds = [seed + 1000 * j for j in range(self.round)]
        self.items = []

    def setup(self):
        self.items = []
        for seed in self.seeds:
            inst = self.sk.make_affine_instance(50, seed, 0.8)
            problem = inst.triple()
            lams = stepsizes(self.sk, problem)
            prepare(problem, lams)
            self.items.append((inst, problem, lams))

    def problems(self):
        return [problem for _, problem, _ in self.items]

    def verify(self):
        self.truth_errors = []
        for inst, _, _ in self.items:
            self.truth_errors += checks.check_affine_solution(inst)

    def op(self, i):
        _, problem, lams = self.items[i % len(self.items)]
        traces, wall = [], 0.0
        for method in METHODS:
            lam, gamma = lams[method]
            config = self.sk.SolverConfig(
                method=method, lam=lam, z0=np.ones(problem.dim),
                max_iters=SOLVE_BUDGET, tol=SOLVE_TOL, gamma=gamma)
            t0 = perf_counter()
            traces.append(self.sk.run(problem, config))
            wall += perf_counter() - t0
        return traces, wall

    def check(self, i, out):
        traces, wall = out
        j = i % len(self.items)
        x_star = self.items[j][0].x_star
        errs = list(self.truth_errors)
        for trace in traces:
            label = f"seed {self.seeds[j]} {trace.method.value}"
            errs += checks.check_trace(label, trace, SOLVE_BUDGET)
            errs += checks.check_close(label, trace.x_final, x_star)
        return OpReport(errs, sum(t.iterations for t in traces), wall,
                        {"iterations": {self.seeds[j]: {
                            t.method.value: t.iterations for t in traces}}})


class CertifyAffine:
    """certify_trace over recorded BFoRB and BRFoB traces, affine d=50."""

    name = "certify-affine-d50"
    round = ops_per_round = 1
    length = 5000
    methods = ("BFoRB", "BRFoB")

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.seed = seed
        self.seeds = [seed]

    def setup(self):
        sk = self.sk
        self.inst = sk.make_affine_instance(50, self.seed, 0.8)
        self.problem = self.inst.triple()
        lams = stepsizes(sk, self.problem)
        prepare(self.problem, {m: lams[m] for m in self.methods})
        self.traces = [
            sk.run(self.problem, sk.SolverConfig(
                method=m, lam=lams[m][0], z0=np.ones(self.problem.dim),
                max_iters=self.length, tol=FIXED_TOL), record_history=True)
            for m in self.methods]

    def problems(self):
        return [self.problem]

    def verify(self):
        errs = checks.check_affine_solution(self.inst)
        self.samples = []
        for trace in self.traces:
            label = f"seed {self.seed} {trace.method.value} trace"
            errs += checks.check_trace(label, trace, self.length, True)
            ks = sorted({k for k in (3, 10, 100, 1000)
                         if k < trace.iterations})
            self.samples.append(checks.certificate_samples(
                self.sk, self.problem, trace, ks))
        self.truth_errors = errs

    def op(self, i):
        return [self.sk.certify_trace(self.problem, t) for t in self.traces]

    def check(self, i, reports):
        errs = list(self.truth_errors)
        z0 = np.ones(self.problem.dim)
        for trace, report, samples in zip(self.traces, reports, self.samples):
            label = f"seed {self.seed} {trace.method.value} certificate"
            errs += checks.check_certificate(label, report, trace, z0)
            errs += checks.check_certificate_samples(label, report, samples)
        return OpReport(errs, sum(r.summary["k_evaluated"] for r in reports))


#: The documented example config (README): affine d=50, BFoRB and BRFoB
#: with certificates, and the DR flow at h_ode = 0.01 up to T = 200.
CLI_METHODS = ("BFoRB", "BRFoB")
CLI_H_ODE = 0.01
CLI_T = 200.0
CLI_GRID = (0.5, 0.9)

CLI_CONFIG = f"""\
[problem]
kind = affine
dim = 50
seed = {{seed}}
skew_fraction = 0.8

[run]
methods = {", ".join(CLI_METHODS)}
lambda_fraction = 0.9
max_iters = {SOLVE_BUDGET}
tol = 1e-10
certify = true

[ode]
lambda = 0.1
h_ode = {CLI_H_ODE}
T = {CLI_T}
flow = dr
"""


class CliAffine:
    """The run, sweep and flow verbs through splitkit.cli.main, in process.

    Call ``i`` is one verb on one config: ``run``, ``sweep`` and ``flow``
    on the first config, then on the second; the three verbs on one config
    make one op.  A single verb is short enough for the reference kernel
    timed around it to track the host's speed.
    """

    name = "cli-affine-d50"
    configs = ops_per_round = 2
    verbs = ("run", "sweep", "flow")
    round = configs * len(verbs)

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.seeds = [seed + 1000 * j for j in range(self.configs)]
        self.workdir = workdir
        self.reference = {}

    def setup(self):
        """Write one config per pool seed, parse it and build its instance."""
        cli = self.sk.cli
        self.config_paths, self.instances = [], []
        os.makedirs(self.workdir, exist_ok=True)
        for seed in self.seeds:
            path = os.path.join(self.workdir, f"affine-s{seed}.cfg")
            text = CLI_CONFIG.format(seed=seed)
            with open(path, "w") as fh:
                fh.write(text)
            _, _, inst = cli.build_problem(cli.parse_config(text))
            self.config_paths.append(path)
            self.instances.append(inst)

    def problems(self):
        return []

    def verify(self):
        self.truth_errors = []
        for inst in self.instances:
            self.truth_errors += checks.check_affine_solution(inst)

    def argv(self, i):
        """Config index, verb, output directory and command line of call
        ``i``."""
        j = (i // len(self.verbs)) % self.configs
        verb = self.verbs[i % len(self.verbs)]
        out = os.path.join(self.workdir, f"op{i}-{verb}")
        argv = [verb, "--config", self.config_paths[j], "--out", out,
                "--quiet"]
        if verb == "sweep":
            argv += ["--grid", ",".join(map(str, CLI_GRID))]
        return j, verb, out, argv

    def op(self, i):
        """One verb into a fresh directory."""
        _, _, out, argv = self.argv(i)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = self.sk.cli.main(argv)
        return out, code, stderr.getvalue()

    def check(self, i, result):
        """Check the verb's outputs.  The work units are the solver
        iterations of run and sweep; flow has none."""
        out, code, stderr = result
        j, verb, _, _ = self.argv(i)
        label = f"seed {self.seeds[j]} call {i} {verb}"
        errs = list(self.truth_errors)
        if code != 0:
            errs.append(f"{label}: exited {code}: {stderr.strip()[:200]}")
        if not os.path.isdir(out):
            return OpReport(errs + [f"{label}: wrote no directory"], 0, 0.0)
        units = 0
        if verb == "run":
            verb_errs, units = checks.check_run_outputs(
                label, out, CLI_METHODS, self.instances[j].x_star)
        elif verb == "sweep":
            verb_errs, units = checks.check_sweep_outputs(
                label, out, CLI_METHODS, CLI_GRID)
        else:
            verb_errs = checks.check_flow_outputs(label, out, CLI_H_ODE,
                                                  CLI_T)
        hashes = checks.hash_tree(out)
        shutil.rmtree(out)
        errs += verb_errs + checks.check_artifacts(
            label, hashes, self.reference.get((j, verb)))
        self.reference.setdefault((j, verb), hashes)
        nbytes = sum(size for _, size in hashes.values())
        return OpReport(errs, units, None if units else 0.0,
                        extra={"bytes_written": nbytes})


WORKLOADS = {cls.name: cls for cls in (SolveAffine, CertifyAffine,
                                       CliAffine)}
