"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Shared runs (the dim-50 convergence campaigns) live in
module-scoped fixtures so each campaign executes once.
"""

import os
import time

import numpy as np
import pytest

from splitkit import (AffineOperator, ProblemTriple, ScaledL1, SolverConfig,
                      ZeroOperator, certify_trace, make_affine_instance,
                      make_saddle_instance, max_stepsize, omega_residual,
                      reference_point, run, simulate_dr_flow, simulate_ppa)
from splitkit.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main

from oracles import lipschitz_check

SEEDS = tuple(range(1, 11))
DIM = 50
SKEW = 0.8


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{label}]: {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def instances():
    out = {}
    for seed in SEEDS:
        inst = make_affine_instance(DIM, seed, SKEW)
        out[seed] = (inst, inst.triple())
    return out


@pytest.fixture(scope="module")
def bforb_runs(instances):
    traces, t0 = {}, time.perf_counter()
    for seed, (inst, problem) in instances.items():
        lam = 0.9 / (8.0 * problem.B.lipschitz)
        traces[seed] = run(problem, SolverConfig(
            method="BFoRB", lam=lam, z0=np.ones(DIM), max_iters=50000,
            tol=1e-9), record_history=True)
    return traces, time.perf_counter() - t0


@pytest.fixture(scope="module")
def brfob_runs(instances):
    traces = {}
    for seed, (inst, problem) in instances.items():
        lam = 0.9 / (22.0 * problem.B.lipschitz)
        traces[seed] = run(problem, SolverConfig(
            method="BRFoB", lam=lam, z0=np.ones(DIM), max_iters=200000,
            tol=1e-9), record_history=True)
    return traces


def _wild_run(problem, method):
    """Stepsize far beyond any guarantee: lam = 2/L, up to 1001 iterations."""
    lam = 2.0 / problem.B.lipschitz
    return run(problem, SolverConfig(
        method=method, lam=lam, z0=np.ones(DIM), max_iters=1001, tol=1e-300),
        record_history=True)


# -------------------------------------------------------------- criterion 1

def test_criterion_1_bforb_convergence(instances, bforb_runs):
    traces, wall = bforb_runs
    failures = []
    for seed, (inst, problem) in instances.items():
        trace = traces[seed]
        tol = 1e-6 * (1 + np.linalg.norm(inst.x_star))
        dists = np.asarray(trace.dist_to_xstar)
        if not (dists <= tol).any():
            failures.append(f"seed {seed}: never within {tol:.2e}")
        if trace.iterations > 50000:
            failures.append(f"seed {seed}: {trace.iterations} iterations")
    if wall >= 10.0:
        failures.append(f"runtime {wall:.2f}s >= 10s")
    _report(1, "BFoRB convergence, 10 seeds", failures)


# -------------------------------------------------------------- criterion 2

def test_criterion_2_brfob_convergence(instances, brfob_runs):
    failures = []
    for seed, (inst, problem) in instances.items():
        trace = brfob_runs[seed]
        tol = 1e-6 * (1 + np.linalg.norm(inst.x_star))
        dists = np.asarray(trace.dist_to_xstar)
        if not (dists <= tol).any():
            failures.append(f"seed {seed}: never within {tol:.2e}")
        if trace.iterations > 200000:
            failures.append(f"seed {seed}: {trace.iterations} iterations")
    _report(2, "BRFoB convergence, 10 seeds", failures)


# -------------------------------------------------------------- criterion 3

def test_criterion_3_lemma_bforb_certificate(instances, bforb_runs):
    traces, _ = bforb_runs
    failures = []
    slack_tol = 1e-9 * (1 + DIM)                 # |z0|^2 = dim for ones
    for seed, (inst, problem) in instances.items():
        report = certify_trace(problem, traces[seed], kmax=1000)
        if report.lemma_slacks.min() < -slack_tol:
            failures.append(
                f"seed {seed}: min slack {report.lemma_slacks.min():.2e}")
        wild = certify_trace(problem, _wild_run(problem, "BFoRB"), kmax=1000)
        if wild.lemma_slacks.min() < -slack_tol:
            failures.append(
                f"seed {seed} lam=2/L: min slack "
                f"{wild.lemma_slacks.min():.2e}")
    _report(3, "BFoRB per-iteration inequality", failures)


# -------------------------------------------------------------- criterion 4

def test_criterion_4_lemma_brfob_certificate(instances, brfob_runs):
    failures = []
    slack_tol = 1e-9 * (1 + DIM)
    for seed, (inst, problem) in instances.items():
        report = certify_trace(problem, brfob_runs[seed], kmax=1000)
        if report.lemma_slacks.min() < -slack_tol:
            failures.append(
                f"seed {seed}: min slack {report.lemma_slacks.min():.2e}")
        # The k = 0 instance of the inequality references y_{-3} (backfilled)
        # and a resolvent inclusion that an arbitrary initial y_{-1} does not
        # satisfy, so far beyond the stepsize bound the warm-up indices are
        # excluded, as the certificate summary prescribes; from k >= 1 the
        # inequality needs monotonicity only and must hold even at lam = 2/L.
        wild = certify_trace(problem, _wild_run(problem, "BRFoB"), kmax=1000)
        if wild.summary["min_lemma_slack"] < -slack_tol:
            failures.append(
                f"seed {seed} lam=2/L: min slack "
                f"{wild.summary['min_lemma_slack']:.2e}")
        if wild.lemma_slacks[1:].min() < -slack_tol:
            failures.append(
                f"seed {seed} lam=2/L: slack violated at k >= 1: "
                f"{wild.lemma_slacks[1:].min():.2e}")
    _report(4, "BRFoB per-iteration inequality", failures)


# -------------------------------------------------------------- criterion 5

def test_criterion_5_lyapunov_descent(instances, bforb_runs, brfob_runs):
    traces_b, _ = bforb_runs
    failures = []
    for seed, (inst, problem) in instances.items():
        L = problem.B.lipschitz
        for label, trace, coeff in (("BFoRB", traces_b[seed], 0.75),
                                    ("BRFoB", brfob_runs[seed], 6.0 / 11.0)):
            report = certify_trace(problem, trace)
            tol = 1e-9 * (1 + report.summary["phi0"])
            eps_expect = (0.25 - 2 * trace.lam * L if label == "BFoRB"
                          else 1.0 - 22 * trace.lam * L)
            if abs(report.epsilon - eps_expect) > 1e-15:
                failures.append(f"seed {seed} {label}: wrong epsilon")
            if report.descent_violations.max() > tol:
                failures.append(
                    f"seed {seed} {label}: descent violation "
                    f"{report.descent_violations.max():.2e}")
            if report.telescope_violations.max() > tol:
                failures.append(
                    f"seed {seed} {label}: telescope violation "
                    f"{report.telescope_violations.max():.2e}")
            ref = reference_point(problem, trace.lam)
            for k in range(1, len(report.phi)):
                bound = coeff * float(
                    np.dot(trace.zs[k] - ref.z, trace.zs[k] - ref.z))
                if report.phi[k] < bound - tol:
                    failures.append(f"seed {seed} {label}: phi[{k}] below "
                                    f"{coeff:.3f}|z_k - z|^2")
                    break
            if (report.phi < -tol).any():
                failures.append(f"seed {seed} {label}: negative phi")
    _report(5, "Lyapunov descent + lower bounds", failures)


# -------------------------------------------------------------- criterion 6

def test_criterion_6_reduction_equivalences():
    failures = []
    r = np.random.Generator(np.random.Philox(1234))

    # (a) B = 0: all DR-family methods produce bit-identical z sequences
    dim = 12
    H1, H2 = r.uniform(-1, 1, (dim, dim)), r.uniform(-1, 1, (dim, dim))
    problem = ProblemTriple(
        A=AffineOperator(H1 @ H1.T / dim, r.uniform(-1, 1, dim)),
        B=ZeroOperator(dim),
        C=AffineOperator(H2 @ H2.T / dim, r.uniform(-1, 1, dim)))
    z0 = r.uniform(-1, 1, dim)
    zs = {}
    for method in ("DR", "BFoRB", "BRFoB", "DavisYin"):
        zs[method] = run(problem, SolverConfig(
            method=method, lam=0.4, z0=z0, max_iters=200, tol=1e-300),
            record_history=True).zs
    for method in ("BFoRB", "BRFoB", "DavisYin"):
        if len(zs[method]) != 201 or not all(
                np.array_equal(a, b) for a, b in zip(zs["DR"], zs[method])):
            failures.append(f"(a) {method} not bit-identical to DR")

    # (b) A = 0 with matched history: three-operator methods collapse to
    # their two-operator ancestors
    dim = 8
    G, H = r.uniform(-1, 1, (dim, dim)), r.uniform(-1, 1, (dim, dim))
    B = AffineOperator(0.8 * 0.5 * (G - G.T) + 0.2 * H @ H.T / dim,
                       r.uniform(-1, 1, dim))
    C = AffineOperator(np.eye(dim), r.uniform(-1, 1, dim))
    two_op = ProblemTriple(A=ZeroOperator(dim), B=B, C=C)
    z0 = r.uniform(-1, 1, dim)
    z_minus1 = r.uniform(-1, 1, dim)
    for big, small, frac in (("BFoRB", "FoRB", 0.9), ("BRFoB", "RFoB", 0.25)):
        lam = frac * max_stepsize("FoRB", B.lipschitz)
        t3 = run(two_op, SolverConfig(method=big, lam=lam, z0=z0,
                                      y_init=(z0, z_minus1), max_iters=200,
                                      tol=1e-300), record_history=True)
        t2 = run(two_op, SolverConfig(method=small, lam=lam, z0=z0, h=1.0,
                                      y_init=(z0, z_minus1), max_iters=200,
                                      tol=1e-300), record_history=True)
        drift = max(np.linalg.norm(zk - xk)
                    for zk, xk in zip(t3.zs, t2.xs))
        if drift > 1e-12:
            failures.append(f"(b) {big} vs {small}: drift {drift:.2e}")

    # (c) the relaxed step at h = 1 equals the unrelaxed formula per step
    dim = 6
    G = r.uniform(-1, 1, (dim, dim))
    problem = ProblemTriple(A=ZeroOperator(dim),
                            B=AffineOperator(0.5 * (G - G.T)),
                            C=ScaledL1(dim, 0.3))
    lam = 0.9 * max_stepsize("FoRB", problem.B.lipschitz)
    x = r.uniform(-1, 1, dim)
    xp = r.uniform(-1, 1, dim)
    trace = run(problem, SolverConfig(
        method="FoRB", lam=lam, z0=x, h=1.0, y_init=(x, xp), max_iters=200,
        tol=1e-300), record_history=True)
    # tol=1e-300 stops the run early only at an exact fixed point, after
    # which every further step is trivially the unrelaxed one
    if trace.iterations < 200 and trace.step_norms[-1] != 0.0:
        failures.append(f"(c) FoRB stopped after {trace.iterations} steps")
    xs = [xp, *trace.xs]
    worst = 0.0
    for k in range(1, len(xs) - 1):
        ref = problem.C.resolve(lam, xs[k] - 2.0 * lam * problem.B.forward(
            xs[k]) + lam * problem.B.forward(xs[k - 1]))
        worst = max(worst, float(np.max(np.abs(xs[k + 1] - ref))))
    if worst > 1e-15:
        failures.append(f"(c) h=1 step deviates by {worst:.2e}")

    _report(6, "reduction equivalences", failures)


# -------------------------------------------------------------- criterion 7

def test_criterion_7_frdr_cross_check(instances, bforb_runs):
    traces, _ = bforb_runs
    failures = []
    for seed, (inst, problem) in instances.items():
        L = problem.B.lipschitz
        lam = 2.6 / (8.0 * L)                    # solves lam = 0.9*g/(1+2Lg)
        gamma = 4.0 * lam
        if abs(lam - 0.9 * gamma / (1 + 2 * L * gamma)) > 1e-14:
            failures.append(f"seed {seed}: constants off")
        trace = run(problem, SolverConfig(
            method="FRDR", lam=lam, gamma=gamma, z0=np.ones(DIM),
            max_iters=100000, tol=1e-10))
        gap = np.linalg.norm(trace.x_final - traces[seed].x_final)
        if gap > 1e-5:
            failures.append(f"seed {seed}: |x_FRDR - x_BFoRB| = {gap:.2e}")
    _report(7, "FRDR agrees with BFoRB", failures)


# -------------------------------------------------------------- criterion 8

def test_criterion_8_saddle_instance():
    failures = []
    budget = 20000
    inst = make_saddle_instance(20, 30, 11, 0.5, 1.0)
    problem = inst.triple()
    L = problem.B.lipschitz
    finals = {}
    for method, denom in (("BFoRB", 8.0), ("BRFoB", 22.0)):
        lam = 0.9 / (denom * L)
        trace = run(problem, SolverConfig(
            method=method, lam=lam, z0=np.ones(50), max_iters=budget,
            tol=1e-13))
        res = omega_residual(problem, lam, trace.z_final)
        if res > 1e-6:
            failures.append(f"{method}: residual {res:.2e}")
        # the stored plant is the ground truth
        if trace.dist_to_xstar[-1] > 1e-8:
            failures.append(f"{method}: {trace.dist_to_xstar[-1]:.2e} from "
                            "the planted zero")
        finals[method] = trace.x_final[:30]
    agree = np.linalg.norm(finals["BFoRB"] - finals["BRFoB"])
    if agree > 1e-4:
        failures.append(f"x-blocks differ by {agree:.2e}")

    # purely bilinear variant: forward-backward stalls above the target
    inst0 = make_saddle_instance(20, 30, 11, 0.0, 1.0)
    problem0 = inst0.triple()
    lam = 0.9 / (8.0 * problem0.B.lipschitz)
    fb = run(problem0, SolverConfig(method="FB", lam=lam, z0=np.ones(50),
                                    max_iters=budget, tol=1e-13))
    best = np.nanmin(np.asarray(fb.residuals, dtype=float))
    if not (best > 1e-6):
        failures.append(f"FB reached residual {best:.2e}")
    _report(8, "saddle instance + FB baseline failure", failures)


# -------------------------------------------------------------- criterion 9

def test_criterion_9_dynamics():
    failures = []
    scalar = ProblemTriple(A=ZeroOperator(1), B=AffineOperator([[1.0]]),
                           C=ZeroOperator(1))
    exact = np.exp(-2.5)
    e1 = abs(simulate_ppa(scalar, 1.0, 1e-3, 5.0,
                          np.array([1.0])).terminal[0] - exact)
    if e1 > 5e-3:
        failures.append(f"ppa error {e1:.2e} > 5e-3")
    e2 = abs(simulate_ppa(scalar, 1.0, 5e-4, 5.0,
                          np.array([1.0])).terminal[0] - exact)
    if not 0.3 <= e2 / e1 <= 0.7:
        failures.append(f"halving ratio {e2 / e1:.3f} outside [0.3, 0.7]")

    inst = make_affine_instance(10, 7, SKEW)
    problem = inst.triple()
    flow = simulate_dr_flow(problem, 0.1, 1e-2, 200.0, np.ones(10))
    res = omega_residual(problem, 0.1, flow.terminal)
    if res > 1e-4:
        failures.append(f"dr-flow terminal residual {res:.2e} > 1e-4")
    _report(9, "continuous-time flows", failures)


# ------------------------------------------------------------- criterion 10

def test_criterion_10_operator_properties(instances):
    failures = []
    r = np.random.Generator(np.random.Philox(77))
    inst, problem = instances[1]
    saddle = make_saddle_instance(6, 9, 3, 0.4, 1.5).triple()
    resolvent_ops = [problem.A, problem.B, problem.C, saddle.A, saddle.B,
                     saddle.C, ZeroOperator(5), ScaledL1(5, 0.7)]
    lam = 0.23
    for op in resolvent_ops:
        if not op.has_resolvent:
            continue
        worst = 0.0
        for _ in range(1000):
            v = r.uniform(-2, 2, op.dim)
            w = r.uniform(-2, 2, op.dim)
            jv, jw = op.resolve(lam, v), op.resolve(lam, w)
            lhs = (np.linalg.norm(jv - jw) ** 2
                   + np.linalg.norm((v - jv) - (w - jw)) ** 2)
            d2 = np.linalg.norm(v - w) ** 2
            worst = max(worst, lhs - d2 - 1e-10 * d2)
        if worst > 0:
            failures.append(f"firm nonexpansivity fails for {op.kind}")
    for op in [problem.A, problem.B, problem.C, saddle.B, ZeroOperator(5)]:
        if not op.has_forward:
            continue
        for _ in range(1000):
            u = r.uniform(-2, 2, op.dim)
            v = r.uniform(-2, 2, op.dim)
            inner = float(np.dot(op.forward(u) - op.forward(v), u - v))
            if inner < -1e-10 * np.linalg.norm(u - v) ** 2:
                failures.append(f"monotonicity fails for {op.kind}")
                break
    for seed, (inst, prob) in instances.items():
        ratio = lipschitz_check(prob.B, 100, seed=seed)
        if ratio > prob.B.lipschitz * (1 + 1e-10):
            failures.append(f"seed {seed}: lipschitz {ratio} > declared")
    ratio = lipschitz_check(saddle.B, 1000, seed=0)
    if ratio > saddle.B.lipschitz * (1 + 1e-10):
        failures.append("saddle coupling exceeds declared L")
    _report(10, "operator property suites", failures)


# ------------------------------------------------------------- criterion 11

def test_criterion_11_harness_determinism(tmp_path):
    failures = []
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""\
[problem]
kind = affine
dim = 12
seed = 3
skew_fraction = 0.8

[run]
methods = BFoRB, BRFoB
lambda_fraction = 0.9
max_iters = 20000
tol = 1e-10
certify = true
""")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    code1 = main(["run", "--config", str(cfg), "--out", out1, "--quiet"])
    code2 = main(["run", "--config", str(cfg), "--out", out2, "--quiet"])
    if code1 != EXIT_OK or code2 != EXIT_OK:
        failures.append(f"run exits {code1}, {code2}")
    names = sorted(os.listdir(out1))
    if names != sorted(os.listdir(out2)) or len(names) < 6:
        failures.append("artifact sets differ")
    for name in names:
        if (tmp_path / "o1" / name).read_bytes() != \
                (tmp_path / "o2" / name).read_bytes():
            failures.append(f"bytes differ: {name}")

    fb_cfg = tmp_path / "fb.cfg"
    fb_cfg.write_text("""\
[problem]
kind = saddle
m = 4
n = 6
seed = 2
alpha = 0
radius = 1.0

[run]
methods = FB
lambda = 0.2
max_iters = 3000
tol = 1e-12
""")
    code = main(["run", "--config", str(fb_cfg), "--out",
                 str(tmp_path / "fb"), "--quiet"])
    if code != EXIT_NOT_CONVERGED:
        failures.append(f"divergent FB exited {code}, expected 2")

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("""\
[problem]
kind = affine
dim = 5
seed = 1
skew_fraction = 0.8

[run]
methods = FRDR
lambda = 0.01
max_iters = 10
tol = 1e-6
""")
    code = main(["run", "--config", str(bad_cfg), "--out",
                 str(tmp_path / "bad"), "--quiet"])
    if code != EXIT_CONFIG:
        failures.append(f"missing gamma exited {code}, expected 1")
    _report(11, "harness determinism + exit codes", failures)
