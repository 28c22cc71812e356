import math
from dataclasses import replace

import numpy as np
import pytest

from splitkit import (AffineOperator, CertificateError, CustomOperator,
                      GroundTruthError, ProblemTriple, SaddleInstance,
                      SolverConfig, ZeroOperator,
                      certify_trace, descent_report, lemma_bforb_slack,
                      lemma_brfob_slack, make_affine_instance,
                      max_stepsize, omega_residual, phi_bforb, phi_brfob,
                      reference_point, run)
from splitkit.certificates import _block_rows


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def zero_problem(dim=2):
    return ProblemTriple(A=ZeroOperator(dim), B=ZeroOperator(dim),
                         C=ZeroOperator(dim), x_star=np.zeros(dim))


def dr_problem(seed=11, dim=6):
    """B = 0 instance with a directly computed solution."""
    r = rng(seed)
    H1 = r.uniform(-1, 1, (dim, dim))
    H2 = r.uniform(-1, 1, (dim, dim))
    M_A = H1 @ H1.T / dim
    M_C = H2 @ H2.T / dim
    b_A = r.uniform(-1, 1, dim)
    b_C = r.uniform(-1, 1, dim)
    x_star = np.linalg.solve(M_A + M_C, -(b_A + b_C))
    return ProblemTriple(A=AffineOperator(M_A, b_A), B=ZeroOperator(dim),
                         C=AffineOperator(M_C, b_C), x_star=x_star)


# ---------------------------------------------------------- reference point

def test_reference_point_zero_problem():
    ref = reference_point(zero_problem(), 0.7)
    assert np.array_equal(ref.z, np.zeros(2))
    assert np.array_equal(ref.x, np.zeros(2))


def test_reference_point_scalar_all_identity():
    # A = B = C = identity map: x* = 0, z = x* + lam*A(x*) = 0
    problem = ProblemTriple(A=AffineOperator([[1.0]]),
                            B=AffineOperator([[1.0]]),
                            C=AffineOperator([[1.0]]), x_star=[0.0])
    ref = reference_point(problem, 0.1)
    assert ref.z[0] == 0.0 and ref.x[0] == 0.0


def test_reference_point_affine_validates():
    inst = make_affine_instance(10, 3, 0.8)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    ref = reference_point(problem, lam)
    xr = problem.A.resolve(lam, ref.z)
    assert np.linalg.norm(xr - inst.x_star) <= 1e-10 * (
        1 + np.linalg.norm(inst.x_star))


def test_reference_point_unavailable():
    # a hand-built saddle instance has no plant, so no a_star
    inst = SaddleInstance(K=np.eye(2, 3), c=np.zeros(2), alpha=0.5,
                          radius=1.0, m=2, n=3, seed=0)
    with pytest.raises(GroundTruthError):
        reference_point(inst.triple(), 0.1)


def test_reference_point_from_a_star():
    # A known only through its resolvent: the same a_star in A(x_star)
    # gives a valid reference point at every stepsize
    problem0 = dr_problem(dim=3)
    A = CustomOperator(3, resolvent=problem0.A.resolve)
    a_star = problem0.A.forward(problem0.x_star)
    problem = ProblemTriple(A=A, B=problem0.B, C=problem0.C,
                            x_star=problem0.x_star, a_star=a_star)
    for lam in (0.3, 2.0):
        ref = reference_point(problem, lam)
        assert np.array_equal(ref.x, problem0.x_star)
        assert np.array_equal(ref.z, problem0.x_star + lam * a_star)
        assert np.allclose(A.resolve(lam, ref.z), ref.x, atol=1e-12)
    without = ProblemTriple(A=A, B=problem0.B, C=problem0.C,
                            x_star=problem0.x_star)
    assert without.a_star is None
    with pytest.raises(GroundTruthError):
        reference_point(without, 0.3)


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_reference_point_checks_hold_beyond_overflowing_squares(scale):
    # each pair passes ProblemTriple's checks but fails one of
    # reference_point's; beyond about 1.3e154 the squares of x and z
    # overflow, and a bound taken from an inf norm would pass anything
    x_star, a_star = scale * np.ones(2), np.zeros(2)
    identity = CustomOperator(2, resolvent=lambda lam, v: v)
    # J_{lam*A} is the identity at lam = 1 only
    A = CustomOperator(2, resolvent=lambda lam, v: v if lam == 1.0
                       else 1.01 * v)
    # C = 1e-9*I: inside ProblemTriple's 1e-8 bound, outside 1e-10
    C = CustomOperator(2, forward=lambda v: 1e-9 * v,
                       resolvent=lambda lam, v: v / (1.0 + 1e-9 * lam))
    cases = (((A, identity), "x = J_{lam\\*A}\\(z\\)", 0.5),
             ((identity, C), "x - z = lam\\*\\(B\\+C\\)\\(x\\)", 1.0))
    for (A_op, C_op), message, lam in cases:
        problem = ProblemTriple(A=A_op, B=ZeroOperator(2), C=C_op,
                                x_star=x_star, a_star=a_star)
        with pytest.raises(CertificateError, match=message):
            reference_point(problem, lam)


# ----------------------------------------------------------- omega residual

def test_omega_residual_zero_problem():
    assert omega_residual(zero_problem(), 0.5, np.array([3.0, -1.0])) == 0.0


def test_omega_residual_at_reference_point():
    inst = make_affine_instance(10, 3, 0.8)
    problem = inst.triple()
    lam = 0.05
    ref = reference_point(problem, lam)
    assert omega_residual(problem, lam, ref.z) <= 1e-10


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_nonfinite_lam_rejected(lam):
    problem = make_affine_instance(3, 1, 0.8).triple()
    with pytest.raises(CertificateError):
        omega_residual(problem, lam, np.ones(3))
    with pytest.raises(CertificateError):
        reference_point(problem, lam)


def test_omega_residual_positive_off_solution():
    inst = make_affine_instance(10, 3, 0.8)
    problem = inst.triple()
    lam = 0.05
    z = rng(1).uniform(-1, 1, 10)
    x = problem.A.resolve(lam, z)
    total = (problem.A.forward(x) + problem.B.forward(x)
             + problem.C.forward(x))
    assert np.linalg.norm(total) > 1e-3        # certifies z is off the set
    assert omega_residual(problem, lam, z) > 0


# --------------------------------------------------------------- BFoRB side

def test_lemma_bforb_stationary_is_tight():
    problem = dr_problem()
    lam = 0.4
    ref = reference_point(problem, lam)
    z, x = ref.z, ref.x
    slack = lemma_bforb_slack(problem, ref, lam, z, z, x, x, x)
    assert slack == pytest.approx(0.0, abs=1e-14)


def test_lemma_bforb_reduces_to_fejer_for_dr():
    problem = dr_problem()
    lam = 0.4
    ref = reference_point(problem, lam)
    trace = run(problem, SolverConfig(method="DR", lam=lam,
                                      z0=rng(2).uniform(-1, 1, problem.dim),
                                      max_iters=300, tol=1e-300),
                record_history=True)
    for k in range(trace.iterations):
        z_k, z_n = trace.zs[k], trace.zs[k + 1]
        y_k = trace.y_at(k)
        slack = lemma_bforb_slack(problem, ref, lam, z_k, z_n, y_k,
                                  trace.y_at(k - 1), trace.y_at(k - 2))
        fejer = (np.dot(z_k - ref.z, z_k - ref.z)
                 - np.dot(z_n - ref.z, z_n - ref.z)
                 - np.dot(z_n - z_k, z_n - z_k))
        assert slack == pytest.approx(fejer, abs=1e-12)
        assert slack >= -1e-12


def test_lemma_bforb_nonnegative_along_run():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.ones(20), max_iters=1000,
                                      tol=1e-300), record_history=True)
    report = certify_trace(problem, trace)
    tol = 1e-9 * (1 + np.dot(np.ones(20), np.ones(20)))
    assert report.lemma_slacks.min() >= -tol


def test_phi_bforb_stationary_and_displaced():
    problem = dr_problem()
    lam, L = 0.4, 0.7
    ref = reference_point(problem, lam)
    z, x = ref.z, ref.x
    assert phi_bforb(problem, ref, lam, L, z, z, z, x, x) == pytest.approx(0.0)
    delta = 1e-3
    e1 = np.zeros(problem.dim)
    e1[0] = delta
    # B = 0: phi = |z_k - z|^2 + (3/4)|z_k - z_{k-1}|^2 = 1.75 * delta^2
    val = phi_bforb(problem, ref, lam, L, z + e1, z, z, x, x)
    assert val == pytest.approx(1.75 * delta ** 2, rel=1e-12)


def test_phi_bforb_lower_bound_along_run():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    lam = 0.9 / (8.0 * L)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.ones(20), max_iters=1000,
                                      tol=1e-300), record_history=True)
    report = certify_trace(problem, trace)
    ref = reference_point(problem, lam)
    for k in range(1, len(report.phi)):
        zk = trace.zs[k]
        assert report.phi[k] >= 0.75 * np.dot(zk - ref.z, zk - ref.z) - 1e-12
    assert report.lower_bound_violations.max() == 0.0


# --------------------------------------------------------------- BRFoB side

def test_lemma_brfob_stationary_is_tight():
    problem = dr_problem()
    lam = 0.4
    ref = reference_point(problem, lam)
    z, x = ref.z, ref.x
    slack = lemma_brfob_slack(problem, ref, lam, z, z, z, x, x, x, x)
    assert slack == pytest.approx(0.0, abs=1e-14)


def test_lemma_brfob_dr_form_nonnegative():
    problem = dr_problem(seed=13)
    lam = 0.4
    ref = reference_point(problem, lam)
    trace = run(problem, SolverConfig(method="DR", lam=lam,
                                      z0=rng(3).uniform(-1, 1, problem.dim),
                                      max_iters=300, tol=1e-300),
                record_history=True)
    for k in range(1, trace.iterations):
        z_n, z_k, z_p = trace.zs[k + 1], trace.zs[k], trace.zs[k - 1]
        slack = lemma_brfob_slack(
            problem, ref, lam, z_n, z_k, z_p, trace.y_at(k),
            trace.y_at(k - 1), trace.y_at(k - 2), trace.y_at(k - 3))
        # B = 0 collapses the inequality to pure z-norm bookkeeping
        zbar = 2 * z_k - z_p
        explicit = (np.dot(z_k - ref.z, z_k - ref.z)
                    + np.dot(z_k - z_p, z_k - z_p)
                    - np.dot(z_n - ref.z, z_n - ref.z)
                    - 2 * np.dot(z_n - z_k, z_n - z_k)
                    - np.dot(z_n - zbar, z_n - zbar))
        assert slack == pytest.approx(explicit, abs=1e-12)
        assert slack >= -1e-12


def test_lemma_brfob_nonnegative_along_run():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BRFoB", problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BRFoB", lam=lam,
                                      z0=np.ones(20), max_iters=1000,
                                      tol=1e-300), record_history=True)
    report = certify_trace(problem, trace)
    tol = 1e-9 * (1 + np.dot(np.ones(20), np.ones(20)))
    assert report.lemma_slacks.min() >= -tol


def test_phi_brfob_stationary_and_displaced():
    problem = dr_problem()
    lam, L = 0.01, 1.0
    ref = reference_point(problem, lam)
    z, x = ref.z, ref.x
    assert phi_brfob(problem, ref, lam, L, z, z, z, z, x, x, x) == \
        pytest.approx(0.0)
    delta = 1e-3
    e1 = np.zeros(problem.dim)
    e1[0] = delta
    # z_k displaced, all earlier iterates at z: zbar_{k-1} = z, so the
    # surviving terms are 1 + (1 + 22*lam*L) + 7/11 times delta^2.
    val = phi_brfob(problem, ref, lam, L, z + e1, z, z, z, x, x, x)
    expected = (1.0 + (1.0 + 22.0 * lam * L) + 7.0 / 11.0) * delta ** 2
    assert val == pytest.approx(expected, rel=1e-12)


def test_phi_brfob_lower_bound_along_run():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    lam = 0.9 / (22.0 * L)
    trace = run(problem, SolverConfig(method="BRFoB", lam=lam,
                                      z0=np.ones(20), max_iters=1000,
                                      tol=1e-300), record_history=True)
    report = certify_trace(problem, trace)
    ref = reference_point(problem, lam)
    for k in range(1, len(report.phi)):
        zk = trace.zs[k]
        bound = (6.0 / 11.0) * np.dot(zk - ref.z, zk - ref.z)
        assert report.phi[k] >= bound - 1e-12
    assert report.lower_bound_violations.max() == 0.0


# ------------------------------------------------- hand values with B != 0

def _skew_b_problem():
    """d = 2 affine triple whose B has a skew part, with its solution."""
    M_A = np.array([[1.0, 0.2], [0.2, 0.5]])
    M_B = np.array([[0.3, 0.5], [-0.5, 0.2]])
    M_C = np.array([[0.4, 0.0], [0.0, 0.9]])
    b_A, b_B, b_C = (np.array([0.1, -0.3]), np.array([0.7, 0.2]),
                     np.array([-0.4, 0.5]))
    x_star = np.linalg.solve(M_A + M_B + M_C, -(b_A + b_B + b_C))
    problem = ProblemTriple(A=AffineOperator(M_A, b_A),
                            B=AffineOperator(M_B, b_B),
                            C=AffineOperator(M_C, b_C), x_star=x_star)
    return problem, lambda v: M_B @ v + b_B


def test_certificate_functions_hand_values_nonzero_B():
    problem, Bf = _skew_b_problem()
    lam, L = 0.3, 0.8
    ref = reference_point(problem, lam)
    z, x = ref.z, ref.x
    z_n, z_k, z_1, z_2, z_3, y_k, y_1, y_2, y_3 = rng(5).uniform(-2, 2,
                                                                 (9, 2))

    def sq(v):
        return float(v @ v)

    # BFoRB, typed out from the lemma_bforb_slack and phi_bforb docstrings
    rhs = (sq(z_k - z) + 2 * lam * (Bf(y_1) - Bf(y_2)) @ (x - y_1)
           + 2 * lam * (Bf(y_1) - Bf(y_2)) @ (y_1 - y_k))
    lhs = (sq(z_n - z) + 2 * lam * (Bf(y_k) - Bf(y_1)) @ (x - y_k)
           + sq(z_n - z_k))
    got = lemma_bforb_slack(problem, ref, lam, z_k, z_n, y_k, y_1, y_2)
    assert got == pytest.approx(rhs - lhs, rel=1e-12, abs=1e-13)
    phi = (sq(z_k - z) + 2 * lam * (Bf(y_1) - Bf(y_2)) @ (x - y_1)
           + 0.75 * sq(z_k - z_1) + 2 * lam * L * sq(z_1 - z_2))
    got = phi_bforb(problem, ref, lam, L, z_k, z_1, z_2, y_1, y_2)
    assert got == pytest.approx(phi, rel=1e-12, abs=1e-13)

    # BRFoB, typed out from the lemma_brfob_slack and phi_brfob docstrings
    ybar_1, ybar_2 = 2 * y_1 - y_2, 2 * y_2 - y_3
    zbar_k, zbar_1 = 2 * z_k - z_1, 2 * z_1 - z_2
    rhs = (sq(z_k - z) + 2 * lam * (Bf(ybar_2) - Bf(x)) @ (y_1 - y_2)
           + sq(z_k - z_1)
           + 2 * lam * (Bf(ybar_1) - Bf(ybar_2)) @ (ybar_1 - y_k))
    lhs = (sq(z_n - z) + 2 * lam * (Bf(ybar_1) - Bf(x)) @ (y_k - y_1)
           + 2 * sq(z_n - z_k) + sq(z_n - zbar_k))
    got = lemma_brfob_slack(problem, ref, lam, z_n, z_k, z_1, y_k, y_1, y_2,
                            y_3)
    assert got == pytest.approx(rhs - lhs, rel=1e-12, abs=1e-13)
    phi = (sq(z_k - z) + 2 * lam * (Bf(ybar_2) - Bf(x)) @ (y_1 - y_2)
           + (1 + 22 * lam * L) * sq(z_k - z_1)
           + (47 / 3) * lam * L * sq(z_1 - z_2)
           + (14 / 3) * lam * L * sq(z_2 - z_3)
           + (7 / 11) * sq(z_k - zbar_1))
    got = phi_brfob(problem, ref, lam, L, z_k, z_1, z_2, z_3, y_1, y_2, y_3)
    assert got == pytest.approx(phi, rel=1e-12, abs=1e-13)


def test_certificate_functions_reject_reference_for_other_lam():
    problem, _ = _skew_b_problem()
    ref = reference_point(problem, 0.3)
    v = np.ones(2)
    calls = (lambda lam: lemma_bforb_slack(problem, ref, lam, v, v, v, v, v),
             lambda lam: phi_bforb(problem, ref, lam, 0.8, v, v, v, v, v),
             lambda lam: lemma_brfob_slack(problem, ref, lam, v, v, v, v, v,
                                           v, v),
             lambda lam: phi_brfob(problem, ref, lam, 0.8, v, v, v, v, v, v,
                                   v))
    for call in calls:
        call(0.3)
        with pytest.raises(CertificateError):
            call(0.6)


# ------------------------------------------------------------ descent_report

def test_descent_report_constant_zero():
    report = descent_report(np.zeros(11), np.zeros(10), eps=0.25)
    assert report.descent_violations.max() == 0.0
    assert report.telescope_violations.max() == 0.0
    assert report.summary["max_descent_violation"] == 0.0


def test_descent_report_flags_violations():
    phis = np.array([1.0, 2.0, 0.5])
    steps = np.array([0.1, 0.1])
    report = descent_report(phis, steps, eps=1.0)
    assert report.descent_violations[0] == pytest.approx(1.01)
    assert report.descent_violations[1] == 0.0
    assert report.telescope_violations[0] == pytest.approx(1.01)


def test_descent_report_shape_mismatch():
    with pytest.raises(CertificateError):
        descent_report(np.zeros(5), np.zeros(5), eps=0.1)


def test_descent_zero_violations_within_bound():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    for method, lam in (("BFoRB", 0.9 / (8 * L)), ("BRFoB", 0.9 / (22 * L))):
        trace = run(problem, SolverConfig(method=method, lam=lam,
                                          z0=np.ones(20), max_iters=1000,
                                          tol=1e-300), record_history=True)
        report = certify_trace(problem, trace)
        tol = 1e-9 * (1 + report.summary["phi0"])
        assert report.descent_violations.max() <= tol
        assert report.telescope_violations.max() <= tol
        assert report.epsilon > 0


def test_phi_sequence_converges():
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    lam = 0.9 / (8 * problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.ones(20), max_iters=4000,
                                      tol=1e-14), record_history=True)
    report = certify_trace(problem, trace)
    diffs = np.abs(np.diff(report.phi))
    assert diffs[-1] <= 1e-12 * (1 + report.summary["phi0"])
    assert diffs[-1] < diffs[0]


# ----------------------------------------------------------- driver contract

def test_certify_trace_matches_pointwise_ops():
    inst = make_affine_instance(8, 9, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    forward, forward_rows = problem.B.forward, problem.B.forward_rows
    calls = [0]

    def counted(v):
        calls[0] += 1
        return forward(v)

    def counted_rows(V):
        calls[0] += len(V)
        return forward_rows(V)

    # count the points handed to B, one by one or as the rows of a stack
    problem.B.forward, problem.B.forward_rows = counted, counted_rows
    rows = _block_rows(8)
    long_run = 2 * rows + 100           # three blocks, the last one partial
    for method in ("BFoRB", "BRFoB"):
        lam = 0.9 * max_stepsize(method, L)
        short = run(problem, SolverConfig(method=method, lam=lam,
                                          z0=np.ones(8), max_iters=50,
                                          tol=1e-300), record_history=True)
        long = run(problem, SolverConfig(method=method, lam=lam,
                                         z0=np.ones(8), max_iters=long_run,
                                         tol=1e-300), record_history=True)
        assert long.iterations == long_run
        # a hand-built trace whose last z is non-finite, as after
        # divergence: its histories are lists of rows, not arrays
        nan = np.full(8, np.nan)
        blown = replace(short, zs=[*short.zs, nan], ys=[*short.ys, nan],
                        iterations=short.iterations + 1)
        cases = [(short, None, 50), (long, None, long_run),
                 (long, rows + 300, rows + 300),   # ends inside a block
                 (blown, None, blown.iterations - 1)]
        for trace, kmax, k_evaluated in cases:
            calls[0] = 0
            report = certify_trace(problem, trace, kmax=kmax)
            # B once at x and once at each point the formulas read: y_j for
            # j = -2..K-1 (BFoRB) or ybar_j for j = -2..K-2 (BRFoB)
            assert calls[0] == k_evaluated + (3 if method == "BFoRB" else 2)
            assert report.summary["k_evaluated"] == k_evaluated
            assert len(report.lemma_slacks) == k_evaluated
            _check_pointwise(problem, method, trace, report)


def _check_pointwise(problem, method, trace, report):
    """Every k of ``report`` against the public per-k functions, bit for
    bit: ``forward_rows`` has the bits of ``forward``, and the kernel sees
    the same rows."""
    lam, L = trace.lam, problem.B.lipschitz
    ref = reference_point(problem, lam)
    for k in range(len(report.lemma_slacks)):
        if method == "BFoRB":
            s = lemma_bforb_slack(problem, ref, lam, trace.zs[k],
                                  trace.zs[k + 1], trace.y_at(k),
                                  trace.y_at(k - 1), trace.y_at(k - 2))
            p = phi_bforb(problem, ref, lam, L, trace.z_at(k),
                          trace.z_at(k - 1), trace.z_at(k - 2),
                          trace.y_at(k - 1), trace.y_at(k - 2))
        else:
            s = lemma_brfob_slack(problem, ref, lam, trace.zs[k + 1],
                                  trace.zs[k], trace.z_at(k - 1),
                                  trace.y_at(k), trace.y_at(k - 1),
                                  trace.y_at(k - 2), trace.y_at(k - 3))
            p = phi_brfob(problem, ref, lam, L, trace.z_at(k),
                          trace.z_at(k - 1), trace.z_at(k - 2),
                          trace.z_at(k - 3), trace.y_at(k - 1),
                          trace.y_at(k - 2), trace.y_at(k - 3))
        assert report.lemma_slacks[k] == s
        assert report.phi[k] == p


@pytest.mark.parametrize("method", ["BFoRB", "BRFoB", "DR", "DavisYin"])
def test_certify_trace_bits_do_not_depend_on_the_block_size(monkeypatch,
                                                            method):
    # blocks past the first are views of the trace: 1 row, 5 rows, three
    # blocks with a partial last one and the whole trace in one block give
    # the same bits, with B evaluated once per point
    inst = make_affine_instance(5, 1, 0.8)
    if method == "DR":
        # B = 0 as an affine map: ZeroOperator's forward_rows calls its
        # forward, which the count below would see twice
        dr = dr_problem(dim=5)
        problem, lam = ProblemTriple(
            A=dr.A, B=AffineOperator(np.zeros((5, 5))), C=dr.C,
            x_star=dr.x_star), 0.4
    elif method == "DavisYin":                  # a constant B
        b_B = inst.b_A + inst.b_B + inst.b_C
        problem, lam = ProblemTriple(
            A=AffineOperator(inst.M_A, inst.b_A),
            B=AffineOperator(np.zeros((5, 5)), inst.b_B),
            C=AffineOperator(inst.M_C, inst.b_C),
            x_star=np.linalg.solve(inst.M_A + inst.M_C, -b_B)), 0.5
    else:
        problem = inst.triple()
        lam = 0.9 * max_stepsize(method, problem.B.lipschitz)
    trace = run(problem, SolverConfig(method=method, lam=lam, z0=np.ones(5),
                                      max_iters=40, tol=1e-300),
                record_history=True)
    assert trace.iterations == 40
    assert trace.y_offset == (0 if method in ("DR", "DavisYin") else 2)
    # the blocks alias the trace: a write into one would raise
    trace.zs.flags.writeable = trace.ys.flags.writeable = False
    listed = replace(trace, zs=list(trace.zs), ys=list(trace.ys))
    forward, forward_rows = problem.B.forward, problem.B.forward_rows
    calls = [0]

    def counted(v):
        calls[0] += 1
        return forward(v)

    def counted_rows(V):
        calls[0] += len(V)
        return forward_rows(V)

    monkeypatch.setattr(problem.B, "forward", counted)
    monkeypatch.setattr(problem.B, "forward_rows", counted_rows)
    arrays = ("lemma_slacks", "phi", "descent_violations",
              "telescope_violations", "lower_bound_violations")
    for t, kmax in ((trace, None), (trace, 23), (listed, None)):
        K = kmax or 40
        reports = []
        for rows in (1, 5, K // 3 + 1, K):
            monkeypatch.setattr("splitkit.certificates._BLOCK_BYTES",
                                8 * problem.dim * rows)
            calls[0] = 0
            reports.append(certify_trace(problem, t, kmax=kmax))
            assert calls[0] == K + (2 if method == "BRFoB" else 3)
        first = reports[0]
        assert first.summary["k_evaluated"] == K
        for report in reports[1:]:
            assert report.summary == first.summary
            for name in arrays:
                assert (getattr(report, name).tobytes()
                        == getattr(first, name).tobytes())


def test_certify_trace_guards():
    inst = make_affine_instance(6, 1, 0.8)
    problem = inst.triple()
    lam = 0.5 * max_stepsize("BFoRB", problem.B.lipschitz)
    no_hist = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                        z0=np.ones(6), max_iters=10,
                                        tol=1e-300))
    with pytest.raises(CertificateError):
        certify_trace(problem, no_hist)
    # kmax is a positive count: a float, a string, NaN or 0 is none
    short = run(problem, SolverConfig(method="BFoRB", lam=lam, z0=np.ones(6),
                                      max_iters=10, tol=1e-300),
                record_history=True)
    for kmax in (math.nan, 2.5, 2.0, "7", 0, -1):
        with pytest.raises(CertificateError, match="positive integer"):
            certify_trace(problem, short, kmax=kmax)
    assert certify_trace(problem, short, kmax=np.int64(7)).summary[
        "k_evaluated"] == 7
    # DR certificates demand a vanishing B
    dr_trace = run(problem, SolverConfig(method="DR", lam=lam, z0=np.ones(6),
                                         max_iters=10, tol=1e-300),
                   record_history=True)
    with pytest.raises(CertificateError):
        certify_trace(problem, dr_trace)
    # a constant B has L = 0, but DR ignores it and solves A + C instead;
    # Davis-Yin evaluates it, so its certificates hold
    inst = make_affine_instance(5, 1, 0.8)
    b_B = inst.b_A + inst.b_B + inst.b_C
    x_star = np.linalg.solve(inst.M_A + inst.M_C, -b_B)
    shifted = ProblemTriple(A=AffineOperator(inst.M_A, inst.b_A),
                            B=AffineOperator(np.zeros((5, 5)), inst.b_B),
                            C=AffineOperator(inst.M_C, inst.b_C),
                            x_star=x_star)
    assert shifted.B.lipschitz == 0.0
    for method in ("DR", "DavisYin"):
        trace = run(shifted, SolverConfig(method=method, lam=0.5,
                                          z0=np.ones(5), max_iters=5000,
                                          tol=1e-13),
                    record_history=True)
        assert trace.status == "converged"
        if method == "DR":
            with pytest.raises(CertificateError, match="B = 0"):
                certify_trace(shifted, trace)
        else:
            assert certify_trace(shifted, trace).summary[
                "min_lemma_slack"] >= -1e-12
    two_op = ProblemTriple(A=ZeroOperator(6), B=problem.B, C=problem.C)
    forb = run(two_op, SolverConfig(method="FoRB", lam=lam, z0=np.ones(6),
                                    max_iters=10, tol=1e-300),
               record_history=True)
    with pytest.raises(CertificateError):
        certify_trace(two_op, forb)
    # FRDR records the histories, but no certificate is defined for it
    frdr = run(problem, SolverConfig(method="FRDR", lam=lam, gamma=2.0 * lam,
                                     z0=np.ones(6), max_iters=10,
                                     tol=1e-300), record_history=True)
    with pytest.raises(CertificateError, match="no certificate is defined"):
        certify_trace(problem, frdr)
    # a run whose first iterate is not finite leaves no step to certify
    overflow = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                         z0=np.full(6, 1e308), max_iters=10,
                                         tol=1e-300), record_history=True)
    assert overflow.status == "diverged" and len(overflow.zs) == 2
    with pytest.raises(CertificateError, match="too short"):
        certify_trace(problem, overflow)


def test_certify_trace_takes_the_reference_point_of_its_problem_and_lam():
    # a given point gives the bits of the point certify_trace builds; one
    # built for another problem, even on the same data, or for another lam
    # is refused
    problem = make_affine_instance(6, 1, 0.8).triple()
    lam = 0.5 * max_stepsize("BRFoB", problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BRFoB", lam=lam, z0=np.ones(6),
                                      max_iters=50, tol=1e-300),
                record_history=True)
    built = certify_trace(problem, trace)
    given = certify_trace(problem, trace, ref=reference_point(problem, lam))
    for name in ("lemma_slacks", "phi", "descent_violations",
                 "telescope_violations", "lower_bound_violations"):
        assert getattr(given, name).tobytes() == getattr(built, name).tobytes()
    assert given.summary == built.summary
    twin = make_affine_instance(6, 1, 0.8).triple()
    for ref in (reference_point(twin, lam),
                reference_point(problem, 0.5 * lam)):
        with pytest.raises(CertificateError, match="another problem or lam"):
            certify_trace(problem, trace, ref=ref)


def test_certificates_hold_for_nonlinear_B():
    # the inequalities need monotonicity only, not linearity of B
    from splitkit import BoxNormalCone, CustomOperator
    dim = 4
    x_star = 0.3 * np.ones(dim)
    v0 = x_star + 0.5 * np.sin(x_star)
    B = CustomOperator(dim, forward=lambda v: v + 0.5 * np.sin(v) - v0,
                       lipschitz=1.5)
    problem = ProblemTriple(A=ZeroOperator(dim), B=B,
                            C=BoxNormalCone(-np.ones(dim), np.ones(dim)),
                            x_star=x_star)
    z0 = np.full(dim, 0.9)
    for method, denom in (("BFoRB", 8.0), ("BRFoB", 22.0)):
        lam = 0.9 / (denom * 1.5)
        trace = run(problem, SolverConfig(method=method, lam=lam, z0=z0,
                                          max_iters=2000, tol=1e-13),
                    record_history=True)
        report = certify_trace(problem, trace)
        tol = 1e-9 * (1 + np.dot(z0, z0))
        assert report.lemma_slacks.min() >= -tol
        assert report.descent_violations.max() <= 1e-9 * (
            1 + report.summary["phi0"])


def test_certify_trace_dr_reduction():
    problem = dr_problem(seed=21)
    trace = run(problem, SolverConfig(method="DR", lam=0.4,
                                      z0=np.ones(problem.dim), max_iters=400,
                                      tol=1e-13), record_history=True)
    report = certify_trace(problem, trace)
    assert report.epsilon == pytest.approx(0.25)   # L = 0
    assert report.lemma_slacks.min() >= -1e-12
    assert report.descent_violations.max() <= 1e-12
