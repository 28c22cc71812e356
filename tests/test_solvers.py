import pickle
import sys
import threading

import numpy as np
import pytest

from splitkit import (AffineOperator, CustomOperator, Method, NOT_GUARANTEED,
                      ProblemTriple, SolverConfig, SolverError, ZeroOperator,
                      make_affine_instance, max_stepsize, omega_residual, run,
                      solve_affine_direct)

SKEW2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def scalar_problem(a=0.0, b=0.0, c=0.0, b_B=0.0):
    """A, B, C scalar affine maps a*x, b*x + b_B, c*x on dim 1."""
    return ProblemTriple(A=AffineOperator([[a]]),
                         B=AffineOperator([[b]], [b_B]),
                         C=AffineOperator([[c]]))


def identity_B_problem(dim=1):
    return ProblemTriple(A=ZeroOperator(dim),
                         B=AffineOperator(np.eye(dim)),
                         C=ZeroOperator(dim))


def small_mixed_problem(dim=6, seed=3):
    """Nonzero A, B, C with B mostly skew; unit-scale entries."""
    r = rng(seed)
    G = r.uniform(-1, 1, (dim, dim))
    S = 0.5 * (G - G.T)
    H = r.uniform(-1, 1, (dim, dim))
    P = H @ H.T / dim
    M_B = 0.8 * S + 0.2 * P
    H2 = r.uniform(-1, 1, (dim, dim))
    M_A = H2 @ H2.T / dim
    H3 = r.uniform(-1, 1, (dim, dim))
    M_C = H3 @ H3.T / dim
    return ProblemTriple(A=AffineOperator(M_A, r.uniform(-1, 1, dim)),
                         B=AffineOperator(M_B, r.uniform(-1, 1, dim)),
                         C=AffineOperator(M_C, r.uniform(-1, 1, dim)))


# ------------------------------------------------------------- max_stepsize

def test_max_stepsize_values():
    assert max_stepsize("BFoRB", 2.0) == pytest.approx(1.0 / 16.0)
    assert max_stepsize("BRFoB", 1.0) == pytest.approx(1.0 / 22.0)
    assert max_stepsize("FRDR", 1.0, gamma=1.0) == pytest.approx(1.0 / 3.0)
    assert max_stepsize("FoRB", 4.0) == pytest.approx(1.0 / 8.0)
    for m in ("FB", "DavisYin", "DR", "RFoB"):
        assert max_stepsize(m, 1.0) is NOT_GUARANTEED


def test_max_stepsize_errors():
    with pytest.raises(SolverError):
        max_stepsize("FRDR", 1.0)
    with pytest.raises(SolverError):
        max_stepsize("BFoRB", 1.0, gamma=2.0)
    with pytest.raises(SolverError):
        max_stepsize("BFoRB", 0.0)
    with pytest.raises(SolverError):
        max_stepsize("BFoRB", float("nan"))
    for gamma in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(SolverError, match="gamma"):
            max_stepsize("FRDR", 1.0, gamma=gamma)


# ------------------------------------------------------------ single steps
# Each step is driven through run(): max_iters=1 for one step, y_init for a
# hand-built history, record_history=True to read x_k, y_k and z_{k+1}.

def one_step(problem, **kwargs):
    return run(problem, SolverConfig(max_iters=1, tol=1e-300, **kwargs),
               record_history=True)


def test_bforb_step_identity_B():
    # default warm start: y_-1 = y_-2 = x_0 = 1, B(y_-1) = B(y_-2) = 1
    t = one_step(identity_B_problem(), method="BFoRB", lam=0.1, z0=[1.0])
    # x0 = 1; y0 = 2 - 1 - 0.2 + 0.1 = 0.9; z1 = 0.9
    assert t.xs[0][0] == pytest.approx(1.0)
    assert t.y_at(0)[0] == pytest.approx(0.9)
    assert t.zs[1][0] == pytest.approx(0.9)
    # the step costs (1, 2); the warm start adds J_A(z0) and one shared B
    assert (t.forward_evals, t.resolvent_evals) == (1 + 1, 2 + 1)


def test_bforb_step_reduces_to_dr_when_B_zero():
    r = rng(1)
    dim = 4
    H = r.uniform(-1, 1, (dim, dim))
    problem = ProblemTriple(A=AffineOperator(H @ H.T / dim, r.uniform(-1, 1, dim)),
                            B=ZeroOperator(dim),
                            C=AffineOperator(np.eye(dim), r.uniform(-1, 1, dim)))
    z0 = r.uniform(-1, 1, dim)
    t = one_step(problem, method="BFoRB", lam=0.5, z0=z0, y_init=(z0, z0))
    x = problem.A.resolve(0.5, z0)
    y = problem.C.resolve(0.5, 2.0 * x - z0)
    assert np.array_equal(t.zs[1], z0 + y - x)


def test_bforb_step_scalar_hand_recursion():
    # A(x) = x, B = C = 0, lam = 1, z0 = 2: resolvent of A solves (1+1)x = 2
    z0 = np.array([2.0])
    t = one_step(scalar_problem(a=1.0), method="BFoRB", lam=1.0, z0=z0,
                 y_init=(z0, z0))
    assert t.xs[0][0] == pytest.approx(1.0)
    assert t.y_at(0)[0] == pytest.approx(0.0)
    assert t.zs[1][0] == pytest.approx(1.0)


def test_brfob_step_identity_B():
    t = one_step(identity_B_problem(), method="BRFoB", lam=0.1, z0=[1.0])
    # ybar = 1, y0 = 2 - 1 - 0.1 = 0.9, z1 = 0.9
    assert t.y_at(0)[0] == pytest.approx(0.9)
    assert t.zs[1][0] == pytest.approx(0.9)
    # the step costs (1, 2); the warm start adds J_A(z0)
    assert (t.forward_evals, t.resolvent_evals) == (1, 2 + 1)


def test_forb_step_values():
    problem = identity_B_problem()
    # h = 1: x1 = J(1 - 0.2 + 0.1) = 0.9
    t = one_step(problem, method="FoRB", lam=0.1, z0=[1.0], h=1.0)
    assert t.xs[1][0] == pytest.approx(0.9)
    # h = 0.5 with B(x0) = B(x_-1): x1 = 0.5 + 0.5*(1 - 0.1) = 0.95
    t = one_step(problem, method="FoRB", lam=0.1, z0=[1.0], h=0.5)
    assert t.xs[1][0] == pytest.approx(0.95)


def test_forb_step_h1_matches_unrelaxed_formula():
    # per-step agreement of the h-form with J(x - 2*lam*B(x) + lam*B(x_prev))
    r = rng(2)
    dim = 5
    G = r.uniform(-1, 1, (dim, dim))
    problem = ProblemTriple(A=ZeroOperator(dim),
                            B=AffineOperator(0.5 * (G - G.T)),
                            C=AffineOperator(np.eye(dim)))
    lam = 0.9 * max_stepsize("FoRB", problem.B.lipschitz)
    x = r.uniform(-1, 1, dim)
    x_prev = r.uniform(-1, 1, dim)
    t = run(problem, SolverConfig(method="FoRB", lam=lam, z0=x, h=1.0,
                                  y_init=(x, x_prev), max_iters=50,
                                  tol=1e-300), record_history=True)
    assert t.iterations == 50
    xs = [x_prev] + t.xs
    for k in range(1, 51):
        ref = problem.C.resolve(lam, xs[k] - 2.0 * lam * problem.B.forward(
            xs[k]) + lam * problem.B.forward(xs[k - 1]))
        assert np.max(np.abs(xs[k + 1] - ref)) <= 1e-15


def test_rfob_step_values():
    problem = identity_B_problem()
    # h = 1, x0 = 1, x_-1 = 0.8: x1 = 1 - 0.1*(2 - 0.8) = 0.88
    t = one_step(problem, method="RFoB", lam=0.1, z0=[1.0], h=1.0,
                 y_init=([1.0], [0.8]))
    assert t.xs[1][0] == pytest.approx(0.88)
    # fixed point of B + C stays put
    problem0 = ProblemTriple(A=ZeroOperator(1),
                             B=AffineOperator([[1.0]], [-1.0]),
                             C=ZeroOperator(1))
    t = one_step(problem0, method="RFoB", lam=0.1, z0=[1.0], h=1.0)
    assert t.xs[1][0] == pytest.approx(1.0, abs=1e-15)
    # h = 0.5, x0 = x_-1 = 1: x1 = 0.5 + 0.5*0.9 = 0.95
    t = one_step(problem, method="RFoB", lam=0.1, z0=[1.0], h=0.5)
    assert t.xs[1][0] == pytest.approx(0.95)


def test_fb_step_value_and_fixed_point():
    t = one_step(identity_B_problem(), method="FB", lam=0.1, z0=[1.0])
    assert t.xs[1][0] == pytest.approx(0.9)
    problem0 = ProblemTriple(A=ZeroOperator(1),
                             B=AffineOperator([[1.0]], [-1.0]),
                             C=ZeroOperator(1))
    t = one_step(problem0, method="FB", lam=0.1, z0=[1.0])
    assert t.xs[1][0] == pytest.approx(1.0, abs=1e-16)


def test_fb_norm_growth_on_skew():
    # x+ = x - lam*M x with M a rotation: |x+| = sqrt(1 + lam^2)*|x| exactly
    problem = ProblemTriple(A=ZeroOperator(2), B=AffineOperator(SKEW2),
                            C=ZeroOperator(2))
    lam = 0.5
    t = run(problem, SolverConfig(method="FB", lam=lam, z0=[1.0, 0.0],
                                  max_iters=39, tol=1e-300),
            record_history=True)
    growth = np.sqrt(1 + lam ** 2)
    assert t.iterations == 39
    for k in range(1, 40):
        assert np.linalg.norm(t.xs[k]) == pytest.approx(growth ** k, rel=1e-12)


def test_davis_yin_step():
    t = one_step(identity_B_problem(), method="DavisYin", lam=0.1, z0=[1.0])
    assert t.zs[1][0] == pytest.approx(0.9)
    # A = 0 reduces to the forward-backward step on z
    r = rng(4)
    dim = 3
    G = r.uniform(-1, 1, (dim, dim))
    problem = ProblemTriple(A=ZeroOperator(dim),
                            B=AffineOperator(0.5 * (G - G.T)),
                            C=AffineOperator(np.eye(dim)))
    z0 = r.uniform(-1, 1, dim)
    t = one_step(problem, method="DavisYin", lam=0.1, z0=z0)
    fb = problem.C.resolve(0.1, z0 - 0.1 * problem.B.forward(z0))
    assert np.allclose(t.zs[1], fb, atol=1e-15)


def test_frdr_step_hand_values():
    # default start: x_0 = x_-1 = 1, B(x_0) = B(x_-1) = 1, u_0 = 0
    t = one_step(identity_B_problem(), method="FRDR", lam=0.1, z0=[1.0],
                 gamma=0.2)
    assert t.xs[0][0] == pytest.approx(0.9)
    assert t.ys[0][0] == pytest.approx(0.8)
    # the step norm is |x_1 - x_0| + lam*|u_1 - u_0|, and u_1 = 0
    assert t.step_norms[0] == pytest.approx(0.1)
    assert t.step_norms[0] - abs(t.xs[0][0] - 1.0) <= 0.1 * 1e-16
    # the step costs (1, 2); the start adds B(x_0)
    assert (t.forward_evals, t.resolvent_evals) == (1 + 1, 2)


def test_frdr_stationary_when_all_zero():
    problem = ProblemTriple(A=ZeroOperator(1), B=ZeroOperator(1),
                            C=ZeroOperator(1))
    t = one_step(problem, method="FRDR", lam=0.1, z0=[3.0], gamma=0.2)
    assert t.x_final[0] == pytest.approx(3.0)
    # x does not move, so a zero step norm means u_1 = 0 as well
    assert t.step_norms[0] == pytest.approx(0.0)


def test_frdr_converges_to_direct_solution():
    inst = make_affine_instance(10, 7, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    lam = 2.6 / (8.0 * L)
    gamma = 4.0 * lam
    assert lam == pytest.approx(0.9 * gamma / (1 + 2 * L * gamma), rel=1e-12)
    trace = run(problem, SolverConfig(method="FRDR", lam=lam, gamma=gamma,
                                      z0=np.ones(10), max_iters=50000,
                                      tol=1e-12))
    assert trace.status == "converged"
    assert np.linalg.norm(trace.x_final - inst.x_star) <= 1e-5


# ------------------------------------------------------------------- run()

def test_run_zero_problem_converges_immediately():
    problem = ProblemTriple(A=ZeroOperator(3), B=ZeroOperator(3),
                            C=ZeroOperator(3))
    v = np.array([0.3, -2.0, 5.0])
    for method in Method:
        kwargs = {"gamma": 0.2} if method is Method.FRDR else {}
        trace = run(problem, SolverConfig(method=method, lam=0.1, z0=v,
                                          max_iters=50, tol=1e-12, **kwargs))
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert np.array_equal(trace.z_final, v)


def test_run_affine_instance_to_ground_truth():
    inst = make_affine_instance(50, 1, 0.8)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.ones(50), max_iters=50000,
                                      tol=1e-10))
    assert trace.status == "converged"
    x_star = solve_affine_direct(inst)
    assert np.linalg.norm(trace.x_final - x_star) <= 1e-6 * (
        1 + np.linalg.norm(x_star))


def test_run_fb_on_skew_diverges():
    problem = ProblemTriple(A=ZeroOperator(2), B=AffineOperator(SKEW2),
                            C=ZeroOperator(2))
    trace = run(problem, SolverConfig(method="FB", lam=0.5, z0=[1.0, 0.0],
                                      max_iters=1000, tol=1e-14))
    assert trace.status == "diverged"
    assert np.isnan(trace.residuals[-1])


def test_run_oracle_overflow_ends_diverged():
    # B = sinh overflows long before the iterates pass the divergence bound:
    # the oracle's NonFiniteError ends the run instead of escaping from it
    problem = ProblemTriple(
        A=ZeroOperator(1), C=ZeroOperator(1),
        B=CustomOperator(1, forward=np.sinh, lipschitz=1.0))
    for method in Method:
        kwargs = {"gamma": 6.0} if method is Method.FRDR else {}
        with np.errstate(over="ignore", invalid="ignore"):
            t = run(problem, SolverConfig(method=method, lam=3.0, z0=[1.0],
                                          max_iters=100, **kwargs),
                    record_history=True)
        assert t.status == ("converged" if method is Method.DR
                            else "diverged")
        assert len(t.step_norms) == len(t.residuals) == t.iterations
        if method in (Method.FB, Method.FORB, Method.RFOB):
            assert len(t.xs) == t.iterations + 1
        else:
            assert len(t.zs) == len(t.xs) + 1 == t.iterations + 1
            assert len(t.ys) == t.iterations + t.y_offset
        assert np.isfinite(t.z_final).all() and np.isfinite(t.x_final).all()
    # an affine resolvent overflows at an absurd stepsize
    problem = make_affine_instance(10, 1, 0.8).triple()
    for method in Method:
        kwargs = {"gamma": 2e300} if method is Method.FRDR else {}
        with np.errstate(over="ignore", invalid="ignore"):
            t = run(problem, SolverConfig(method=method, lam=1e300,
                                          z0=np.ones(10), max_iters=50,
                                          **kwargs))
        assert len(t.residuals) == len(t.dist_to_xstar) == t.iterations
    # B = 1e308 overflows the step, so z reaches inf: the final
    # x = J_{lam*A}(z) cannot be formed, and x_final stays the last x
    problem = ProblemTriple(
        A=AffineOperator(np.eye(2)), C=ZeroOperator(2),
        B=CustomOperator(2, forward=lambda v: np.full(2, 1e308),
                         lipschitz=1.0))
    for method in ("BFoRB", "BRFoB", "DavisYin"):
        with np.errstate(over="ignore", invalid="ignore"):
            t = run(problem, SolverConfig(method=method, lam=10.0,
                                          z0=np.ones(2), max_iters=5))
        assert t.status == "diverged" and not np.isfinite(t.z_final).all()
        assert np.isfinite(t.x_final).all()


def _same_trace(a, b):
    return (a.status == b.status and a.iterations == b.iterations
            and np.array_equal(a.step_norms, b.step_norms)
            and np.array_equal(a.residuals, b.residuals)
            and np.array_equal(a.z_final, b.z_final)
            and np.array_equal(a.x_final, b.x_final))


@pytest.mark.parametrize("dim, max_iters, rounds", [(50, 20000, 4),
                                                    (400, 150, 2)])
def test_threads_share_one_problem(dim, max_iters, rounds):
    # each run prepares its own factors, so threads running on one problem
    # give the serial traces bit for bit (factor caches shared by the
    # threads gave wrong traces and aborts at d=400)
    problem = make_affine_instance(dim, 1, 0.8).triple()
    L = problem.B.lipschitz
    configs = [SolverConfig(method=m, lam=0.9 * max_stepsize(m, L, g),
                            z0=np.ones(dim), max_iters=max_iters, tol=1e-10,
                            gamma=g)
               for m, g in (("BFoRB", None), ("BRFoB", None),
                            ("FRDR", 1.0 / L))]
    serial = [run(problem, c) for c in configs]
    threaded = {}

    def work(i):
        threaded[i] = [run(problem, c) for c in configs * rounds]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(3):
        assert len(threaded[i]) == len(serial) * rounds
        assert all(_same_trace(a, b)
                   for a, b in zip(threaded[i], serial * rounds))


def test_runs_leave_the_operators_unchanged():
    # the factorizations belong to the run: 200 stepsizes add nothing to A,
    # B or C and change none of their data
    problem = make_affine_instance(50, 1, 0.8).triple()
    L = problem.B.lipschitz
    ops = (problem.A, problem.B, problem.C)

    def bforb(lam):
        run(problem, SolverConfig(method="BFoRB", lam=lam, z0=np.ones(50),
                                  max_iters=3))

    bforb(0.5 / (8.0 * L))
    saved = [pickle.dumps(vars(op)) for op in ops]
    for i in range(200):
        bforb((0.1 + i / 250.0) / (8.0 * L))
    assert [pickle.dumps(vars(op)) for op in ops] == saved


def test_run_records_residual_and_dist():
    inst = make_affine_instance(12, 4, 0.8)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam, z0=np.ones(12),
                                      max_iters=5000, tol=1e-11))
    assert trace.dist_to_xstar is not None
    assert trace.residuals[-1] <= 1e-8
    assert trace.dist_to_xstar[-1] <= 1e-8
    # residual decays along the run on the whole (allow local wiggle)
    assert trace.residuals[-1] < trace.residuals[0]


def test_dr_residual_is_omega_residual():
    # DR's step omits B, so its step norm is the residual only when B = 0;
    # otherwise run() evaluates the residual as omega_residual does
    problem = make_affine_instance(10, 1, 0.8).triple()
    lam = 0.05
    trace = run(problem, SolverConfig(method="DR", lam=lam, z0=np.ones(10),
                                      max_iters=300, tol=1e-12),
                record_history=True)
    assert trace.forward_evals == 0 and trace.resolvent_evals == 600
    for k, res in enumerate(trace.residuals):
        assert res == omega_residual(problem, lam, trace.zs[k])
    assert trace.residuals[-1] > 0.1 > trace.step_norms[-1]
    zero_B = ProblemTriple(A=problem.A, B=ZeroOperator(10), C=problem.C)
    trace = run(zero_B, SolverConfig(method="DR", lam=lam, z0=np.ones(10),
                                     max_iters=300, tol=1e-12))
    assert trace.residuals == trace.step_norms


#: Which point row k of Trace.residuals is the omega_residual of:
#: ``(method, problem, history, shift)`` reads ``history[k + shift]``.
_RESIDUAL_ROWS = [
    ("BFoRB", "full", "zs", 0), ("BRFoB", "full", "zs", 0),
    ("DR", "full", "zs", 0), ("FRDR", "full", "zs", 1),
    ("FB", "A=0", "xs", 1), ("FoRB", "A=0", "xs", 1), ("RFoB", "A=0", "xs", 1),
    ("DavisYin", "full", "zs", 0), ("DR", "B=0", "zs", 0)]


@pytest.mark.parametrize("method,variant,history,shift", _RESIDUAL_ROWS)
def test_residual_row_k_is_omega_residual_of_one_point(method, variant,
                                                       history, shift):
    # the template methods report the iterate before step k, FRDR the w_k
    # whose resolvent is x_{k+1}, FB/FoRB/RFoB the iterate after the step;
    # Davis-Yin and DR with B = 0 report their step norm, which is the same
    # residual computed along another route
    full = make_affine_instance(12, 4, 0.8).triple()
    A, B, C = full.A, full.B, full.C
    problem = {"full": full, "A=0": ProblemTriple(ZeroOperator(12), B, C),
               "B=0": ProblemTriple(A, ZeroOperator(12), C)}[variant]
    L = B.lipschitz
    gamma = 1.0 / L if method == "FRDR" else None
    lam = 0.5 * (max_stepsize(method, L, gamma) or max_stepsize("BRFoB", L))
    trace = run(problem, SolverConfig(
        method=method, lam=lam, z0=np.ones(12), max_iters=40, tol=1e-300,
        gamma=gamma), record_history=True)
    assert trace.status == "max_iters" and len(trace.residuals) == 40
    points = getattr(trace, history)
    for k, res in enumerate(trace.residuals):
        point = points[k + shift]
        omega = omega_residual(problem, lam, point)
        if method == "DavisYin" or variant == "B=0":
            assert res == trace.step_norms[k]
            assert abs(res - omega) <= 1e-15 * (1.0 + np.linalg.norm(point))
        else:
            assert res == omega


# ----------------------------------------------------- reduction invariants

def _dr_family_problem(seed=11, dim=5):
    r = rng(seed)
    H1 = r.uniform(-1, 1, (dim, dim))
    H2 = r.uniform(-1, 1, (dim, dim))
    A = AffineOperator(H1 @ H1.T / dim, r.uniform(-1, 1, dim))
    C = AffineOperator(H2 @ H2.T / dim, r.uniform(-1, 1, dim))
    return ProblemTriple(A=A, B=ZeroOperator(dim), C=C), r.uniform(-1, 1, dim)


def test_reduction_dr_bit_identical():
    problem, z0 = _dr_family_problem()
    traces = {}
    for method in ("DR", "BFoRB", "BRFoB", "DavisYin"):
        traces[method] = run(problem, SolverConfig(
            method=method, lam=0.4, z0=z0, max_iters=200, tol=1e-300),
            record_history=True)
    ref = traces["DR"].zs
    assert len(ref) == 201
    for method in ("BFoRB", "BRFoB", "DavisYin"):
        zs = traces[method].zs
        assert len(zs) == len(ref)
        for za, zb in zip(ref, zs):
            assert np.array_equal(za, zb)


def _two_op_problem(seed=3, dim=8):
    r = rng(seed)
    G = r.uniform(-1, 1, (dim, dim))
    H = r.uniform(-1, 1, (dim, dim))
    B = AffineOperator(0.8 * 0.5 * (G - G.T) + 0.2 * H @ H.T / dim,
                       r.uniform(-1, 1, dim))
    C = AffineOperator(np.eye(dim), r.uniform(-1, 1, dim))
    return B, C, r.uniform(-1, 1, dim), r.uniform(-1, 1, dim)


def test_reduction_bforb_equals_forb_with_matched_history():
    B, C, z0, z_minus1 = _two_op_problem()
    dim = B.dim
    problem = ProblemTriple(A=ZeroOperator(dim), B=B, C=C)
    lam = 0.9 * max_stepsize("FoRB", B.lipschitz)
    t3 = run(problem, SolverConfig(method="BFoRB", lam=lam, z0=z0,
                                   y_init=(z0, z_minus1), max_iters=200,
                                   tol=1e-300), record_history=True)
    t2 = run(problem, SolverConfig(method="FoRB", lam=lam, z0=z0, h=1.0,
                                   y_init=(z0, z_minus1), max_iters=200,
                                   tol=1e-300), record_history=True)
    for zk, xk in zip(t3.zs, t2.xs):
        assert np.linalg.norm(zk - xk) <= 1e-12


def test_reduction_brfob_equals_rfob_with_matched_history():
    B, C, z0, z_minus1 = _two_op_problem(seed=5)
    dim = B.dim
    problem = ProblemTriple(A=ZeroOperator(dim), B=B, C=C)
    lam = 0.25 * max_stepsize("FoRB", B.lipschitz)
    t3 = run(problem, SolverConfig(method="BRFoB", lam=lam, z0=z0,
                                   y_init=(z0, z_minus1), max_iters=200,
                                   tol=1e-300), record_history=True)
    t2 = run(problem, SolverConfig(method="RFoB", lam=lam, z0=z0, h=1.0,
                                   y_init=(z0, z_minus1), max_iters=200,
                                   tol=1e-300), record_history=True)
    for zk, xk in zip(t3.zs, t2.xs):
        assert np.linalg.norm(zk - xk) <= 1e-12


def test_update_identity_exact():
    problem = small_mixed_problem()
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    for method in ("BFoRB", "BRFoB", "DavisYin"):
        trace = run(problem, SolverConfig(method=method, lam=lam,
                                          z0=np.ones(problem.dim),
                                          max_iters=100, tol=1e-300),
                    record_history=True)
        for k in range(trace.iterations):
            recomputed = trace.zs[k] + trace.ys[k + trace.y_offset] - trace.xs[k]
            assert np.array_equal(trace.zs[k + 1], recomputed)


# ------------------------------------------------------ economy and policy

def test_forward_evaluation_economy():
    problem = small_mixed_problem()
    lam = 0.5 * max_stepsize("BFoRB", problem.B.lipschitz)
    n = 137
    t = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                  z0=np.ones(problem.dim), max_iters=n,
                                  tol=1e-300))
    assert t.forward_evals == n + 1            # default warm start shares one
    assert t.resolvent_evals == 2 * n + 1
    t = run(problem, SolverConfig(method="BRFoB", lam=lam,
                                  z0=np.ones(problem.dim), max_iters=n,
                                  tol=1e-300))
    assert t.forward_evals == n
    two_op = ProblemTriple(A=ZeroOperator(problem.dim), B=problem.B,
                           C=problem.C)
    t = run(two_op, SolverConfig(method="FoRB", lam=lam,
                                 z0=np.ones(problem.dim), max_iters=n,
                                 tol=1e-300))
    assert t.forward_evals == n + 1
    assert t.resolvent_evals == n


def test_stationarity_at_reference_point():
    inst = make_affine_instance(10, 2, 0.8)
    problem = inst.triple()
    for method, frac in (("BFoRB", 1.0 / 8.0), ("BRFoB", 1.0 / 22.0)):
        lam = 0.9 * frac / problem.B.lipschitz
        z_ref = inst.x_star + lam * problem.A.forward(inst.x_star)
        trace = run(problem, SolverConfig(method=method, lam=lam, z0=z_ref,
                                          max_iters=200, tol=1e-300),
                    record_history=True)
        for zk in trace.zs:
            assert np.linalg.norm(zk - z_ref) <= 1e-12 * (
                1 + np.linalg.norm(z_ref))


def test_stepsize_warning_recorded():
    problem = small_mixed_problem()
    L = problem.B.lipschitz
    bound = max_stepsize("BFoRB", L)
    t = run(problem, SolverConfig(method="BFoRB", lam=2.0 * bound,
                                  z0=np.ones(problem.dim), max_iters=5,
                                  tol=1e-300))
    assert any("outside the guaranteed interval" in w for w in t.warnings)
    t = run(problem, SolverConfig(method="BFoRB", lam=0.5 * bound,
                                  z0=np.ones(problem.dim), max_iters=5,
                                  tol=1e-300))
    assert t.warnings == []


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(method="FRDR", lam=0.1, z0=[1.0])          # no gamma
    with pytest.raises(SolverError):
        SolverConfig(method="BFoRB", lam=0.1, z0=[1.0], gamma=0.2)
    with pytest.raises(SolverError):
        SolverConfig(method="FoRB", lam=0.1, z0=[1.0], h=1.5)
    with pytest.raises(SolverError):
        SolverConfig(method="BFoRB", lam=0.1, z0=[1.0], h=0.5)
    with pytest.raises(SolverError):
        SolverConfig(method="FB", lam=0.1, z0=[1.0], y_init=([1.0], [1.0]))
    with pytest.raises(SolverError):
        SolverConfig(method="BFoRB", lam=-0.1, z0=[1.0])
    with pytest.raises(SolverError, match="tol"):
        SolverConfig(method="BFoRB", lam=0.1, z0=[1.0], tol=float("nan"))
    cfg = SolverConfig(method="FoRB", lam=0.1, z0=[1.0],
                       y_init=([2.0], [0.5]))
    with pytest.raises(SolverError):
        run(identity_B_problem(), cfg)    # y_init[0] must equal z0


def test_bforb_and_brfob_differ_on_nonlinear_B():
    # For affine B the value reflection 2B(y1) - B(y2) equals the argument
    # reflection B(2*y1 - y2), so the two methods coincide; a genuinely
    # nonlinear monotone B separates them while both still find the zero.
    from splitkit import BoxNormalCone, omega_residual
    dim = 4
    x_star = 0.3 * np.ones(dim)
    v0 = x_star + 0.5 * np.sin(x_star)

    def B_fn(v):
        return v + 0.5 * np.sin(v) - v0       # increasing, Lipschitz 1.5

    B = CustomOperator(dim, forward=B_fn, lipschitz=1.5)
    problem = ProblemTriple(A=ZeroOperator(dim), B=B,
                            C=BoxNormalCone(-np.ones(dim), np.ones(dim)),
                            x_star=x_star)
    z0 = np.full(dim, 0.9)
    traces = {}
    for method, denom in (("BFoRB", 8.0), ("BRFoB", 22.0)):
        lam = 0.9 / (denom * 1.5)
        traces[method] = run(problem, SolverConfig(
            method=method, lam=lam, z0=z0, max_iters=20000, tol=1e-13),
            record_history=True)
        assert traces[method].status == "converged"
        assert np.linalg.norm(traces[method].x_final - x_star) <= 1e-9
        assert omega_residual(problem, lam, traces[method].z_final) <= 1e-10
    # identical stepsizes now: the paths must separate after a few steps
    lam = 0.9 / (22.0 * 1.5)
    ta = run(problem, SolverConfig(method="BFoRB", lam=lam, z0=z0,
                                   max_iters=50, tol=1e-300),
             record_history=True)
    tb = run(problem, SolverConfig(method="BRFoB", lam=lam, z0=z0,
                                   max_iters=50, tol=1e-300),
             record_history=True)
    gaps = [np.linalg.norm(a - b) for a, b in zip(ta.zs, tb.zs)]
    assert max(gaps) > 1e-8


def test_sum_of_squared_steps_bounded():
    # telescoped descent implies sum of squared steps <= phi_0 / eps
    from splitkit import certify_trace
    inst = make_affine_instance(20, 5, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    lam = 0.9 / (8.0 * L)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.ones(20), max_iters=2000,
                                      tol=1e-12), record_history=True)
    report = certify_trace(problem, trace)
    eps = 0.25 - 2 * lam * L
    total = float(np.sum(np.asarray(trace.step_norms[:len(report.lemma_slacks)]) ** 2))
    assert total <= report.summary["phi0"] / eps * (1 + 1e-9)
