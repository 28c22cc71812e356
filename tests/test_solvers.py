import math
import pickle
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitkit import (AffineOperator, BoxNormalCone, CustomOperator, Method,
                      NOT_GUARANTEED, ProblemTriple, SolverConfig, SolverError,
                      ZeroOperator, make_affine_instance, make_saddle_instance,
                      max_stepsize, omega_residual, run, solve_affine_direct)
import splitkit.operators
import splitkit.solvers
from oracles import composed_run, precomposed_run, residual_map, residual_row
from splitkit.solvers import TWO_OPERATOR_METHODS, _BLOCK

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


BOUNDS = {"BFoRB": lambda L, g: Fraction(1, 8) / L,
          "BRFoB": lambda L, g: Fraction(1, 22) / L,
          "FoRB": lambda L, g: Fraction(1, 2) / L,
          "FRDR": lambda L, g: g / (1 + 2 * L * g)}


@pytest.mark.parametrize("method", sorted(BOUNDS))
@pytest.mark.parametrize("L", [1e300, 3e307, float(np.finfo(float).max)])
def test_max_stepsize_positive_where_the_product_overflows(method, L):
    # 8L, 22L, 2L or 2L*gamma overflows here, but the bound is a positive
    # (subnormal, beyond about 1e307) float
    gamma = 1.0 if method == "FRDR" else None
    exact = float(BOUNDS[method](Fraction(L), Fraction(1)))
    got = max_stepsize(method, L, gamma)
    assert got > 0.0
    # 22L rounds before the division; a subnormal keeps fewer digits
    assert abs(got - exact) <= 1e-12 * exact


def test_max_stepsize_bits_unchanged_where_the_product_is_finite():
    # the textbook formulas, wherever they come out positive
    textbook = {"BFoRB": lambda L, g: 1.0 / (8.0 * L),
                "BRFoB": lambda L, g: 1.0 / (22.0 * L),
                "FoRB": lambda L, g: 1.0 / (2.0 * L),
                "FRDR": lambda L, g: g / (1.0 + 2.0 * L * g)}
    r = rng(5)
    Ls = [float(v) for v in 10.0 ** r.uniform(-300.0, 308.25, 3000)]
    gammas = [float(v) for v in 10.0 ** r.uniform(-300.0, 308.0, 3000)]
    for method, formula in textbook.items():
        gamma_of = (lambda g: g) if method == "FRDR" else (lambda g: None)
        for L, g in zip(Ls, gammas):
            want = formula(L, g)
            got = max_stepsize(method, L, gamma_of(g))
            if want > 0.0:
                assert got == want, (method, L, g)
            else:
                assert got == pytest.approx(
                    float(BOUNDS[method](Fraction(L), Fraction(g))),
                    rel=1e-12), (method, L, g)


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
    xs = [x_prev, *t.xs]
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


# run() evaluates the residual rows of a block of steps after the steps.
# The expected values below were recorded when run() evaluated each row
# right after its step: a run ends at the first row whose residual oracle
# raises.  The warnings then named each kind in the order of the rows; in
# the second test that order is also the fixed order that run() now uses.

def test_residual_oracle_raising_first_ends_the_run_at_its_row():
    # DR's steps never evaluate B; the residual's B overflows once |x_k|
    # falls below 1e-6, at row 27, and the steps alone would run on
    B = CustomOperator(1, lipschitz=0.0, forward=lambda v: np.where(
        np.abs(v) < 1e-6, np.inf, 0.0))
    problem = ProblemTriple(A=AffineOperator([[1.0]]), B=B,
                            C=AffineOperator([[0.5]]))
    t = run(problem, SolverConfig(method="DR", lam=0.5, z0=[1.0],
                                  max_iters=1000, tol=1e-300),
            record_history=True)
    assert (t.status, t.iterations, t.forward_evals, t.resolvent_evals,
            t.warnings) == ("diverged", 28, 0, 56, [])
    assert (len(t.step_norms), len(t.zs), len(t.ys), len(t.xs)) == (
        28, 29, 28, 28)
    assert t.step_norms[-2:] == [6.82326912718313e-07, 4.093961476309878e-07]
    assert np.isnan(t.residuals[-1])
    assert t.residuals[:-1] == [omega_residual(problem, 0.5, z)
                                for z in t.zs[:27]]
    assert t.residuals[-3:-1] == [1.137211521197188e-06, 6.82326912718313e-07]
    assert t.z_final.tolist() == [6.140942214464817e-07]
    assert t.x_final.tolist() == [4.093961476309878e-07]
    # BFoRB and BRFoB evaluate B at points of the box [-1, 1], where it is
    # finite; the residual evaluates it at x_1 = -7 and raises, while the
    # steps alone would run until the divergence bound
    B = CustomOperator(1, lipschitz=0.5, forward=lambda v: np.where(
        np.abs(v) > 3.5, np.inf, 0.5 * v))
    problem = ProblemTriple(
        A=CustomOperator(1, resolvent=lambda lam, v: -2.0 * v), B=B,
        C=BoxNormalCone([-1.0], [1.0]))
    for method, fe in (("BFoRB", 4), ("BRFoB", 2)):
        t = run(problem, SolverConfig(method=method, lam=0.1, z0=[1.5],
                                      max_iters=1000,
                                      y_init=([0.0], [0.0])),
                record_history=True)
        assert (t.status, t.iterations, t.forward_evals,
                t.resolvent_evals) == ("diverged", 2, fe, 4)
        assert t.step_norms == [2.0, 6.0] and t.residuals[0] == 2.0
        assert np.isnan(t.residuals[1])
        assert (len(t.zs), len(t.ys), len(t.xs)) == (3, 4, 2)
        assert t.z_final.tolist() == [9.5] and t.x_final.tolist() == [-19.0]


def test_run_without_rows_goes_past_a_raising_residual_oracle():
    # the DR instance above, with diagnostics=False: no residual row calls
    # the overflowing B, so the run goes past row 27 and stops on its own,
    # on an exactly zero step; its counters are those of the steps it kept
    B = CustomOperator(1, lipschitz=0.0, forward=lambda v: np.where(
        np.abs(v) < 1e-6, np.inf, 0.0))
    problem = ProblemTriple(A=AffineOperator([[1.0]]), B=B,
                            C=AffineOperator([[0.5]]))
    config = SolverConfig(method="DR", lam=0.5, z0=[1.0], max_iters=1000,
                          tol=1e-300)
    rows = run(problem, config, record_history=True)
    t = run(problem, config, record_history=True, diagnostics=False)
    assert (t.status, t.iterations, t.forward_evals, t.resolvent_evals,
            t.warnings) == ("converged", 729, 0, 2 * 729, [])
    assert t.residuals is None and t.dist_to_xstar is None
    assert t.step_norms[:28] == rows.step_norms and t.step_norms[-1] == 0.0
    assert (len(t.zs), len(t.ys), len(t.xs)) == (730, 729, 729)
    for name in ("zs", "ys", "xs"):
        assert np.array_equal(getattr(t, name)[:len(getattr(rows, name))],
                              getattr(rows, name))
    assert t.z_final.tolist() == t.zs[-1].tolist()


def test_kind_fired_only_by_a_residual_row_is_named_only_with_rows():
    # DR's steps never evaluate B; the residual's B overflows (exp) once
    # |x_k| < 1e-2 and returns 0: only the rows fire the overflow, and a
    # run without them names no kind and keeps every other field
    def B_fwd(v):
        return np.minimum(np.exp(710.0 * (np.abs(v) < 1e-2)), 0.0)

    problem = ProblemTriple(A=AffineOperator([[1.0]]),
                            B=CustomOperator(1, forward=B_fwd, lipschitz=0.0),
                            C=AffineOperator([[0.5]]))
    config = SolverConfig(method="DR", lam=0.5, z0=[1.0], max_iters=600,
                          tol=1e-300)
    rows = run(problem, config)
    t = run(problem, config, diagnostics=False)
    assert rows.warnings == ["floating-point overflow encountered"]
    assert t.warnings == [] and t.residuals is None
    assert (t.status, t.iterations, t.forward_evals, t.resolvent_evals) == (
        rows.status, rows.iterations, rows.forward_evals,
        rows.resolvent_evals) == ("max_iters", 600, 0, 1200)
    assert t.step_norms == rows.step_norms
    assert t.z_final.tobytes() == rows.z_final.tobytes()


def test_floating_point_kinds_named_in_row_order():
    # both oracles return finite values: the residual's B overflows (exp)
    # once |x_k| < 1e-2, and the step's A divides by zero once |z_k| <
    # 1e-3, some rows later but within the same block
    def B_fwd(v):
        return np.minimum(np.exp(710.0 * (np.abs(v) < 1e-2)), 0.0)

    def A_res(lam, v):
        ones = (np.abs(v) >= 1e-3).astype(float)
        return v / (1.0 + lam) + np.minimum(np.divide(1.0, ones), 0.0)

    problem = ProblemTriple(A=CustomOperator(1, resolvent=A_res),
                            B=CustomOperator(1, forward=B_fwd, lipschitz=0.0),
                            C=AffineOperator([[0.5]]))
    for method, fe, re in (("DR", 0, 1200), ("BFoRB", 601, 1201)):
        t = run(problem, SolverConfig(method=method, lam=0.5, z0=[1.0],
                                      max_iters=600, tol=1e-300))
        assert (t.status, t.iterations, t.forward_evals,
                t.resolvent_evals) == ("max_iters", 600, fe, re)
        assert t.warnings == ["floating-point overflow encountered",
                              "floating-point divide by zero encountered"]
        assert t.residuals[-1] == 5.183928121485023e-134
        assert t.z_final.tolist() == [7.7758921822275355e-134]


def test_floating_point_kinds_named_in_a_fixed_order():
    # the step's A divides by zero once |z_k| < 1e-2 and takes the square
    # root of -1 once |z_k| < 1e-3; the residual's B overflows only once
    # |x_k| < 1e-4, rows later: the warnings still name overflow first,
    # then the invalid value, then the division by zero
    def B_fwd(v):
        return np.minimum(np.exp(710.0 * (np.abs(v) < 1e-4)), 0.0)

    def A_res(lam, v):
        ones = (np.abs(v) >= 1e-2).astype(float)
        root = np.sqrt(-(np.abs(v) < 1e-3).astype(float))
        return (v / (1.0 + lam) + np.minimum(np.divide(1.0, ones), 0.0)
                + 0.0 * np.isnan(root))

    problem = ProblemTriple(A=CustomOperator(1, resolvent=A_res),
                            B=CustomOperator(1, forward=B_fwd, lipschitz=0.0),
                            C=AffineOperator([[0.5]]))
    for method in ("DR", "BFoRB"):
        t = run(problem, SolverConfig(method=method, lam=0.5, z0=[1.0],
                                      max_iters=600, tol=1e-300))
        assert (t.status, t.iterations) == ("max_iters", 600)
        assert t.warnings == ["floating-point overflow encountered",
                              "floating-point invalid value encountered",
                              "floating-point divide by zero encountered"]


def test_run_cut_at_a_raising_row_names_only_the_kinds_it_keeps():
    # the residual raises at row 27, as above; the step's A takes the
    # square root of -1 from |z_k| < 1e-3 (row 14) on, and divides by zero
    # from |z_k| < 3e-7 on, in steps that the block ran after row 27 but
    # the cut run does not keep
    def A_res(lam, v):
        ones = (np.abs(v) >= 3e-7).astype(float)
        root = np.sqrt(-(np.abs(v) < 1e-3).astype(float))
        return (v / (1.0 + lam) + np.minimum(np.divide(1.0, ones), 0.0)
                + 0.0 * np.isnan(root))

    def problem(limit):
        B = CustomOperator(1, lipschitz=0.0, forward=lambda v: np.where(
            np.abs(v) < limit, np.inf, 0.0))
        return ProblemTriple(A=CustomOperator(1, resolvent=A_res), B=B,
                             C=AffineOperator([[0.5]]))

    config = SolverConfig(method="DR", lam=0.5, z0=[1.0], max_iters=40,
                          tol=1e-300)
    cut, whole = run(problem(1e-6), config), run(problem(0.0), config)
    assert (cut.status, cut.iterations) == ("diverged", 28)
    assert cut.warnings == ["floating-point invalid value encountered"]
    assert (whole.status, whole.iterations) == ("max_iters", 40)
    assert whole.warnings == ["floating-point invalid value encountered",
                              "floating-point divide by zero encountered"]


def _dr_cut_problem(cut=None, step_error=None):
    """A 1-D DR triple whose run from z_0 = 1 at lam = 0.5 has z_k = 0.6^k
    up to rounding.  The residual's B raises ``NonFiniteError`` from row
    ``cut`` on, and the step's A raises ``ValueError`` from step
    ``step_error`` on (None: never)."""
    def A_res(lam, v):
        if step_error is not None and abs(v[0]) < 0.6 ** (step_error - 0.5):
            raise ValueError("step error")
        return v / (1.0 + lam)

    limit = 0.0 if cut is None else 0.6 ** (cut - 0.5) / 1.5
    B = CustomOperator(1, lipschitz=0.0, forward=lambda v: np.where(
        np.abs(v) < limit, np.inf, 0.0))
    return ProblemTriple(A=CustomOperator(1, resolvent=A_res), B=B,
                         C=AffineOperator([[0.5]]))


_DR_CUT_CONFIG = SolverConfig(method="DR", lam=0.5, z0=[1.0], max_iters=200,
                              tol=1e-300)


@pytest.mark.parametrize("cut", [63, 64, 65, 128])
def test_run_cut_at_a_raising_row_around_a_block_boundary(cut):
    # the run keeps the steps up to the raising row, their histories and the
    # iterates after it, and the rows before it: those of the uncut run
    ref = run(_dr_cut_problem(), _DR_CUT_CONFIG, record_history=True)
    t = run(_dr_cut_problem(cut), _DR_CUT_CONFIG, record_history=True)
    assert (t.status, t.iterations, t.forward_evals, t.resolvent_evals) == (
        "diverged", cut + 1, 0, 2 * (cut + 1))
    assert (len(t.zs), len(t.xs), len(t.ys)) == (cut + 2, cut + 1, cut + 1)
    for name, n in (("zs", cut + 2), ("xs", cut + 1), ("ys", cut + 1)):
        assert np.array_equal(getattr(t, name), getattr(ref, name)[:n])
    assert t.step_norms == ref.step_norms[:cut + 1]
    assert t.residuals[:cut] == ref.residuals[:cut]
    assert np.isnan(t.residuals[cut])
    assert np.array_equal(t.z_final, ref.zs[cut + 1])
    assert np.array_equal(t.x_final, ref.xs[cut + 1])


@pytest.mark.parametrize("cut, step_error", [(10, 20), (30, 63)])
def test_step_error_after_a_cut_row_in_its_block_ends_the_run_there(
        cut, step_error):
    # the step raises after the block's raising row: the row comes first,
    # and the run ends "diverged" at it as if the step had not raised
    want = vars(run(_dr_cut_problem(cut), _DR_CUT_CONFIG,
                    record_history=True))
    t = run(_dr_cut_problem(cut, step_error), _DR_CUT_CONFIG,
            record_history=True)
    assert (t.status, t.iterations) == ("diverged", cut + 1)
    _assert_trace_is(t, want)
    # without the raising row, the step's error propagates
    with pytest.raises(ValueError, match="step error"):
        run(_dr_cut_problem(None, step_error), _DR_CUT_CONFIG)


def test_closing_resolvent_error_after_a_cut_row_is_dropped():
    # row 63 ends the run at z_64, from which A raises: the closing
    # J_{lam*A}(z_final) belongs to a step that the run does not take, so
    # its error is dropped, as the step's own would be, and x_final stays
    # the last kept x
    want = vars(run(_dr_cut_problem(63), _DR_CUT_CONFIG,
                    record_history=True))
    t = run(_dr_cut_problem(63, 64), _DR_CUT_CONFIG, record_history=True)
    assert (t.status, t.iterations) == ("diverged", 64)
    assert np.array_equal(t.x_final, t.xs[-1])
    assert not np.array_equal(t.x_final, want.pop("x_final"))
    _assert_trace_is(t, want)


def test_steps_that_fire_a_named_kind_take_one_pass_per_block(monkeypatch):
    # A divides by zero at every call, so every step fires an event; once
    # the run holds the kind, a pass goes on past such steps whose z is
    # finite: the 729 steps take one pass per block (two in the first,
    # which ends at the step that first fires the kind), each one row_norms
    # call after the one of z_0, and the run is the per-step run bit for bit
    def A_res(lam, v):
        np.divide(1.0, np.zeros(1))
        return v / (1.0 + lam)

    problem = ProblemTriple(A=CustomOperator(1, resolvent=A_res),
                            B=ZeroOperator(1), C=AffineOperator([[0.5]]))
    config = SolverConfig(method="DR", lam=0.5, z0=[1.0], max_iters=1000,
                          tol=1e-300)
    calls, row_norms = [], splitkit.solvers.row_norms
    monkeypatch.setattr(splitkit.solvers, "row_norms",
                        lambda V: calls.append(V.shape) or row_norms(V))
    t = run(problem, config, record_history=True)
    assert (t.status, t.iterations) == ("converged", 729)
    assert t.warnings == ["floating-point divide by zero encountered"]
    assert len(calls) == 1 + math.ceil(729 / _BLOCK) + 1
    _assert_trace_is(t, composed_run(problem, config, True))


@pytest.mark.parametrize("method, counters", [("BFoRB", (1, 1)),
                                              ("BRFoB", (0, 1))])
def test_counters_count_the_warm_start_when_the_first_step_fails(method,
                                                                 counters):
    # A returns inf from its second call on, the first step's: the run
    # ends after no step, and the counters hold the warm start's calls
    def problem():
        calls = []

        def A_res(lam, v):
            calls.append(v)
            return v / (1.0 + lam) if len(calls) < 2 else np.full(2, np.inf)

        return ProblemTriple(A=CustomOperator(2, resolvent=A_res),
                             B=AffineOperator(np.eye(2)), C=ZeroOperator(2))

    config = SolverConfig(method=method, lam=0.1, z0=np.ones(2),
                          max_iters=10)
    t = run(problem(), config)
    assert (t.status, t.iterations) == ("diverged", 0)
    assert (t.forward_evals, t.resolvent_evals) == counters
    _assert_trace_is(t, composed_run(problem(), config))


@pytest.mark.parametrize("method", ["BFoRB", "DR", "FRDR"])
def test_run_singular_resolvent_ends_diverged(method):
    # I + lam*M is invertible for monotone M, but at lam = 1e300 it rounds
    # to the singular lam*M: J_{lam*A} cannot be formed, and the run ends
    # "diverged" with no exception and no warning
    problem = ProblemTriple(A=AffineOperator([[1.0, 1.0], [1.0, 1.0]]),
                            B=AffineOperator(SKEW2), C=ZeroOperator(2))
    kwargs = {"gamma": 2e300} if method == "FRDR" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=1e300,
                                      z0=np.ones(2), max_iters=50, **kwargs))
    assert t.status == "diverged"
    assert np.isfinite(t.z_final).all() and np.isfinite(t.x_final).all()


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
    # run() evaluates the rows per block: lengths at the block's edges
    for length in (40, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        trace = run(problem, SolverConfig(
            method=method, lam=lam, z0=np.ones(12), max_iters=length,
            tol=1e-300, gamma=gamma), record_history=True)
        assert trace.status == "max_iters"
        assert len(trace.residuals) == length
        _assert_rows_are_one_point_values(trace, problem, history, shift,
                                          method == "DavisYin"
                                          or variant == "B=0")


#: The methods whose residual rows on a precomposed triple are |R p + r|.
_MAPPED = ("BFoRB", "BRFoB", "FRDR")


def _assert_rows_are_one_point_values(trace, problem, history, shift,
                                      residual_is_step):
    """Row k of the residuals is that of ``history[k + shift]``, and row k
    of the distances (if any) ``|x - x_star|`` of the step's x, bit for
    bit, as lists of Python floats: on an affine triple with ``A != 0``,
    the residual of BFoRB, BRFoB and FRDR is the norm of the residual map's
    row, within rounding of omega_residual's, and every other residual
    that of omega_residual (Davis-Yin's and, with ``B = 0``, DR's is the
    step norm, within rounding)."""
    omega = (residual_map(problem, trace.lam)
             if trace.method.value in _MAPPED and problem.A.kind == "affine"
             else None)
    points = getattr(trace, history)
    xs = trace.xs[trace.method in TWO_OPERATOR_METHODS:]
    dists = trace.dist_to_xstar
    for series in [trace.residuals] + ([] if dists is None else [dists]):
        assert type(series) is list and len(series) == trace.iterations
        assert all(type(v) is float for v in series)
    for k, res in enumerate(trace.residuals):
        point = points[k + shift]
        if residual_is_step:
            assert res == trace.step_norms[k]
        else:
            assert res == residual_row(omega, problem, trace.lam, point)
        assert abs(res - omega_residual(problem, trace.lam, point)) <= (
            1e-15 * (1.0 + np.linalg.norm(point)))
        if dists is not None:
            assert dists[k] == np.linalg.norm(xs[k] - problem.x_star)


@pytest.mark.parametrize("method,variant,history,shift", [
    ("BFoRB", "full", "zs", 0), ("FRDR", "full", "zs", 1),
    ("FoRB", "A=0", "xs", 1)])
def test_residual_rows_of_a_run_that_stops_mid_block(method, variant,
                                                     history, shift):
    # converged after 545, 306 and 493 steps: the last block is partial
    full = make_affine_instance(12, 4, 0.8).triple()
    problem = full if variant == "full" else ProblemTriple(
        ZeroOperator(12), full.B, full.C)
    L = full.B.lipschitz
    gamma = 1.0 / L if method == "FRDR" else None
    trace = run(problem, SolverConfig(
        method=method, lam=0.5 * max_stepsize(method, L, gamma),
        z0=np.ones(12), max_iters=20000, tol=1e-6 if method == "BFoRB"
        else 1e-8, gamma=gamma), record_history=True)
    assert trace.status == "converged"
    assert trace.iterations in (545, 306, 493)
    _assert_rows_are_one_point_values(trace, problem, history, shift, False)


def test_residual_map_row_is_kept_where_the_composed_row_overflows():
    # at z_0 = 1e300, B(x_0) = 1e310 overflows, so the composed residual of
    # z_0 raises, as omega_residual does; the residual map's row R z_0 + r
    # = -1.01e300 is finite, and the precomposed BFoRB run keeps it
    problem = ProblemTriple(A=AffineOperator([[0.0]]),
                            B=AffineOperator([[1e10]]),
                            C=AffineOperator([[1e12]]))
    config = SolverConfig(method="BFoRB", lam=1.0, z0=[1e300], max_iters=3,
                          tol=1e-300)
    with np.errstate(over="ignore"), pytest.raises(
            splitkit.operators.NonFiniteError):
        omega_residual(problem, 1.0, config.z0)
    t = run(problem, config)
    assert (t.status, t.iterations) == ("max_iters", 3)
    omega = residual_map(problem, 1.0)
    assert t.residuals[0] == residual_row(omega, problem, 1.0, config.z0)
    assert t.residuals[0] == pytest.approx(1.01e300, rel=1e-12)


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
    problem = make_affine_instance(3, 1, 0.8).triple()
    with pytest.raises(SolverError, match="z0 has dim 1, problem has 3"):
        run(problem, SolverConfig(method="DR", lam=0.1, z0=[1.0]))


@pytest.mark.parametrize("max_iters", [float("nan"), 10.5, 1e3, "7", None,
                                       0, -3, np.int64(0)])
def test_config_rejects_max_iters_that_is_not_a_positive_integer(max_iters):
    # a float or a string used to reach range() or the comparison in run()
    # and raise a bare TypeError there
    with pytest.raises(SolverError, match="max_iters"):
        SolverConfig(method="DR", lam=0.1, z0=[1.0], max_iters=max_iters)


@pytest.mark.parametrize("max_iters", [3, np.int64(3), np.int32(3)])
def test_config_accepts_integer_max_iters(max_iters):
    t = run(identity_B_problem(), SolverConfig(
        method="FB", lam=0.1, z0=[1.0], max_iters=max_iters, tol=1e-300))
    assert (t.status, t.iterations) == ("max_iters", 3)


@pytest.mark.parametrize("method", [m for m in Method if m is not Method.DR])
def test_run_names_an_overflow_inside_the_gemv_of_B(method):
    # each product of B(z0) is finite (0.9e308), their sum is not: only the
    # gemv of B's forward oracle overflows (FB stops at that step, before
    # any other product), and run() names the event without a warning
    B = AffineOperator(0.6e308 * np.array([[1.0, 1.0], [-1.0, 1.0]]))
    problem = ProblemTriple(A=ZeroOperator(2), B=B, C=ZeroOperator(2))
    kwargs = {"gamma": 2.0} if method is Method.FRDR else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=1.0, z0=[1.5, 1.5],
                                      max_iters=20, **kwargs))
    assert t.status == "diverged"
    assert "floating-point overflow encountered" in t.warnings


@pytest.mark.parametrize("method", ["BFoRB", "DR", "FoRB"])
def test_run_names_an_overflow_in_the_norm_of_z0(method):
    # |z0| is finite, but its dot product overflows: run() names the event
    # instead of letting numpy's warning escape
    problem = make_affine_instance(dim=5, seed=1, skew_fraction=0.8).triple()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=1e-12,
                                      z0=1e155 * np.ones(5)))
    assert "floating-point overflow encountered" in t.warnings


@pytest.mark.parametrize("method", ["BFoRB", "DR", "FoRB"])
def test_run_from_beyond_1e154_does_not_converge_falsely(method):
    # the squares of z0 = 1e155*ones overflow: the threshold tol*(1 + |z_k|)
    # and the divergence bound were inf, and the run ended "converged" after
    # one step of relative size 1e-3.  Its norms are taken again, rescaled,
    # so it runs on as it does from 1e140*ones
    problem = make_affine_instance(dim=5, seed=1, skew_fraction=0.8).triple()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=1e-3,
                                      z0=1e155 * np.ones(5), tol=1e-8,
                                      max_iters=20), record_history=True)
    assert (t.status, t.iterations) == ("max_iters", 20)
    assert "floating-point overflow encountered" in t.warnings
    iterates = t.xs if method == "FoRB" else t.zs
    for k, step in enumerate(t.step_norms):
        assert step == pytest.approx(
            math.hypot(*(iterates[k + 1] - iterates[k])), rel=1e-14)
        assert 1e-4 < step / math.hypot(*iterates[k]) < 1e-2


@pytest.mark.parametrize("method", list(Method))
def test_steps_whose_squares_overflow_do_not_end_the_run(method):
    # from 0.9*sqrt(max float) the rotation B at lam = 2 more than doubles
    # |z|: the squares of the first step and iterate overflow, though both
    # are finite and far below the divergence bound 1e12*(1 + |z0|).  The run
    # used to end "diverged" at step 1.  A and C are affine, so BFoRB,
    # BRFoB, Davis-Yin and FRDR take the precomposed step.
    problem = ProblemTriple(A=AffineOperator(0.01 * np.eye(2)),
                            B=AffineOperator(SKEW2),
                            C=AffineOperator(0.01 * np.eye(2)))
    root_max = math.sqrt(np.finfo(float).max)
    kwargs = {"gamma": 4.0} if method is Method.FRDR else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=2.0,
                                      z0=[0.9 * root_max, 0.0], max_iters=3,
                                      **kwargs), record_history=True)
    assert (t.status, t.iterations) == ("max_iters", 3)
    assert all(math.isfinite(step) for step in t.step_norms)
    assert np.isfinite(t.z_final).all() and np.isfinite(t.x_final).all()
    if method is not Method.DR:                 # DR ignores B: small steps
        assert t.step_norms[0] > root_max
    if method is not Method.FRDR:               # FRDR's step norm adds lam*|du|
        iterates = t.xs if method in TWO_OPERATOR_METHODS else t.zs
        for k, step in enumerate(t.step_norms):
            assert step == pytest.approx(
                math.hypot(*(iterates[k + 1] - iterates[k])), rel=1e-14)


# ------------------------------------------------- precomposed affine steps

def test_precomposed_runs_form_no_more_inverses(monkeypatch):
    # a run forms J_{lam*A} and J_{lam*C} once each (FRDR also J_{gamma*C}),
    # whether or not it precomposes its step
    calls = []
    inverse = splitkit.operators.resolvent_matrix

    def counted(M, lam):
        calls.append(lam)
        return inverse(M, lam)

    monkeypatch.setattr(splitkit.operators, "resolvent_matrix", counted)
    problem = make_affine_instance(8, 2, 0.8).triple()
    for method in Method:
        kwargs = {"gamma": 0.5} if method is Method.FRDR else {}
        calls.clear()
        t = run(problem, SolverConfig(method=method, lam=0.01, z0=np.ones(8),
                                      max_iters=5, tol=1e-300, **kwargs),
                record_history=True)
        assert t.iterations == 5
        assert len(calls) == (3 if method is Method.FRDR else 2)
        # each recorded series is an array of its own, not a view
        for series in (t.zs, t.ys, t.xs):
            assert series is None or series.base is None


@pytest.mark.parametrize("method", ["BFoRB", "BRFoB", "DavisYin", "FRDR"])
def test_singular_resolvent_of_an_affine_triple_takes_the_oracle_route(
        method):
    # J_{lam*A} is all NaN, so the step is not precomposed: the oracles
    # raise at the first resolve, and the run ends "diverged" at its start
    # with no exception and no warning
    problem = ProblemTriple(A=AffineOperator([[1.0, 1.0], [1.0, 1.0]]),
                            B=AffineOperator(SKEW2),
                            C=AffineOperator(np.eye(2)))
    kwargs = {"gamma": 2e300} if method == "FRDR" else {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=1e300,
                                      z0=np.ones(2), max_iters=50, **kwargs))
    assert (t.status, t.iterations) == ("diverged", 0)
    assert not any(w.startswith("floating-point") for w in t.warnings)
    assert np.array_equal(t.z_final, np.ones(2))
    assert np.array_equal(t.x_final, np.ones(2))


def _assert_trace_is(trace, ref):
    """``trace`` has every field of the reference dict ``ref``, in every
    bit (NaN rows included)."""
    for key, want in ref.items():
        got = getattr(trace, key)
        if key in ("zs", "xs", "ys", "z_final", "x_final"):
            want, got = np.array(want), np.array(got)
            assert want.shape == got.shape, key
            assert want.tobytes() == got.tobytes(), key
        elif key in ("step_norms", "residuals", "dist_to_xstar") and want:
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array(want).tobytes() == np.array(got).tobytes(), key
        else:
            assert got == want, key


_LIFTED = ["BFoRB", "BRFoB", "DavisYin", "FRDR"]


def _lifted_config(problem, method, **kwargs):
    L = problem.B.lipschitz
    gamma = 1.0 / L if method == "FRDR" else None
    lam = 0.9 * (max_stepsize(method, L, gamma) or max_stepsize("BRFoB", L))
    return SolverConfig(method=method, lam=lam, z0=np.ones(problem.dim),
                        gamma=gamma, **kwargs)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("max_iters", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                       2 * _BLOCK + 1])
@pytest.mark.parametrize("method", _LIFTED)
def test_block_path_is_the_per_step_precomposed_run(method, max_iters,
                                                    record):
    # run() steps the precomposed methods a block at a time; a run of
    # max_iters steps, whatever its blocks, is the per-step run in every bit
    problem = make_affine_instance(12, 4, 0.8).triple()
    config = _lifted_config(problem, method, max_iters=max_iters,
                            tol=1e-300)
    trace = run(problem, config, record_history=record)
    assert (trace.status, trace.iterations) == ("max_iters", max_iters)
    _assert_trace_is(trace, precomposed_run(problem, config, record))


@pytest.mark.parametrize("method", _LIFTED)
def test_block_path_converging_mid_block_is_the_per_step_run(method):
    # the steps of the block after the converged one are discarded
    problem = make_affine_instance(12, 4, 0.8).triple()
    config = _lifted_config(problem, method, max_iters=20000, tol=1e-6)
    for record in (False, True):
        trace = run(problem, config, record_history=record)
        assert trace.status == "converged"
        assert trace.iterations % _BLOCK not in (0, 1)
        _assert_trace_is(trace, precomposed_run(problem, config, record))


@pytest.mark.parametrize("method", _LIFTED)
def test_discarded_steps_after_the_stop_name_no_kind(method, monkeypatch):
    # at lam = 1e6 the iterates grow about 1e6-fold per step: the run stops
    # (diverged, or converged at tol = 1e300) within 3 steps, and the steps
    # of its block after the stop overflow, but name nothing
    problem = ProblemTriple(A=AffineOperator(np.zeros((2, 2))),
                            B=AffineOperator(SKEW2),
                            C=AffineOperator(np.zeros((2, 2))))
    kwargs = {"gamma": 2e6} if method == "FRDR" else {}
    for tol, status in ((1e-8, "diverged"), (1e300, "converged")):
        config = SolverConfig(method=method, lam=1e6, z0=[1.0, 0.0],
                              max_iters=_BLOCK, tol=tol, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(problem, config, record_history=True)
        assert trace.status == status and trace.iterations <= 3
        assert not any(w.startswith("floating-point") for w in trace.warnings)
        _assert_trace_is(trace, precomposed_run(problem, config, True))
    # without the divergence bound the same block overflows (the template
    # methods named an invalid value only through J_{lam*A} of their
    # non-finite z_final, which run() no longer evaluates)
    monkeypatch.setattr(splitkit.solvers, "DIVERGE_FACTOR", math.inf)
    trace = run(problem, SolverConfig(method=method, lam=1e6, z0=[1.0, 0.0],
                                      max_iters=_BLOCK, **kwargs))
    assert trace.status == "diverged" and trace.iterations < _BLOCK
    assert "floating-point overflow encountered" in trace.warnings


def _composed_problem(name):
    """A triple that run() does not precompose, and its B's Lipschitz
    constant (B = 0: that of the affine instance it comes from)."""
    full = make_affine_instance(12, 4, 0.8).triple()
    if name == "saddle":
        problem = make_saddle_instance(4, 6, 2, 0.5, 1.0).triple()
        return problem, problem.B.lipschitz
    return {"custom": _custom_triple(full),
            "A=0": ProblemTriple(ZeroOperator(12), full.B, full.C),
            "B=0": ProblemTriple(full.A, ZeroOperator(12), full.C),
            "affine": full}[name], full.B.lipschitz


def _composed_config(problem, L, method, **kwargs):
    gamma = 1.0 / L if method == "FRDR" else None
    lam = 0.5 * (max_stepsize(method, L, gamma) or max_stepsize("BRFoB", L))
    return SolverConfig(method=method, lam=lam, z0=np.ones(problem.dim),
                        gamma=gamma, **kwargs)


@pytest.mark.parametrize("name,method", [
    (name, method.value) for name in ("saddle", "custom", "A=0", "B=0")
    for method in Method] + [
    ("affine", method) for method in ("FB", "FoRB", "RFoB", "DR")])
def test_composed_block_path_is_the_per_step_composed_run(name, method):
    # every run that is not precomposed takes its composed steps a block at
    # a time, in place; whatever its blocks, and wherever it stops, it is
    # the run of one composed step at a time in every bit
    problem, L = _composed_problem(name)
    for max_iters in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        config = _composed_config(problem, L, method, max_iters=max_iters,
                                  tol=1e-300)
        for record in (False, True):
            trace = run(problem, config, record_history=record)
            _assert_trace_is(trace, composed_run(problem, config, record))
    # a run that stops before its block ends (FB and RFoB on the saddle
    # neither converge nor diverge at tol = 1e-4)
    for tol in (1e-4, 1e-2):
        config = _composed_config(problem, L, method, max_iters=2000, tol=tol)
        trace = run(problem, config, record_history=True)
        if trace.status != "max_iters":
            break
    assert trace.status != "max_iters" and trace.iterations % _BLOCK != 0
    _assert_trace_is(trace, composed_run(problem, config, True))
    _assert_trace_is(run(problem, config), composed_run(problem, config))


@pytest.mark.parametrize("method", [method.value for method in Method])
def test_recorded_series_are_one_array_each(method, monkeypatch):
    # every recorded series is one C-contiguous float64 array that owns its
    # rows, shares no memory with the stepper's block arrays, and is row
    # for row the per-step run's: for runs of 1, 63, 64, 65 and 129 steps,
    # one of 300 past two doublings of its buffer (67 -> 134 -> 268 ->
    # 536 rows), on both routes, and for diverged runs
    steppers = []
    for name in ("_Template", "_TwoOp", "_FRDR"):
        cls = getattr(splitkit.solvers, name)
        monkeypatch.setattr(splitkit.solvers, name, lambda *args, cls=cls: (
            steppers.append(cls(*args)) or steppers[-1]))

    def check(trace):   # the stepper is missing if its warm start failed
        blocks = [v for stepper in steppers for v in vars(stepper).values()
                  if isinstance(v, np.ndarray)]
        steppers.clear()
        for name in ("zs", "xs", "ys"):
            series = getattr(trace, name)
            if series is None:
                assert name != "xs" and method in TWO_OPERATOR_METHODS
                continue
            assert series.dtype == np.float64 and series.ndim == 2
            assert series.flags.c_contiguous and series.flags.owndata
            assert series.base is None
            assert not any(np.shares_memory(series, b) for b in blocks)

    affine = make_affine_instance(6, 2, 0.8).triple()
    for problem in (affine, _custom_triple(affine)):
        lifted = problem is affine and method in _LIFTED
        for max_iters in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                          300):
            config = _composed_config(problem, affine.B.lipschitz, method,
                                      max_iters=max_iters, tol=1e-300)
            trace = run(problem, config, record_history=True)
            assert trace.iterations == max_iters
            check(trace)
            _assert_trace_is(trace, (precomposed_run if lifted
                                     else composed_run)(problem, config, True))
    # diverged past the bound (the resolvents v -> -2v drive |z| up
    # geometrically), and at the first step (no x recorded)
    grow = CustomOperator(2, resolvent=lambda lam, v: -2.0 * v)
    problem = ProblemTriple(A=grow, B=AffineOperator(0.1 * SKEW2), C=grow)
    config = SolverConfig(method=method, lam=0.1, z0=np.ones(2),
                          gamma=1.0 if method == "FRDR" else None)
    trace = run(problem, config, record_history=True)
    assert trace.status == "diverged" and trace.iterations > 1
    check(trace)
    _assert_trace_is(trace, composed_run(problem, config, True))
    blown = ProblemTriple(
        A=CustomOperator(2, resolvent=lambda lam, v: np.full(2, np.inf)),
        B=CustomOperator(2, forward=lambda v: np.full(2, np.inf),
                         lipschitz=1.0), C=ZeroOperator(2))
    trace = run(blown, SolverConfig(method=method, lam=0.1, z0=np.ones(2),
                                    gamma=1.0 if method == "FRDR" else None),
                record_history=True)
    assert (trace.status, trace.iterations) == ("diverged", 0)
    if method not in TWO_OPERATOR_METHODS:
        assert trace.xs.shape == (0, 2)
    check(trace)


@pytest.mark.parametrize("method", ["DR", "DavisYin", "BFoRB"])
def test_no_oracle_sees_a_non_finite_argument(method, monkeypatch):
    # without the divergence bound, C's clipped output drives |z| to the
    # end of the float range, and at step 104, in mid-block, z + y - x
    # overflows.  The block's pass ends at that step, so no oracle is
    # called on the non-finite z: neither the next step's J_{lam*A} nor
    # the one of x_final.  Status, count and warnings are those of one
    # step at a time
    seen = []

    def finite(v):
        if not np.isfinite(v).all():
            seen.append(v.copy())
        return v

    problem = ProblemTriple(
        A=CustomOperator(2, resolvent=lambda lam, v: 1e-3 * finite(v)),
        B=CustomOperator(2, forward=lambda v: 1e-3 * finite(v),
                         lipschitz=1e-3),
        C=CustomOperator(2, resolvent=lambda lam, v: np.clip(
            -1e3 * finite(v), -1e308, 1e308)))
    monkeypatch.setattr(splitkit.solvers, "DIVERGE_FACTOR", math.inf)
    config = SolverConfig(method=method, lam=1.0, z0=[1.0, -2.0],
                          max_iters=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(problem, config, record_history=True)
    assert (trace.status, trace.iterations, trace.warnings) == (
        "diverged", 104, ["floating-point overflow encountered"])
    assert seen == []
    assert not np.isfinite(trace.z_final).all()
    assert np.isfinite(trace.x_final).all()
    _assert_trace_is(trace, composed_run(problem, config, True))


@pytest.mark.parametrize("method", ["FoRB", "RFoB"])
def test_run_whose_bound_overflows_does_not_converge_falsely(method):
    # from 1e300*ones the bound 1e12*(1 + |z0|) is inf, so every finite
    # norm passes the divergence test.  The composed step kept an iterate
    # norm whose squares overflow unscaled (inf), and the next step
    # "converged" against the threshold tol*(1 + inf) with a step of 2.8;
    # every norm that is not finite is now taken again, rescaled
    problem = make_saddle_instance(4, 6, 2, 0.5, 1.0).triple()
    lam = 50.0 * max_stepsize("FoRB" if method == "FoRB" else "BRFoB",
                              problem.B.lipschitz)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = run(problem, SolverConfig(method=method, lam=lam,
                                      z0=1e300 * np.ones(10), tol=1e-300,
                                      max_iters=65), record_history=True)
    assert t.status == "converged"
    assert t.step_norms[-1] <= 1e-300 * (1.0 + math.hypot(*t.xs[-2]))


def _custom_triple(problem):
    """The triple behind CustomOperator oracles, which run() drives through
    the prepared oracles whatever the operators are."""
    def wrap(op):
        return CustomOperator(op.dim, resolvent=op.resolve,
                              forward=op.forward if op.has_forward else None,
                              lipschitz=op.lipschitz)
    return ProblemTriple(wrap(problem.A), wrap(problem.B), wrap(problem.C),
                         x_star=problem.x_star)


def test_oracle_route_is_the_composed_step_bit_for_bit():
    # BFoRB and FRDR on custom operators are the 20-step loops below,
    # composed by hand through the prepared oracles, in every bit
    problem = _custom_triple(make_affine_instance(6, 3, 0.8).triple())
    lam, gamma, n = 0.02, 0.2, 20
    A_res, C_res = problem.prepare(lam)
    B = problem.B.forward

    z = np.ones(6)
    y1 = y2 = A_res(z)
    By1 = By2 = B(y1)
    zs, xs, ys, steps = [z], [], [y2, y1], []
    for _ in range(n):
        x = A_res(z)
        F = 2.0 * By1 - By2
        w = 2.0 * x - z
        y = C_res(w - lam * F)
        z_next = z + y - x
        By2, By1 = By1, B(y)
        zs.append(z_next), xs.append(x), ys.append(y)
        steps.append(np.linalg.norm(z_next - z))
        z = z_next
    t = run(problem, SolverConfig(method="BFoRB", lam=lam, z0=np.ones(6),
                                  max_iters=n, tol=1e-300),
            record_history=True)
    assert (t.forward_evals, t.resolvent_evals) == (n + 1, 2 * n + 1)
    for got, want in ((t.zs, zs), (t.xs, xs), (t.ys, ys)):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert t.step_norms == steps
    assert t.residuals == [omega_residual(problem, lam, v) for v in zs[:n]]

    Cg_res = problem.C.prepare(gamma)
    x = np.ones(6)
    Bx = Bx_prev = B(x)
    u = np.zeros(6)
    zs, xs, ys, steps = [x], [], [], []
    for _ in range(n):
        w = x - lam * u - lam * (2.0 * Bx - Bx_prev)
        x_next = A_res(w)
        r = 2.0 * x_next - x
        y = Cg_res(r + gamma * u)
        u_next = u + (r - y) / gamma
        Bx_prev, Bx = Bx, B(x_next)
        zs.append(w), xs.append(x_next), ys.append(y)
        steps.append(np.linalg.norm(x_next - x)
                     + lam * np.linalg.norm(u_next - u))
        x, u = x_next, u_next
    t = run(problem, SolverConfig(method="FRDR", lam=lam, gamma=gamma,
                                  z0=np.ones(6), max_iters=n, tol=1e-300),
            record_history=True)
    assert (t.forward_evals, t.resolvent_evals) == (n + 1, 2 * n)
    for got, want in ((t.zs, zs), (t.xs, xs), (t.ys, ys)):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert t.step_norms == steps
    assert t.residuals == [omega_residual(problem, lam, v) for v in zs[1:]]


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
