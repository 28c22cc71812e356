import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from splitkit import (AffineOperator, AlignmentError, BoxNormalCone,
                      CustomOperator, InnerSolveError, OperatorError,
                      ProblemTriple, ScaledL1, SolverConfig, ZeroOperator,
                      discretization_gap, make_affine_instance,
                      make_saddle_instance, max_stepsize, omega_residual, run,
                      simulate_dr_flow, simulate_ppa)
from splitkit.operators import NonFiniteError, row_norms
import splitkit.dynamics


def scalar_identity_B():
    return ProblemTriple(A=ZeroOperator(1), B=AffineOperator([[1.0]]),
                         C=ZeroOperator(1))


# ----------------------------------------------------- J_{lam*(B+C)} evaluator

def sum_resolvent(problem, lam, w, inner_tol=1e-10, max_inner=100000):
    """``J_{lam*(B+C)}(w)`` by the flows' own evaluator."""
    return splitkit.dynamics._sum_resolvent(problem, lam, inner_tol,
                                            max_inner)(w)


def test_resolvent_sum_scalar_direct():
    # B(u) = u, C = 0, lam = 1: (1 + 1) u = 3
    u = sum_resolvent(scalar_identity_B(), 1.0, np.array([3.0]))
    assert u[0] == pytest.approx(1.5, abs=1e-14)


def test_resolvent_sum_projection():
    problem = ProblemTriple(A=ZeroOperator(1), B=ZeroOperator(1),
                            C=BoxNormalCone([-1.0], [1.0]))
    u = sum_resolvent(problem, 0.7, np.array([5.0]))
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_resolvent_sum_iterative_piecewise():
    # B(u) = u, C = subdifferential of |.|, lam = 1, w = 3:
    # 2u - 3 + s = 0 with s in sign(u)  =>  u = 1
    problem = ProblemTriple(A=ZeroOperator(1), B=AffineOperator([[1.0]]),
                            C=ScaledL1(1, 1.0))
    u = sum_resolvent(problem, 1.0, np.array([3.0]), inner_tol=1e-12)
    assert u[0] == pytest.approx(1.0, abs=1e-11)


def test_resolvent_sum_direct_matches_dense_oracle():
    inst = make_affine_instance(8, 3, 0.8)
    problem = inst.triple()
    lam = 0.3
    r = np.random.Generator(np.random.Philox(1))
    for _ in range(20):
        w = r.uniform(-2, 2, 8)
        u = sum_resolvent(problem, lam, w)
        M = problem.B.M + problem.C.M
        b = problem.B.b + problem.C.b
        oracle = np.linalg.solve(np.eye(8) + lam * M, w - lam * b)
        assert np.allclose(u, oracle, atol=1e-13)


def test_resolvent_sum_inner_residual_contract():
    # iterative path must satisfy |J_{lam C}(w - lam B(u)) - u| <= inner_tol
    problem = ProblemTriple(A=ZeroOperator(4),
                            B=AffineOperator(np.eye(4) * 0.5),
                            C=ScaledL1(4, 0.3))
    w = np.array([2.0, -0.1, 0.4, -3.0])
    lam, tol = 0.8, 1e-11
    u = sum_resolvent(problem, lam, w, inner_tol=tol)
    resid = np.linalg.norm(
        problem.C.resolve(lam, w - lam * problem.B.forward(u)) - u)
    assert resid <= tol


def test_resolvent_sum_nonconvergence_error():
    problem = ProblemTriple(A=ZeroOperator(2),
                            B=AffineOperator([[0.0, -1.0], [1.0, 0.0]]),
                            C=ScaledL1(2, 0.1))
    with pytest.raises(InnerSolveError) as exc:
        sum_resolvent(problem, 0.5, np.array([4.0, -2.0]),
                      inner_tol=1e-12, max_inner=2)
    assert exc.value.residual > 0


def test_resolvent_sum_stops_at_a_non_finite_residual(monkeypatch):
    # a NaN residual never meets the tolerance: the iterative route used to
    # make all max_inner = 100,000 iterations (200,002 calls of B) before
    # it raised; it raises the same error at the first residual that is
    # not finite, after B(u_0) and the residual's B
    problem = make_saddle_instance(4, 6, 2, 0.5, 1.0).triple()
    calls, forward = [], problem.B.forward
    monkeypatch.setattr(problem.B, "forward",
                        lambda v: calls.append(v) or forward(v))
    with pytest.raises(InnerSolveError) as exc:
        sum_resolvent(problem, 0.1, np.full(problem.dim, np.nan))
    assert str(exc.value) == "inner solver stalled at residual nan (tol 1e-10)"
    assert math.isnan(exc.value.residual) and len(calls) == 2
    # a flow whose first 2x - z overflows reaches it at its first step
    calls.clear()
    with pytest.raises(InnerSolveError) as exc:
        simulate_ppa(problem, 0.1, 0.25, 1.0, 1e308 * np.ones(problem.dim))
    assert str(exc.value) == (
        "inner solver stalled at residual nan (tol 1e-10) at t=0")
    assert exc.value.t == 0.0 and len(calls) == 2


# -------------------------------------------------------------------- flows

def test_ppa_scalar_matches_closed_form():
    # B(x) = x, C = 0, lam = 1: dx/dt = -x/2, so x(T) = exp(-T/2)
    problem = scalar_identity_B()
    flow = simulate_ppa(problem, 1.0, 1e-3, 5.0, np.array([1.0]))
    assert abs(flow.terminal[0] - np.exp(-2.5)) <= 5e-3
    assert flow.times[0] == 0.0
    assert flow.times[-1] == pytest.approx(5.0)


def test_ppa_euler_consistency_ratio():
    problem = scalar_identity_B()
    exact = np.exp(-2.5)
    e1 = abs(simulate_ppa(problem, 1.0, 1e-3, 5.0,
                          np.array([1.0])).terminal[0] - exact)
    e2 = abs(simulate_ppa(problem, 1.0, 5e-4, 5.0,
                          np.array([1.0])).terminal[0] - exact)
    assert 0.3 <= e2 / e1 <= 0.7


def test_ppa_equilibrium_is_constant():
    # zero of B + C with B(x) = x - 2, C = 0 is x = 2
    problem = ProblemTriple(A=ZeroOperator(1),
                            B=AffineOperator([[1.0]], [-2.0]),
                            C=ZeroOperator(1))
    flow = simulate_ppa(problem, 0.5, 0.01, 2.0, np.array([2.0]))
    assert np.max(np.abs(flow.states - 2.0)) <= 1e-12


def test_ppa_step_one_is_proximal_point():
    problem = ProblemTriple(A=ZeroOperator(3),
                            B=AffineOperator(np.eye(3), [0.3, -1.0, 2.0]),
                            C=ZeroOperator(3))
    x0 = np.array([1.0, -2.0, 0.5])
    flow = simulate_ppa(problem, 0.7, 1.0, 1.0, x0)
    prox = problem.B.resolve(0.7, x0)
    assert np.max(np.abs(flow.states[1] - prox)) <= 1e-14


def test_dr_flow_constant_cases():
    # A = B = C = 0: dz/dt = 0
    problem = ProblemTriple(A=ZeroOperator(2), B=ZeroOperator(2),
                            C=ZeroOperator(2))
    flow = simulate_dr_flow(problem, 0.5, 0.1, 3.0, np.array([1.0, -2.0]))
    assert np.array_equal(flow.states[0], flow.states[-1])


def test_dr_flow_stationary_at_reference_point():
    inst = make_affine_instance(10, 7, 0.8)
    problem = inst.triple()
    lam = 0.1
    z_ref = inst.x_star + lam * problem.A.forward(inst.x_star)
    flow = simulate_dr_flow(problem, lam, 0.01, 5.0, z_ref)
    drift = np.linalg.norm(flow.terminal - z_ref)
    assert drift <= 1e-10 * (1 + np.linalg.norm(z_ref))


def test_dr_flow_converges_toward_solution():
    inst = make_affine_instance(10, 7, 0.8)
    problem = inst.triple()
    lam = 0.1
    flow = simulate_dr_flow(problem, lam, 0.01, 100.0, np.ones(10))
    first = omega_residual(problem, lam, flow.states[0])
    last = omega_residual(problem, lam, flow.terminal)
    assert last < 1e-2 * first


def test_flow_parameter_validation():
    problem = scalar_identity_B()
    with pytest.raises(Exception):
        simulate_ppa(problem, 1.0, 1.5, 5.0, np.array([1.0]))
    with pytest.raises(Exception):
        simulate_ppa(problem, 1.0, 0.1, -1.0, np.array([1.0]))
    for simulate in (simulate_ppa, simulate_dr_flow):
        for lam, T in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                       (1.0, np.inf)):
            with pytest.raises(OperatorError, match="positive and finite"):
                simulate(problem, lam, 0.1, T, np.array([1.0]))


@pytest.mark.parametrize("inner_tol", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("simulate", [simulate_ppa, simulate_dr_flow])
def test_flows_reject_inner_tol_outside_zero_to_inf(simulate, inner_tol):
    # before any step, whether the flow's J_{lam*(B+C)} is direct (affine B,
    # which never reads inner_tol) or iterative (custom B, where inf took
    # the B = 0 answer and nan or a negative tolerance stalled)
    affine = make_affine_instance(dim=4, seed=1, skew_fraction=0.8).triple()
    custom = ProblemTriple(affine.A, CustomOperator(
        4, forward=affine.B.forward, lipschitz=affine.B.lipschitz), affine.C)
    for problem in (affine, custom):
        with pytest.raises(OperatorError,
                           match="inner_tol must be positive and finite"):
            simulate(problem, 0.2, 0.1, 1.0, np.ones(4), inner_tol)


def test_flow_inner_solve_error_carries_step_time(monkeypatch):
    # the fourth J_{lam*(B+C)} evaluation is the step from t = 3 * h_ode
    calls = []
    make = splitkit.dynamics._sum_resolvent

    def stalling(*args):
        solve = make(*args)

        def resolve(w):
            calls.append(w)
            if len(calls) == 4:
                raise InnerSolveError("inner solver stalled", residual=0.5)
            return solve(w)

        return resolve

    monkeypatch.setattr(splitkit.dynamics, "_sum_resolvent", stalling)
    problem = make_saddle_instance(4, 6, 2, 0.5, 1.0).triple()
    for simulate in (simulate_ppa, simulate_dr_flow):
        calls.clear()
        with pytest.raises(InnerSolveError, match="at t=0.75") as exc:
            simulate(problem, 0.1, 0.25, 5.0, np.ones(problem.dim))
        assert exc.value.t == 0.75
        assert exc.value.residual == 0.5


# ------------------------------------------- error contract of the affine step

def _flow_error(problem, lam, h_ode, z0, n):
    """``(type, message)`` of the DR flow's error over ``n`` steps, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_dr_flow(problem, lam, h_ode, max(n, 0.4) * h_ode, z0)
    except OperatorError as exc:
        return type(exc), str(exc)
    return None


def _first_error(problem, lam, h_ode, z0, n_max):
    """The least step count whose flow raises, and that error."""
    n = 0
    while n <= n_max and _flow_error(problem, lam, h_ode, z0, n) is None:
        n += 1
    assert n <= n_max
    return n, _flow_error(problem, lam, h_ode, z0, n)


RANK_ONE = 1e17 * np.ones((2, 2))     # I + 1*RANK_ONE is singular in floats
ERROR_CASES = {
    # NonFiniteError at state 0, from J_{lam*A}
    "singular I + lam*M_A": (0, ProblemTriple(
        A=AffineOperator(RANK_ONE), B=ZeroOperator(2),
        C=AffineOperator(np.eye(2))), np.ones(2)),
    # NonFiniteError from J_{lam*(B+C)} in the step from state 0
    "singular I + lam*(M_B + M_C)": (1, ProblemTriple(
        A=AffineOperator(np.eye(2)), B=AffineOperator(RANK_ONE),
        C=AffineOperator(np.zeros((2, 2)))), np.ones(2)),
    # z_j - lam*b_A overflows once z_j passes 7.97e307, mid-block: the
    # states converge to 1.13e308 ...
    "J_A overflows mid-block": (162, ProblemTriple(
        A=AffineOperator([[3.0]], [-1e308]), B=ZeroOperator(1),
        C=AffineOperator([[0.0]], [-6e307])), np.zeros(1)),
    # ... or, here, J_A overflows at 17; J_{lam*(B+C)} overflows at
    # 2 J_{lam*A}(0), so the map's offset is not finite and this flow
    # takes the composition
    "J_A overflows before the state": (17, ProblemTriple(
        A=AffineOperator([[3.0]], [-1e308]), B=ZeroOperator(1),
        C=AffineOperator([[0.0]], [-1.5e308])), np.array([6e307])),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_affine_flow_errors_match_the_resolvent_composition(case,
                                                            monkeypatch):
    # the composed map raises what the step-by-step resolvent composition
    # raises, at the same state, whatever later states would raise
    state, problem, z0 = ERROR_CASES[case]
    lam, h_ode = 1.0, 0.01
    n_max = 3 * splitkit.dynamics._BLOCK
    first = _first_error(problem, lam, h_ode, z0, n_max)
    assert first == (state, (NonFiniteError,
                             "affine resolvent produced non-finite values"))
    assert _flow_error(problem, lam, h_ode, z0, n_max) == first[1]
    # an empty derivation takes every flow to the resolvent composition
    monkeypatch.setattr(splitkit.dynamics, "_derive", lambda *args: ())
    assert _first_error(problem, lam, h_ode, z0, n_max) == first
    assert _flow_error(problem, lam, h_ode, z0, n_max) == first[1]


def test_overflowing_affine_flows_take_the_composed_step(monkeypatch):
    # the third case above runs the composed map, not the composition: its
    # flow calls J_{lam*(B+C)} once, at zero, to derive the map, and none of
    # its steps calls it.  The fourth's J_{lam*(B+C)} overflows at
    # 2 J_{lam*A}(0), where the derivation takes the map's offset, so its
    # flow takes the composition, one call per step, to the same error
    calls, make = [], splitkit.dynamics._sum_resolvent

    def counted(*args):
        resolve = make(*args)

        def call(w):
            calls.append(w)
            return resolve(w)

        call.J = resolve.J
        return call

    monkeypatch.setattr(splitkit.dynamics, "_sum_resolvent", counted)
    for case, composed in (("J_A overflows mid-block", False),
                           ("J_A overflows before the state", True)):
        state, problem, z0 = ERROR_CASES[case]
        calls.clear()
        assert _flow_error(problem, 1.0, 0.01, z0, state - 1) is None
        assert len(calls) == 1 + composed * (state - 1)
        with pytest.raises(NonFiniteError):
            with np.errstate(over="ignore"):
                simulate_dr_flow(problem, 1.0, 0.01, 30.0, z0)


# (row, step, state, first): state j is j, except the non-finite state; the
# row of each state from ``row`` on raises, and so does each step from state
# ``step`` on.  At one state the non-finite state comes first, then its row,
# then the step from it.
BOUNDARY_CASES = [
    (1023, 1023, 1024, "row at 1023"),
    (1024, 1024, 1025, "row at 1024"),
    (1023, 1025, 1024, "row at 1023"),
    (1025, 1023, 1025, "step from 1023"),
    (1025, 1024, 1025, "step from 1024"),
    (1026, 1026, 1023, "non-finite at t=10.23"),
    (1025, 1025, 1024, "non-finite at t=10.24"),
    (1024, 1024, 1024, "non-finite at t=10.24"),
]


def _boundary_step(step, state, huge=math.inf):
    """An ``_euler_step`` whose state j is j (from state ``huge`` on,
    j*1e305), except ``state``, which is inf, and whose steps from state
    ``step`` on raise."""
    def euler_step(h_ode, A_res, S_res, J_A):
        def take(j, z, out):
            if j >= step:
                raise ValueError(f"step from {j}")
            out[...] = (np.inf if j + 1 == state
                        else (j + 1.0) * (1e305 if j + 1 >= huge else 1.0))
        return take

    return euler_step


def _count_thread_starts(monkeypatch):
    """The list to which each ``threading.Thread.start`` from now on adds
    its thread."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("row, step, state, first", BOUNDARY_CASES)
def test_flow_raises_its_first_error_around_a_block_boundary(
        row, step, state, first, monkeypatch):
    # a custom B takes the rows inline
    def forward(v):
        if v[0] >= row:
            raise ValueError(f"row at {v[0]:g}")
        return 0.0 * v

    monkeypatch.setattr(splitkit.dynamics, "_euler_step",
                        _boundary_step(step, state))
    problem = ProblemTriple(A=ZeroOperator(1), C=AffineOperator([[0.5]]),
                            B=CustomOperator(1, forward=forward,
                                             lipschitz=0.0))
    with pytest.raises((ValueError, OperatorError), match=first):
        simulate_dr_flow(problem, 0.5, 0.01, 15.0, [0.0])


@pytest.mark.parametrize("row, step, state, first", BOUNDARY_CASES)
def test_affine_flow_raises_its_first_error_around_a_block_boundary(
        row, step, state, first, monkeypatch):
    # the same cases with affine operators, whose rows take their residuals
    # from the residual map, raise the same first error, from J_{lam*A},
    # which the rows still take, and start no thread
    def resolve(V):
        late = V[V[:, 0] >= row] if V.ndim == 2 else V[:0]
        if late.size:
            raise ValueError(f"row at {late[0, 0]:g}")
        return V

    monkeypatch.setattr(splitkit.dynamics, "_euler_step",
                        _boundary_step(step, state))
    A = ZeroOperator(1)
    monkeypatch.setattr(A, "prepare", lambda lam: resolve)
    problem = ProblemTriple(A=A, B=AffineOperator([[0.0]]),
                            C=AffineOperator([[0.5]]))
    started = _count_thread_starts(monkeypatch)
    with pytest.raises((ValueError, OperatorError), match=first):
        simulate_dr_flow(problem, 0.5, 0.01, 15.0, [0.0])
    assert started == []


@pytest.mark.parametrize("row, step, state, first", BOUNDARY_CASES)
def test_affine_flow_whose_map_rows_overflow_raises_its_first_error_there(
        row, step, state, first, monkeypatch):
    # from state ``row`` on the states are j*1e305, where the rows R p + r
    # of the residual map (R = -4000) are not finite: each block with such
    # a row takes its composed rows, stacked, whose C resolve raises, then
    # one at a time, where J_{lam*A} raises at the first such state.  The
    # flow raises the same first error as the composed flow, and only the
    # blocks that hold such a state evaluate B
    def resolve(V):
        if V.ndim == 2 and len(V) == 1 and V[0, 0] >= 1e305:
            raise ValueError(f"row at {V[0, 0] / 1e305:g}")
        return V

    def forward_rows(V):
        stacks.append(V.min())
        return rows(V)

    monkeypatch.setattr(splitkit.dynamics, "_euler_step",
                        _boundary_step(step, state, huge=row))
    A, B = ZeroOperator(1), AffineOperator([[1e4]])
    rows, stacks = B.forward_rows, []
    monkeypatch.setattr(A, "prepare", lambda lam: resolve)
    monkeypatch.setattr(B, "forward_rows", forward_rows)
    problem = ProblemTriple(A=A, B=B, C=AffineOperator([[0.5]]))
    with pytest.raises((ValueError, OperatorError), match=first):
        with np.errstate(over="ignore", invalid="ignore"):
            simulate_dr_flow(problem, 0.5, 0.01, 15.0, [0.0])
    assert min(stacks, default=row) >= row - row % splitkit.dynamics._BLOCK


def test_flows_leave_no_thread_behind(monkeypatch):
    # an affine flow of three blocks starts no thread, on return and on
    # each error case's raise, affine and composed alike
    threads = threading.enumerate()
    started = _count_thread_starts(monkeypatch)
    problem = make_affine_instance(dim=4, seed=1, skew_fraction=0.8).triple()
    flow = simulate_dr_flow(problem, 0.2, 0.01, 30.0, np.ones(4))
    assert flow.states.shape == (3001, 4) and started == []
    assert threading.enumerate() == threads
    for case in sorted(ERROR_CASES):
        state, problem, z0 = ERROR_CASES[case]
        n = 3 * splitkit.dynamics._BLOCK
        assert _flow_error(problem, 1.0, 0.01, z0, n) is not None
        assert threading.enumerate() == threads, case
    assert started == []


def test_affine_flow_names_a_kind_only_its_rows_met_without_warning(
        monkeypatch):
    # |z_j| falls from 1.7e155 by 0.5% a step, so the squares of the rows
    # of the first few hundred states overflow, and those of the steps and
    # of the last block's rows do not
    started = _count_thread_starts(monkeypatch)
    problem = ProblemTriple(ZeroOperator(3), ZeroOperator(3),
                            AffineOperator(np.eye(3)), x_star=np.zeros(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = simulate_dr_flow(problem, 1.0, 0.01, 20.0, 1e155 * np.ones(3))
    assert started == []
    assert flow.warnings == ["floating-point overflow encountered"]
    assert np.isfinite(flow.states).all()
    assert np.isfinite(flow.step_norms).all()
    with np.errstate(over="ignore"):
        norms = row_norms(flow.states)
    assert (flow.dist_to_xstar == norms).all()
    assert flow.residuals == pytest.approx(0.5 * norms, rel=1e-15)
    big = math.sqrt(np.finfo(float).max)    # norms whose squares overflow
    assert 0.5 * norms[0] > big > norms[1024]


def test_concurrent_affine_flows_keep_their_bits_under_fast_switching():
    # three callers sharing one problem, switching threads every
    # microsecond: each flow has the bits and warnings of the flow taken
    # alone
    problem = make_affine_instance(dim=4, seed=3, skew_fraction=0.8).triple()
    args = (problem, 0.2, 0.01, 30.0, 1e160 * np.ones(4))
    serial = simulate_dr_flow(*args)
    flows = [None] * 3

    def simulate(i):
        flows[i] = simulate_dr_flow(*args)

    callers = [threading.Thread(target=simulate, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert serial.warnings == ["floating-point overflow encountered"]
    for flow in flows:
        for name in ("states", "step_norms", "residuals", "dist_to_xstar"):
            assert (getattr(flow, name).tobytes()
                    == getattr(serial, name).tobytes()), name
        assert flow.warnings == serial.warnings


def test_composed_flow_calls_its_oracles_from_the_caller_only(monkeypatch):
    # a custom A: steps and rows take A's resolvent on the caller's thread,
    # and no thread starts
    started = _count_thread_starts(monkeypatch)
    base = make_affine_instance(dim=3, seed=1, skew_fraction=0.8).triple()
    callers = set()

    def resolvent(lam, v):
        callers.add(threading.get_ident())
        return base.A.resolve(lam, v)

    problem = ProblemTriple(CustomOperator(3, resolvent=resolvent), base.B,
                            base.C)
    flow = simulate_dr_flow(problem, 0.2, 0.01, 25.0, np.ones(3))
    assert flow.states.shape == (2501, 3)
    assert callers == {threading.get_ident()} and started == []


@pytest.mark.parametrize("composed", [False, True])
def test_flow_states_are_the_euler_step_taken_one_state_at_a_time(composed):
    # 1,030 states, past the block boundary at 1,024: each state is the step
    # from the one before, into a fresh array, bit for bit, whether the
    # affine triple takes the precomposed map or a custom A the composed step
    problem = make_affine_instance(dim=6, seed=2, skew_fraction=0.8).triple()
    if composed:
        A = CustomOperator(6, resolvent=problem.A.resolve)
        problem = ProblemTriple(A=A, B=problem.B, C=problem.C)
    lam, h_ode, z0 = 0.2, 0.01, np.linspace(-1.0, 2.0, 6)
    flow = simulate_dr_flow(problem, lam, h_ode, 10.29, z0)
    A_res = problem.A.prepare(lam)
    step = splitkit.dynamics._euler_step(
        h_ode, A_res, splitkit.dynamics._sum_resolvent(problem, lam),
        getattr(A_res, "J", None))
    states = [z0]
    for j in range(1029):
        states.append(np.empty(6))
        step(j, states[j], states[j + 1])
    assert flow.states.shape == (1030, 6)
    assert flow.states.tobytes() == np.array(states).tobytes()


def test_affine_flows_form_each_inverse_once(monkeypatch):
    # J_{lam*A}, J_{lam*C} and J_{lam*(B+C)}, shared by the Euler map, the
    # residual map and the rows; the PPA flow's J_{lam*0} is formed once too
    calls, inverse = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: calls.append(M)
                        or inverse(M))
    problem = make_affine_instance(dim=6, seed=2, skew_fraction=0.8).triple()
    for simulate in (simulate_dr_flow, simulate_ppa):
        calls.clear()
        simulate(problem, 0.2, 0.01, 1.0, np.ones(6))
        assert len(calls) == 3


def test_flow_norms_of_states_beyond_1e154_are_finite():
    # the squares of these states overflow, their norms do not
    problem = make_affine_instance(dim=5, seed=1, skew_fraction=0.8).triple()
    with np.errstate(over="ignore"):
        flow = simulate_dr_flow(problem, 0.1, 0.01, 0.05, 1e160 * np.ones(5))
    A_res, C_res = problem.prepare(0.1)
    Z = flow.states
    X = A_res(Z)
    R = C_res(2.0 * X - Z - 0.1 * problem.B.forward_rows(X)) - X
    for series, rows in ((flow.step_norms[1:], np.diff(Z, axis=0)),
                         (flow.residuals, R),
                         (flow.dist_to_xstar, X - problem.x_star)):
        assert np.allclose(series, [math.hypot(*v) for v in rows],
                           rtol=1e-14, atol=0.0)


def test_flows_name_floating_point_kinds_without_warning():
    # from 1e160*ones the squares of the norms overflow, 202 times over,
    # though every row is finite: each flow names the kind once and warns
    # not at all
    problem = make_affine_instance(dim=5, seed=1, skew_fraction=0.8).triple()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flows = [simulate(problem, 0.1, 0.01, 1.0, 1e160 * np.ones(5))
                 for simulate in (simulate_dr_flow, simulate_ppa)]
        quiet = simulate_dr_flow(problem, 0.1, 0.01, 1.0, np.ones(5))
    for flow in flows:
        assert flow.warnings == ["floating-point overflow encountered"]
        assert np.isfinite(flow.step_norms).all()
        assert np.isfinite(flow.residuals).all()
    assert quiet.warnings == []


def test_flow_step_count_beyond_float_range_is_an_operator_error():
    # T / h_ode = 1e310 is inf: no step count, as for a finite count too
    # large to store
    problem = make_affine_instance(dim=3, seed=1, skew_fraction=0.8).triple()
    for T in (1e300, 1e290):
        with pytest.raises(OperatorError, match="too many states to store"):
            simulate_dr_flow(problem, 0.1, 1e-10, T, np.ones(3))


def test_row_norms_rescale_only_rows_whose_squares_overflow():
    r = np.random.Generator(np.random.Philox(3))
    V = r.uniform(-1, 1, (8, 6)) * np.array(
        [1.0, 1e-200, 1e150, 1e160, 1e300, 1e308, 1.0, 1e308])[:, None]
    V[6, 0], V[7, 0] = np.inf, np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        norms = row_norms(V)
    for v, norm in zip(V[:3], norms):     # no overflow: the bits of the dot
        assert norm == math.sqrt(v.dot(v))
    for v, norm in zip(V[3:6], norms[3:]):
        assert norm == pytest.approx(math.hypot(*v), rel=1e-15)
    assert norms[6] == math.inf and math.isnan(norms[7])


# -------------------------------------------------------- discretization gap

def test_gap_zero_at_equilibrium():
    # exact fixed point: the run stops after a single zero-length step
    problem = ProblemTriple(A=ZeroOperator(1),
                            B=AffineOperator([[1.0]], [-2.0]),
                            C=ZeroOperator(1))
    flow = simulate_ppa(problem, 0.5, 0.5, 10.0, np.array([2.0]))
    trace = run(problem, SolverConfig(method="FoRB", lam=0.4,
                                      z0=np.array([2.0]), max_iters=10,
                                      tol=1e-300), record_history=True)
    ks, gaps = discretization_gap(flow, trace, stride=1)
    assert np.array_equal(ks, [0, 1])
    assert np.max(gaps) <= 1e-14


def test_gap_shrinks_as_both_converge():
    problem = scalar_identity_B()
    lam = 0.9 * max_stepsize("FoRB", 1.0)
    flow = simulate_ppa(problem, lam, 0.01, 40.0, np.array([1.0]))
    trace = run(problem, SolverConfig(method="FoRB", lam=lam,
                                      z0=np.array([1.0]), max_iters=40,
                                      tol=1e-300), record_history=True)
    ks, gaps = discretization_gap(flow, trace, stride=5)
    assert gaps[0] == 0.0                       # shared initial point
    assert gaps[-1] < np.max(gaps)              # transient gap dies out
    assert gaps[-1] <= 1e-2


def test_dr_flow_gap_zero_against_dr_run():
    # With B = 0 one Euler step of the DR flow at h_ode = 1 is one DR
    # iteration, and the flow states are the shadow points z_k.
    inst = make_affine_instance(5, 2, 0.8)
    full = inst.triple()
    problem = ProblemTriple(A=full.A, B=ZeroOperator(5), C=full.C)
    lam, z0 = 0.5, np.ones(5)
    flow = simulate_dr_flow(problem, lam, 1.0, 20.0, z0)
    trace = run(problem, SolverConfig(method="DR", lam=lam, z0=z0,
                                      max_iters=20, tol=1e-300),
                record_history=True)
    ks, gaps = discretization_gap(flow, trace, stride=1)
    assert np.array_equal(ks, np.arange(21))
    assert np.max(gaps) <= 1e-13
    # the x_k = J_{lam*A}(z_k) would be a different sequence
    assert np.linalg.norm(flow.states[5] - trace.xs[5]) > 1e-3


def test_dr_flow_gap_needs_z_history():
    problem = scalar_identity_B()
    flow = simulate_dr_flow(problem, 0.5, 0.5, 5.0, np.array([1.0]))
    trace = run(problem, SolverConfig(method="FoRB", lam=0.4,
                                      z0=np.array([1.0]), max_iters=4,
                                      tol=1e-300), record_history=True)
    with pytest.raises(AlignmentError):
        discretization_gap(flow, trace, stride=1)


def test_gap_is_one_norm_per_aligned_iterate():
    # gaps[i] = |states[round(k/h_ode)] - x_k| with the bits of
    # np.linalg.norm, for k up to the flow's last time (7.2: T = 7.3 is 18
    # steps of 0.4, and k/0.4 rounds half to even), whether the history is
    # an array or a list of rows
    full = make_affine_instance(4, 3, 0.8).triple()
    problem = ProblemTriple(A=ZeroOperator(4), B=full.B, C=full.C)
    flow = simulate_ppa(problem, 0.1, 0.4, 7.3, np.ones(4))
    trace = run(problem, SolverConfig(method="FoRB", lam=0.1, z0=np.ones(4),
                                      max_iters=12, tol=1e-300),
                record_history=True)
    listed = replace(trace, xs=list(trace.xs))
    for stride in (1, 3):
        want = [k for k in range(0, 13, stride)
                if k <= flow.times[-1] + 1e-9]
        for t in (trace, listed):
            ks, gaps = discretization_gap(flow, t, stride)
            assert ks.dtype == np.int64 and ks.tolist() == want
            assert gaps.tolist() == [
                float(np.linalg.norm(flow.states[int(round(k / 0.4))]
                                     - trace.xs[k])) for k in want]
    # a gap whose squares overflow is rescaled, so it is finite
    huge = replace(trace, xs=[*trace.xs[:2], np.full(4, 1e200),
                              *trace.xs[3:]])
    with np.errstate(over="ignore"):
        gap = discretization_gap(flow, huge, 1)[1][2]
    assert gap == pytest.approx(2e200, rel=1e-12)


def test_gap_whose_squares_overflow_is_finite_without_a_warning():
    # the same huge iterate as above, without np.errstate: the project's
    # RuntimeWarnings are errors, and the rescaled gap is finite
    full = make_affine_instance(4, 3, 0.8).triple()
    problem = ProblemTriple(A=ZeroOperator(4), B=full.B, C=full.C)
    flow = simulate_ppa(problem, 0.1, 0.4, 7.3, np.ones(4))
    trace = run(problem, SolverConfig(method="FoRB", lam=0.1, z0=np.ones(4),
                                      max_iters=12, tol=1e-300),
                record_history=True)
    trace.xs[2] = 1e200
    assert discretization_gap(flow, trace, 1)[1][2] == pytest.approx(
        2e200, rel=1e-12)


def test_gap_contract_errors():
    problem = scalar_identity_B()
    flow = simulate_ppa(problem, 0.5, 0.5, 5.0, np.array([1.0]))
    trace = run(problem, SolverConfig(method="FoRB", lam=0.4,
                                      z0=np.array([1.0]), max_iters=4,
                                      tol=1e-300), record_history=True)
    with pytest.raises(AlignmentError):
        discretization_gap(flow, trace, stride=10)
    for stride in (2.0, 2.5, 0, "2"):   # a float is no stride, even 2.0
        with pytest.raises(AlignmentError, match="positive integer"):
            discretization_gap(flow, trace, stride=stride)
    ks, _ = discretization_gap(flow, trace, stride=np.int64(2))
    assert ks.tolist() == [0, 2, 4]
    no_hist = run(problem, SolverConfig(method="FoRB", lam=0.4,
                                        z0=np.array([1.0]), max_iters=4,
                                        tol=1e-300))
    with pytest.raises(AlignmentError):
        discretization_gap(flow, no_hist, stride=1)
