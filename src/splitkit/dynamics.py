"""Continuous-time flows whose discretizations are the splitting methods.

Two flows are simulated by explicit Euler stepping:

* the Douglas-Rachford flow ``x = J_{lam*A}(z)``,
  ``y = J_{lam*(B+C)}(2x - z)``, ``dz/dt = y - x`` for the full triple, and
* the proximal-point flow ``dx/dt = J_{lam*(B+C)}(x) - x`` of ``B + C``,
  which is the Douglas-Rachford flow of ``(0, B, C)``.

Equilibria of either flow are exactly the fixed points of the corresponding
splitting dynamics.  Higher-order integrators are deliberately out of scope:
the discrete methods these flows explain are first order.

Like a solver ``Trace``, a :class:`FlowTrajectory` carries one record per
state, filled by the Euler loop itself: the step norm ``|z_j - z_{j-1}|``,
the ``omega_residual`` of ``z_j``, computed from the ``x_j = J_{lam*A}(z_j)``
the step already evaluates (``x_j = z_j`` for the proximal-point flow), and,
for the Douglas-Rachford flow of a problem with a known solution, the
distance ``|x_j - x_star|``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import (AffineOperator, OperatorError, ProblemTriple,
                        ZeroOperator, as_vector, residual)


class InnerSolveError(OperatorError):
    """The iterative evaluation of J_{lam*(B+C)} did not converge.

    Carries the last fixed-point residual and, when raised from a flow
    simulation, the time stamp of the failing step.
    """

    def __init__(self, message, residual, t=None):
        super().__init__(message)
        self.residual = residual
        self.t = t


class AlignmentError(OperatorError):
    """Flow and trace samples cannot be aligned."""


@dataclass
class FlowTrajectory:
    """Euler trajectory: ``states[j]`` approximates the flow at ``times[j]``.

    ``kind`` is ``"ppa"`` (states are points ``x``) or ``"dr"`` (states are
    shadow points ``z``, with ``x = J_{lam*A}(z)``).  The series have one
    entry per state: ``step_norms[j] = |states[j] - states[j-1]|`` (0 at
    ``j = 0``), ``residuals[j]`` the ``omega_residual`` of ``states[j]``
    (of the two-operator problem ``B + C`` for a PPA flow) and, for a DR
    flow on a problem carrying ``x_star``, ``dist_to_xstar[j] =
    |x_j - x_star|`` (``None`` otherwise: a PPA flow solves ``B + C``,
    whose zero is not ``x_star``).
    """

    times: np.ndarray
    states: np.ndarray
    h_ode: float
    lam: float
    inner_tol: float
    kind: str = "ppa"
    step_norms: np.ndarray = None
    residuals: np.ndarray = None
    dist_to_xstar: np.ndarray = None

    @property
    def terminal(self):
        return self.states[-1]


def _sum_resolvent(problem, lam, inner_tol=1e-10, max_inner=100000):
    """The callable ``w -> J_{lam*(B+C)}(w)``, direct where possible.

    When both ``B`` and ``C`` have ``affine_parts`` it is the prepared
    resolvent of their affine sum: one solve on LU factors made here.
    Otherwise it is computed iteratively with the forward-reflected-backward
    method applied to the shifted inclusion
    ``0 in (lam*B + I - w)(u) + lam*C(u)``, whose forward part is strongly
    monotone with modulus one and Lipschitz with constant ``lam*L + 1``; the
    iteration needs no cocoercivity and converges linearly.  Stops at
    fixed-point residual ``|J_{lam*C}(w - lam*B(u)) - u| <= inner_tol``.
    """
    if not 0.0 < lam < math.inf:
        raise OperatorError("lam must be positive and finite")
    pb, pc = problem.B.affine_parts(), problem.C.affine_parts()
    if pb is not None and pc is not None:
        return AffineOperator(pb[0] + pc[0], pb[1] + pc[1],
                              validate=False).prepare(lam)
    B_fwd = problem.B.forward
    tau = 0.9 / (2.0 * (lam * problem.B.lipschitz + 1.0))
    C_res, C_tau = problem.C.prepare(lam), problem.C.prepare(tau * lam)

    def resolve(w):
        def F(u):
            return lam * B_fwd(u) + u - w

        u = C_res(w)                   # exact answer for B = 0
        f_prev = F(u)
        f = f_prev
        for _ in range(max_inner):
            resid = np.linalg.norm(C_res(w - lam * B_fwd(u)) - u)
            if resid <= inner_tol:
                return u
            u = C_tau(u - tau * (2.0 * f - f_prev))
            f_prev, f = f, F(u)
        resid = float(np.linalg.norm(C_res(w - lam * B_fwd(u)) - u))
        raise InnerSolveError(
            f"inner solver stalled at residual {resid:.3e} "
            f"(tol {inner_tol:g})", residual=resid)

    return resolve


def resolvent_sum(problem, lam, w, inner_tol=1e-10, max_inner=100000):
    """Evaluate ``u = J_{lam*(B+C)}(w)``, i.e. ``0 in lam*(B+C)(u) + u - w``.

    Affine problems use one direct linear solve; otherwise an inner
    fixed-point iteration is run to ``inner_tol`` (see :func:`_sum_resolvent`).
    """
    w = as_vector(w, problem.dim, "w")
    return _sum_resolvent(problem, lam, inner_tol, max_inner)(w)


def simulate_ppa(problem, lam, h_ode, T, x0, inner_tol=1e-10):
    """Explicit Euler on the proximal-point flow of ``B + C``.

    x_{j+1} = x_j + h_ode * (J_{lam*(B+C)}(x_j) - x_j); with ``h_ode = 1``
    one step is exactly a proximal-point iteration.  This is bit for bit
    the Douglas-Rachford flow of ``(0, B, C)`` (``2x - x`` is exact), which
    it runs, so the arguments obey :func:`simulate_dr_flow`'s rules.
    """
    x0 = as_vector(x0, problem.dim, "x0")
    zero_A = ProblemTriple(ZeroOperator(problem.dim), problem.B, problem.C)
    return replace(simulate_dr_flow(zero_A, lam, h_ode, T, x0, inner_tol),
                   kind="ppa")


def simulate_dr_flow(problem, lam, h_ode, T, z0, inner_tol=1e-10):
    """Explicit Euler on the Douglas-Rachford flow of the full triple.

    Each step evaluates one resolvent of ``A`` and one ``J_{lam*(B+C)}``:
    z_{j+1} = z_j + h_ode * (J_{lam*(B+C)}(2 J_{lam*A}(z_j) - z_j)
                             - J_{lam*A}(z_j)).
    ``lam`` and ``T`` must be positive and finite, ``h_ode`` in (0, 1].
    ``x_j`` serves both the step and the residual; every resolvent is
    prepared once.  States are kept, ``x_j`` is not: at d=50 it would add
    8 MB per 20,000 steps.
    """
    z0 = as_vector(z0, problem.dim, "z0")
    if not 0.0 < h_ode <= 1.0:
        raise OperatorError("h_ode must lie in (0, 1]")
    if not 0.0 < T < math.inf:
        raise OperatorError("T must be positive and finite")
    rs = _sum_resolvent(problem, lam, inner_tol)
    A_res, C_res = problem.prepare(lam)
    B_fwd, x_star = problem.B.forward, problem.x_star
    n = int(round(T / h_ode))
    try:
        states = np.empty((n + 1, z0.shape[0]))
        step_norms, residuals = np.zeros(n + 1), np.empty(n + 1)
        dists = None if x_star is None else np.empty(n + 1)
    except (ValueError, MemoryError):
        raise OperatorError(
            f"T = {T:g} with h_ode = {h_ode:g} gives {T / h_ode:.3g} Euler "
            "steps, too many states to store") from None
    states[0] = z = z0
    # math.sqrt(d @ d) has the bits of np.linalg.norm: sqrt(d.dot(d)).
    for j in range(n + 1):
        x = A_res(z)
        residuals[j] = residual(C_res, lam, z, x, B_fwd(x))
        if dists is not None:
            e = x - x_star
            dists[j] = math.sqrt(e @ e)
        if j == n:
            break
        try:
            z_next = z + h_ode * (rs(2.0 * x - z) - x)
        except InnerSolveError as exc:
            raise InnerSolveError(
                f"{exc} at t={j * h_ode:g}", residual=exc.residual,
                t=j * h_ode)
        d = z_next - z
        step = math.sqrt(d @ d)
        # A finite step from a finite state lands on a finite state, so the
        # array test runs only when the step is not finite (NaN or overflow).
        if not step < math.inf and not np.isfinite(z_next).all():
            raise OperatorError(
                f"flow state non-finite at t={(j + 1) * h_ode:g}")
        step_norms[j + 1] = step
        states[j + 1] = z = z_next
    return FlowTrajectory(
        times=np.arange(n + 1) * h_ode, states=states, h_ode=h_ode, lam=lam,
        inner_tol=inner_tol, kind="dr", step_norms=step_norms,
        residuals=residuals, dist_to_xstar=dists)


def discretization_gap(flow, trace, stride):
    """Distances between flow samples and discrete iterates.

    Iterate ``k`` is aligned with flow time ``t = k`` (the discretizations
    behind the methods take unit time steps).  Like is compared with like:
    a proximal-point flow against the trace's ``x_k``, a Douglas-Rachford
    flow, whose states are shadow points, against its ``z_k``.  Returns
    ``(ks, gaps)`` where ``gaps[i] = |v_flow(ks[i]) - v_{ks[i]}|``; purely
    diagnostic, no convergence claim attached.
    """
    history = "zs" if flow.kind == "dr" else "xs"
    iterates = getattr(trace, history)
    if iterates is None:
        raise AlignmentError(
            f"trace lacks the {history} history a {flow.kind} flow is "
            "compared with; rerun with record_history=True")
    if stride < 1:
        raise AlignmentError("stride must be a positive integer")
    n_iters = len(iterates) - 1
    if stride > n_iters:
        raise AlignmentError(
            f"stride {stride} exceeds trace length {n_iters}")
    if flow.states.shape[1] != iterates[0].shape[0]:
        raise AlignmentError("flow and trace dimensions differ")
    t_max = flow.times[-1]
    ks, gaps = [], []
    for k in range(0, n_iters + 1, stride):
        if k > t_max + 1e-9:
            break
        j = int(round(k / flow.h_ode))
        ks.append(k)
        gaps.append(float(np.linalg.norm(flow.states[j] - iterates[k])))
    return np.array(ks, dtype=int), np.array(gaps)
