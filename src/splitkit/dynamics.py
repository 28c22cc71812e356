"""Continuous-time flows whose discretizations are the splitting methods.

Two flows are simulated by explicit Euler stepping:

* the Douglas-Rachford flow ``x = J_{lam*A}(z)``,
  ``y = J_{lam*(B+C)}(2x - z)``, ``dz/dt = y - x`` for the full triple, and
* the proximal-point flow ``dx/dt = J_{lam*(B+C)}(x) - x`` of ``B + C``,
  which is the Douglas-Rachford flow of ``(0, B, C)``.

Equilibria of either flow are exactly the fixed points of the corresponding
splitting dynamics.  An Euler step of size ``h`` is a DR step on ``(A, 0,
B + C)`` relaxed by ``h``.  Higher-order integrators are deliberately out
of scope: the discrete methods these flows explain are first order.

Like a solver ``Trace``, a :class:`FlowTrajectory` carries one record per
state: the step norm ``|z_j - z_{j-1}|``, the ``omega_residual`` of ``z_j``
and, for the Douglas-Rachford flow of a problem with a known solution,
``|x_j - x_star|`` with ``x_j = J_{lam*A}(z_j)`` (``z_j`` for the
proximal-point flow), evaluated per block of stored states by one stacked
call, with the bits of one call per state.  On a triple of affine (or
zero) operators, ``A = 0`` included, a step is one product with the map
that the runs' helper derives from the step's formula, and the residual
of ``z_j`` is ``|R z_j + r|``, one product with the runs' residual map.

A flow of three affine (or zero) operators, on a process that may use more
than one CPU, takes each block's rows on one worker thread while it steps
the next block; every oracle either thread calls is then a prepared affine
or zero one.  Any other flow takes its rows inline, between its blocks, so
no user callable is called from a second thread.  Either way the bits, the
order of the errors and the ``warnings`` are the same; the worker is
joined before the simulation returns or raises.
"""

import math
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .operators import (AffineOperator, OperatorError, ProblemTriple,
                        ZeroOperator, as_count, as_vector, fp_errstate,
                        fp_warnings, residual, row_norms)
from .solvers import _derive, _map_residuals, _residual_map

#: States per block in :func:`simulate_dr_flow`, which takes the steps to
#: a block's states, then their norms in one call, then the block's residual
#: rows, whose copies of ``x_j`` and ``2x_j - z_j`` take 800 KB at d=50
#: (twice that while a worker takes one block's rows and the caller steps
#: the next).
_BLOCK = 1024


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
    whose zero is not ``x_star``).  ``warnings`` names each floating-point
    kind that the simulation met, as ``Trace.warnings`` does.
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
    warnings: list = field(default_factory=list)

    @property
    def terminal(self):
        return self.states[-1]


def _sum_resolvent(problem, lam, inner_tol=1e-10, max_inner=100000):
    """The callable ``w -> J_{lam*(B+C)}(w)``, direct where possible.

    When both ``B`` and ``C`` have ``affine_parts`` it is the prepared
    resolvent of their affine sum: one product with the inverse formed here.
    Otherwise it is computed iteratively with the forward-reflected-backward
    method applied to the shifted inclusion
    ``0 in (lam*B + I - w)(u) + lam*C(u)``, whose forward part is strongly
    monotone with modulus one and Lipschitz with constant ``lam*L + 1``; the
    iteration needs no cocoercivity and converges linearly.  Stops at
    fixed-point residual ``|J_{lam*C}(w - lam*B(u)) - u| <= inner_tol``,
    and raises :class:`InnerSolveError` at ``max_inner`` iterations or at
    the first residual that is not finite, which no iteration can mend.
    """
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
            resid = float(np.linalg.norm(C_res(w - lam * B_fwd(u)) - u))
            if resid <= inner_tol:
                return u
            if not resid < math.inf:
                break
            u = C_tau(u - tau * (2.0 * f - f_prev))
            f_prev, f = f, F(u)
        else:
            resid = float(np.linalg.norm(C_res(w - lam * B_fwd(u)) - u))
        raise InnerSolveError(
            f"inner solver stalled at residual {resid:.3e} "
            f"(tol {inner_tol:g})", residual=resid)

    return resolve


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


def _euler_step(h_ode, A_res, S_res, J_A):
    """The step ``(j, z_j, out) -> z_{j+1}`` of :func:`simulate_dr_flow`,
    written into ``out``: the relaxed DR step ``f(A, S, z) = z +
    h_ode*(S(2x - z) - x)``, ``x = A(z)``, of the resolvents ``A_res =
    J_{lam*A}`` and ``S_res = J_{lam*(B+C)}``.  Given the matrix ``J_A``
    of ``A_res`` of an affine triple, it is ``T z + t``, with ``(T, t)``
    the map that :func:`_derive` gives ``f``, when finite."""
    def f(A, S, z):
        x = A(z)
        return z + h_ode * (S(2.0 * x - z) - x)

    Tt = () if J_A is None else _derive(f, (J_A, S_res.J), (A_res, S_res))
    if Tt:      # T.dot and add bound once, as in the solvers' walks
        T, add, t = Tt[0].dot, np.add, Tt[1]
        return lambda j, z, out: add(T(z, out), t, out)

    def step(j, z, out):
        try:
            out[...] = f(A_res, S_res, z)
        except InnerSolveError as exc:
            raise InnerSolveError(f"{exc} at t={j * h_ode:g}",
                                  residual=exc.residual, t=j * h_ode)

    return step


def _spare_cpu():
    """Whether this process may run on more than one CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _RowsWorker(threading.Thread):
    """The one thread on which :func:`simulate_dr_flow` takes the rows of
    a block while the caller steps the next.  ``hand(call)`` passes it a
    call, ``collect()`` waits for the call in hand and raises its error,
    and leaving it as a context joins the thread, whose result is then
    dropped.  Each call runs under ``fp_errstate(on_fp)``: numpy keeps its
    error state per thread."""

    def __init__(self, on_fp):
        super().__init__(name="splitkit-flow-rows")
        self.on_fp, self.call, self.error, self.busy = on_fp, None, None, False
        self.handed, self.done = threading.Semaphore(0), threading.Semaphore(0)

    def run(self):
        with fp_errstate(self.on_fp):
            while True:
                self.handed.acquire()
                call = self.call
                if call is None:
                    return
                try:
                    call()
                except BaseException as exc:    # collect() raises it
                    self.error = exc
                self.done.release()

    def hand(self, call):
        self.call, self.busy = call, True
        self.handed.release()

    def collect(self):
        if self.busy:
            self.busy = False
            self.done.acquire()
            if self.error is not None:
                raise self.error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.call = None
        self.handed.release()
        self.join()


def _rows_worker(on_fp, wanted):
    """A started :class:`_RowsWorker`, as a context that stops it, or
    ``nullcontext()`` (None) when not ``wanted`` or no thread starts."""
    if wanted:
        worker = _RowsWorker(on_fp)
        try:
            worker.start()
            return worker
        except RuntimeError:    # "can't start new thread": rows run inline
            pass
    return nullcontext()


def simulate_dr_flow(problem, lam, h_ode, T, z0, inner_tol=1e-10):
    """Explicit Euler on the Douglas-Rachford flow of the full triple.

    z_{j+1} = z_j + h_ode*(J_{lam*(B+C)}(2x_j - z_j) - x_j), x_j =
    J_{lam*A}(z_j), by :func:`_euler_step`.  ``lam`` and ``T`` must be
    positive and finite, ``h_ode`` in (0, 1].  The flow has no stopping
    rule, so it goes ``_BLOCK`` states at a time: it takes the steps to
    them, each written straight into the stored states, up to the first
    step that raises; one :func:`row_norms` call gives their step norms
    (the bits of ``np.linalg.norm`` per step, rescaled where its squares
    overflow); the block then ends at its first state that is not finite,
    one stacked call gives the residual and distance rows of the states
    before the end, and the first error is raised.  So an oracle error of
    a row is raised at its state, before the error of any later step, and
    a state that is not finite raises ``OperatorError`` at its time, after
    the rows of the states before it and before any error of the steps
    after it.
    The rows take ``X = J_{lam*A}(Z)`` of the states ``Z`` first, checked,
    for the distance rows, so its error is raised at its state as before.
    When ``A``, ``B`` and ``C`` all have ``affine_parts``, the flow forms
    each inverse once, each step is one gemv with the Euler map and the
    residual rows are ``|R z + r|``, one product with the residual map of
    ``run()`` (``R = J_C(2J_A - I - lam M_B J_A) - J_A``); both maps are
    derived once per flow.  A block with a row ``R z + r`` that is not
    finite takes the composed rows, and the map's events are named
    nowhere.  A row of the map may be finite where the composed ``B(x)``
    overflows (states beyond about 1e300), and such a row is kept, raising
    nothing.  If the process may run on two CPUs, the rows of each block
    but the last then run on one worker thread while the steps to the next
    block are taken; the next block waits for them before it hands on its
    own rows or raises, so the bits and the order of the errors are those
    above.  Other flows take their rows inline.
    Floating-point events print no warning: each kind, on either thread,
    is named once in ``warnings``, in the order of ``run()``'s, and
    forming the affine maps names none.
    """
    z0 = as_vector(z0, problem.dim, "z0")
    if not 0.0 < h_ode <= 1.0:
        raise OperatorError("h_ode must lie in (0, 1]")
    for name, value in (("T", T), ("lam", lam)):
        if not 0.0 < value < math.inf:
            raise OperatorError(f"{name} must be positive and finite")
    B_rows, x_star = problem.B.forward_rows, problem.x_star
    try:
        n = int(round(T / h_ode))
        states = np.empty((n + 1, z0.shape[0]))
        step_norms, residuals = np.zeros(n + 1), np.empty(n + 1)
        dists = None if x_star is None else np.empty(n + 1)
    except (ValueError, MemoryError, OverflowError):
        raise OperatorError(
            f"T = {T:g} with h_ode = {h_ode:g} gives {T / h_ode:.3g} Euler "
            "steps, too many states to store") from None

    def rows(Z, omega=()):      # X = J_{lam*A}(Z) and Z's residuals
        X = A_res(Z)
        res = _map_residuals(omega, Z) if omega else None
        if res is None:     # no map, or a row of it not finite
            res = residual(C_res, lam, 2.0 * X - Z, X, B_rows(X))
        return X, res

    def block_rows(lo, hi):     # the rows of the states lo..hi-1
        try:
            X, residuals[lo:hi] = rows(states[lo:hi], omega)
        except Exception:
            for i in range(lo, hi):     # raise the first row's error
                rows(states[i:i + 1])
            raise
        if dists is not None:
            dists[lo:hi] = row_norms(X - x_star)

    kinds = set()
    on_fp = lambda kind, flag: kinds.add(kind)
    with fp_errstate(on_fp):
        A_res, C_res = problem.prepare(lam)
        mats, omega = _residual_map(problem, lam, A_res, C_res)
        S_res = _sum_resolvent(problem, lam, inner_tol)
        step = _euler_step(h_ode, A_res, S_res, mats and mats[0])
    overlap = n >= _BLOCK and mats is not None and _spare_cpu()
    with _rows_worker(on_fp, overlap) as worker, fp_errstate(on_fp):
        states[0] = z0
        for lo in range(0, n + 1, _BLOCK):      # the states lo..hi-1
            a, hi, error = lo or 1, min(lo + _BLOCK, n + 1), None
            try:
                for j, z, out in zip(range(a, hi), states[a - 1:hi - 1],
                                     states[a:hi]):     # state j from j - 1
                    step(j - 1, z, out)
            except Exception as exc:
                hi, error = j, exc
            step_norms[a:hi] = row_norms(states[a:hi] - states[a - 1:hi - 1])
            bad = np.flatnonzero(~np.isfinite(states[lo:hi]).all(axis=1))
            if bad.size:    # before its row and the step from it
                hi = lo + int(bad[0])
                error = OperatorError(
                    f"flow state non-finite at t={hi * h_ode:g}")
            if worker is not None:  # the rows before, then this block's
                worker.collect()
            if worker is not None and error is None and hi <= n:
                worker.hand(partial(block_rows, lo, hi))
            else:
                block_rows(lo, hi)
                if error is not None:
                    raise error
    return FlowTrajectory(
        times=np.arange(n + 1) * h_ode, states=states, h_ode=h_ode, lam=lam,
        inner_tol=inner_tol, kind="dr", step_norms=step_norms,
        residuals=residuals, dist_to_xstar=dists,
        warnings=fp_warnings(kinds))


def discretization_gap(flow, trace, stride):
    """Distances between flow samples and discrete iterates.

    Iterate ``k`` is aligned with flow time ``t = k`` (the discretizations
    behind the methods take unit time steps).  Like is compared with like:
    a proximal-point flow against the trace's ``x_k``, a Douglas-Rachford
    flow, whose states are shadow points, against its ``z_k``.  Returns
    ``(ks, gaps)``, ``ks`` every ``stride``-th iterate up to the flow's last
    time and ``gaps[i] = |v_flow(ks[i]) - v_{ks[i]}|`` by one
    :func:`row_norms` call; purely diagnostic, no convergence claim attached.
    """
    history = "zs" if flow.kind == "dr" else "xs"
    iterates = getattr(trace, history)
    if iterates is None:
        raise AlignmentError(
            f"trace lacks the {history} history a {flow.kind} flow is "
            "compared with; rerun with record_history=True")
    stride = as_count(stride, "stride", AlignmentError)
    n_iters = len(iterates) - 1
    if stride > n_iters:
        raise AlignmentError(
            f"stride {stride} exceeds trace length {n_iters}")
    if flow.states.shape[1] != iterates[0].shape[0]:
        raise AlignmentError("flow and trace dimensions differ")
    ks = np.arange(0, n_iters + 1, stride)
    ks = ks[ks <= flow.times[-1] + 1e-9]
    js = np.rint(ks / flow.h_ode).astype(int)
    gaps = flow.states[js] - np.asarray(iterates, float)[ks]
    with np.errstate(over="ignore"):    # squares that overflow are rescaled
        return ks, row_norms(gaps)
