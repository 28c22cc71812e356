"""Splitting iterations behind one ``run()`` driver.

Each method family is a generator that keeps its iterates, its
forward-value history and its oracle counters in local variables.  It
yields its initial y-history once, ``(y_-2, y_-1)`` for BFoRB/BRFoB and
``()`` otherwise, and then one record per step::

    (step_norm, norm, z, x, y, p, bx, forward_evals, resolvent_evals)

``norm`` is the norm of the governing iterate (``z_{k+1}``; ``x_{k+1}``
for FB, FoRB, RFoB and FRDR), ``z`` the point recorded in ``Trace.zs``,
``p`` the point whose ``J_{lam*A}`` is ``x`` and ``bx`` a cached ``B(x)``
or ``None``.
:func:`_shadow` is the three-operator template of BFoRB, BRFoB, Davis-Yin
and DR, which differ only in the forward term (DR is the template with
``F = 0``); :func:`_two_op` runs FB, FoRB and RFoB, which ignore ``A`` and
iterate ``x_k`` directly; :func:`_frdr` runs FRDR.  :func:`run` consumes
the records and owns the stopping rule, the divergence test, the residual
and the history.  The generators receive the run's prepared resolvents
(``prepare(lam)``, see :mod:`splitkit.operators`): each run owns its
factorizations and frees them when it ends, and it never changes the
problem, so one problem may serve several threads at once.
"""

import enum
import math
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .operators import NonFiniteError, as_vector, residual, vanishes

#: Sentinel returned by :func:`max_stepsize` for methods whose convergence
#: is not guaranteed by a Lipschitz bound alone (they need cocoercivity).
NOT_GUARANTEED = None

#: Iterates whose norm exceeds this multiple of ``1 + |z0|`` flag divergence.
DIVERGE_FACTOR = 1e12


class Method(str, enum.Enum):
    FB = "FB"
    FORB = "FoRB"
    RFOB = "RFoB"
    DAVIS_YIN = "DavisYin"
    FRDR = "FRDR"
    BFORB = "BFoRB"
    BRFOB = "BRFoB"
    DR = "DR"


#: Methods that iterate x_k directly and ignore the operator A.
TWO_OPERATOR_METHODS = frozenset({Method.FB, Method.FORB, Method.RFOB})

#: Methods that accept an (y_-1, y_-2) or (x_0, x_-1) history override.
_HISTORY_METHODS = frozenset(
    {Method.BFORB, Method.BRFOB, Method.FORB, Method.RFOB})


class SolverError(Exception):
    """Invalid solver configuration or contract violation."""


def max_stepsize(method, L, gamma=None):
    """Supremum of the guaranteed stepsize interval for ``lam``.

    Parameters
    ----------
    method : Method
        Splitting method.
    L : float
        Lipschitz constant of the single-valued operator.
    gamma : float, optional
        Second stepsize, positive and finite; required for (and only for)
        ``FRDR``.

    Returns
    -------
    float or None
        ``1/(8L)`` for BFoRB, ``1/(22L)`` for BRFoB, ``1/(2L)`` for FoRB and
        ``gamma/(1 + 2*L*gamma)`` for FRDR.  For FB, Davis-Yin and DR the
        Lipschitz assumption alone does not guarantee convergence (these
        require cocoercivity), and for RFoB no constant is provided here, so
        the sentinel :data:`NOT_GUARANTEED` is returned.
    """
    method = Method(method)
    if not L > 0:
        raise SolverError("L must be positive")
    if method is Method.FRDR:
        if gamma is None:
            raise SolverError("FRDR requires gamma")
        if not 0.0 < gamma < math.inf:
            raise SolverError("gamma must be positive and finite")
        return gamma / (1.0 + 2.0 * L * gamma)
    if gamma is not None:
        raise SolverError(f"gamma is only meaningful for FRDR, not {method.value}")
    if method is Method.BFORB:
        return 1.0 / (8.0 * L)
    if method is Method.BRFOB:
        return 1.0 / (22.0 * L)
    if method is Method.FORB:
        return 1.0 / (2.0 * L)
    return NOT_GUARANTEED


@dataclass
class SolverConfig:
    """Run parameters for a single method on a single problem."""

    method: Method
    lam: float
    z0: np.ndarray
    max_iters: int = 10000
    tol: float = 1e-8
    gamma: float = None          # FRDR only
    h: float = 1.0               # relaxation, FoRB/RFoB only
    y_init: tuple = None         # (y_-1, y_-2), or (x_0, x_-1) for FoRB/RFoB

    def __post_init__(self):
        self.method = Method(self.method)
        if not 0.0 < self.lam < math.inf:
            raise SolverError("lam must be positive and finite")
        if self.max_iters < 1:
            raise SolverError("max_iters must be a positive integer")
        if not self.tol > 0:
            raise SolverError("tol must be positive")
        self.z0 = as_vector(self.z0, name="z0")
        if self.method is Method.FRDR or self.gamma is not None:
            max_stepsize(self.method, 1.0, self.gamma)   # checks gamma
        if self.method in (Method.FORB, Method.RFOB):
            if not 0.0 < self.h <= 1.0:
                raise SolverError("h must lie in (0, 1]")
        elif self.h != 1.0:
            raise SolverError(f"{self.method.value} does not accept h != 1")
        if self.y_init is not None:
            if self.method not in _HISTORY_METHODS:
                raise SolverError(
                    f"{self.method.value} does not accept y_init")
            a, b = self.y_init
            self.y_init = (as_vector(a, self.z0.shape[0], "y_init[0]"),
                           as_vector(b, self.z0.shape[0], "y_init[1]"))


@dataclass
class Trace:
    """Per-iteration records of one run plus terminal status."""

    method: Method
    lam: float
    gamma: float = None
    h: float = 1.0
    step_norms: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    dist_to_xstar: list = None
    status: str = "max_iters"
    iterations: int = 0
    forward_evals: int = 0
    resolvent_evals: int = 0
    warnings: list = field(default_factory=list)
    z_final: np.ndarray = None
    x_final: np.ndarray = None
    # Full iterate history; populated only when run(..., record_history=True).
    zs: list = None
    ys: list = None
    xs: list = None
    y_offset: int = 0   # index of y_0 within ys

    def y_at(self, j):
        """Recorded y_j; indices before the first record are backfilled."""
        return self.ys[max(j + self.y_offset, 0)]

    def z_at(self, j):
        """Recorded z_j (z_0 backfills j < 0)."""
        return self.zs[max(j, 0)]


def _shadow(config, A_res, B_fwd, C_res):
    """BFoRB, BRFoB, Davis-Yin and DR: the three-operator template.

    x_k = J_{lam*A}(z_k);  y_k = J_{lam*C}(2 x_k - z_k - lam*F_k);
    z_{k+1} = z_k + y_k - x_k.

    The methods differ only in the forward term F_k: 2B(y_{k-1}) - B(y_{k-2})
    for BFoRB (one new value B(y_k) is cached at the end of each step),
    B(2y_{k-1} - y_{k-2}) for BRFoB, B(x_k) for Davis-Yin and 0 for DR,
    which never evaluates B.  The history (y_{-2}, y_{-1}) defaults to
    (x_0, x_0) with x_0 = J_{lam*A}(z_0).
    """
    lam, method = config.lam, config.method
    bforb, brfob = method is Method.BFORB, method is Method.BRFOB
    dr = method is Method.DR
    z = config.z0.copy()
    fe = re = 0
    if bforb or brfob:
        if config.y_init is None:
            y1 = y2 = A_res(z)
            re = 1
        else:
            y1, y2 = config.y_init
        if bforb:
            By1 = B_fwd(y1)
            By2 = By1 if y1 is y2 else B_fwd(y2)
            fe = 1 if y1 is y2 else 2
        yield y2, y1
    else:
        yield ()
    fe_step = 0 if dr else 1
    while True:
        x = A_res(z)
        if bforb:
            F = 2.0 * By1 - By2
        elif brfob:
            F = B_fwd(2.0 * y1 - y2)
        elif not dr:                    # Davis-Yin
            F = B_fwd(x)
        w = 2.0 * x - z
        y = C_res(w if dr else w - lam * F)
        z_next = z + y - x
        fe += fe_step
        re += 2
        if bforb:
            By2, By1 = By1, B_fwd(y)
        elif brfob:
            y2, y1 = y1, y
        d = z_next - z
        yield (math.sqrt(d @ d), math.sqrt(z_next @ z_next), z_next, x, y, z,
               None, fe, re)
        z = z_next


def _two_op(config, A_res, B_fwd, C_res):
    """FB, FoRB and RFoB on x_k; A is ignored.

    FB:    x_{k+1} = J_{lam*C}(x_k - lam*B(x_k)), the baseline that may fail
           without cocoercivity of B;
    FoRB:  x_{k+1} = (1-h) x_k
                     + h*J_{lam*C}(x_k - lam*B(x_k) - (lam/h)*(B(x_k) - B(x_{k-1}))),
           with one new value B(x_{k+1}) cached at the end of each step;
    RFoB:  x_{k+1} = (1-h) x_k + h*J_{lam*C}(x_k - lam*B(x_k + (x_k - x_{k-1})/h)).

    The history x_{-1} defaults to x_0 = z_0.
    """
    lam, h, method = config.lam, config.h, config.method
    fb, forb = method is Method.FB, method is Method.FORB
    x = x_prev = config.z0.copy()
    if config.y_init is not None:
        if not np.array_equal(config.y_init[0], x):
            raise SolverError(
                "for two-operator methods y_init[0] must equal z0 "
                "(the history is the x-sequence itself)")
        x_prev = config.y_init[1]
    fe = re = 0
    Bx = None
    if forb:
        Bx = B_fwd(x)
        Bx_prev = Bx if x_prev is x else B_fwd(x_prev)
        fe = 1 if x_prev is x else 2
    yield ()
    while True:
        if fb:
            x_next = C_res(x - lam * B_fwd(x))
        elif forb:
            x_next = (1.0 - h) * x + h * C_res(
                x - lam * Bx - (lam / h) * (Bx - Bx_prev))
            Bx_prev, Bx = Bx, B_fwd(x_next)
        else:
            x_next = (1.0 - h) * x + h * C_res(
                x - lam * B_fwd(x + (x - x_prev) / h))
        fe += 1
        re += 1
        d = x_next - x
        x_prev, x = x, x_next
        yield math.sqrt(d @ d), math.sqrt(x @ x), x, x, None, x, Bx, fe, re


def _frdr(config, A_res, B_fwd, C_res):
    """Forward-reflected-Douglas-Rachford with stepsizes lam < gamma.

    w_k = x_k - lam*u_k - lam*(2 B(x_k) - B(x_{k-1}));  x_{k+1} = J_{lam*A}(w_k);
    y_{k+1} = J_{gamma*C}(2 x_{k+1} - x_k + gamma*u_k);
    u_{k+1} = u_k + (2 x_{k+1} - x_k - y_{k+1}) / gamma,
    which keeps u_{k+1} an element of C(y_{k+1}), so fixed points solve
    0 in (A + B + C)(x).  The record's z is w_k, the point whose resolvent
    is x_{k+1}.  u moves even when x stalls, so the step norm adds
    lam*|u_{k+1} - u_k|.  ``C_res`` is ``J_{gamma*C}``.
    """
    lam, gamma = config.lam, config.gamma
    x = config.z0.copy()
    Bx = Bx_prev = B_fwd(x)
    u = np.zeros(x.shape[0])
    fe, re = 1, 0
    yield ()
    while True:
        w = x - lam * u - lam * (2.0 * Bx - Bx_prev)
        x_next = A_res(w)
        y = C_res(2.0 * x_next - x + gamma * u)
        u_next = u + (2.0 * x_next - x - y) / gamma
        Bx_prev, Bx = Bx, B_fwd(x_next)
        fe += 1
        re += 2
        d, du = x_next - x, u_next - u
        x, u = x_next, u_next
        yield (math.sqrt(d @ d) + lam * math.sqrt(du @ du), math.sqrt(x @ x),
               w, x, y, w, Bx, fe, re)


def _stepsize_warnings(config, L):
    notes = []
    if config.method is Method.FRDR and config.gamma <= config.lam:
        notes.append(
            f"FRDR expects gamma > lam (lam={config.lam:g}, "
            f"gamma={config.gamma:g})")
    bound = (max_stepsize(config.method, L, config.gamma) if L > 0
             else NOT_GUARANTEED)
    if bound is not NOT_GUARANTEED and config.lam >= bound:
        notes.append(
            f"lam={config.lam:g} is outside the guaranteed interval "
            f"(0, {bound:g}) for {config.method.value}")
    return notes


def run(problem, config, record_history=False):
    """Drive ``config.method`` on ``problem`` until the stopping rule fires.

    Stops when the governing iterate change satisfies
    ``|z_{k+1} - z_k| <= tol * (1 + |z_k|)`` (``x`` takes the role of ``z``
    for two-operator methods and FRDR), when ``max_iters`` is reached, or
    when an iterate goes non-finite or beyond ``DIVERGE_FACTOR * (1 + |z0|)``
    (status ``"diverged"``; never an exception).  An oracle that overflows
    (:class:`~splitkit.operators.NonFiniteError`) also ends the run as
    ``"diverged"``: every series then has one entry per recorded iteration,
    and the final iterates and counters are those of the last iteration
    that completed (the start, before any).  Floating-point overflow,
    invalid operations and division by zero raise no warning: each kind
    that numpy reports during the run is named once in ``Trace.warnings``.

    Per-iteration records hold the step norm, the solution residual
    ``|J_{lam*C}(2x - p - lam*B(x)) - x|`` with ``x = J_{lam*A}(p)`` (the
    form of :func:`splitkit.certificates.omega_residual`: the step norm for
    Davis-Yin and, when ``B = 0``, DR, whose steps compute exactly this;
    other DR runs pay one ``B`` forward and one ``C`` resolve per step for
    it, outside the counters), and,
    when the problem carries ``x_star``, the distance of ``x_k`` to it.
    Row ``k`` of the residuals belongs to the point ``p`` of step ``k``:
    the iterate before the step, ``zs[k]``, for BFoRB, BRFoB, Davis-Yin and
    DR; ``w_k = zs[k+1]``, whose resolvent is ``x_{k+1}``, for FRDR; and
    the iterate after the step, ``xs[k+1]``, for FB, FoRB and RFoB, which
    ignore ``A`` (their residual is that of ``B + C``).
    With ``record_history=True`` the full ``z``/``y``/``x`` histories are
    kept so certificates can be evaluated afterwards; the hot loop itself
    performs exactly the oracle calls of the method plus this bookkeeping.
    """
    method, lam = config.method, config.lam
    if config.z0.shape[0] != problem.dim:
        raise SolverError(
            f"z0 has dim {config.z0.shape[0]}, problem has {problem.dim}")
    two_op = method in TWO_OPERATOR_METHODS
    frdr = method is Method.FRDR

    trace = Trace(method=method, lam=lam, gamma=config.gamma, h=config.h)
    trace.warnings.extend(_stepsize_warnings(config, problem.B.lipschitz))
    x_star = problem.x_star
    if x_star is not None:
        trace.dist_to_xstar = []
    step_norms, residuals, dists = (trace.step_norms, trace.residuals,
                                    trace.dist_to_xstar)

    def note(kind, flag):
        msg = f"floating-point {kind} encountered"
        if msg not in trace.warnings:
            trace.warnings.append(msg)

    # The latest record's iterates; the start stands in until a step is done.
    z = x = config.z0.copy()
    fe = re = 0
    if record_history:
        trace.xs = [x] if two_op else []
        if not two_op:
            trace.zs, trace.ys = [z], []
    xs, zs, ys = trace.xs, trace.zs, trace.ys

    residual_is_step = method is Method.DAVIS_YIN or (
        method is Method.DR and vanishes(problem.B))
    z0_norm = math.sqrt(config.z0 @ config.z0)
    big = DIVERGE_FACTOR * (1.0 + z0_norm)
    tol, inf = config.tol, math.inf
    status = "max_iters"
    # Each iterate's norm is computed once, for the divergence test, and
    # reused as the next iteration's prev_norm (the first iterate is z0).
    # math.sqrt(d @ d) has the bits of np.linalg.norm: sqrt(d.dot(d)).
    prev_norm = z0_norm
    with np.errstate(over="call", invalid="call", divide="call", call=note):
        A_res, C_res = problem.prepare(lam)
        B_fwd = problem.B.forward
        steps = (_two_op if two_op else _frdr if frdr else _shadow)(
            config, A_res, B_fwd,
            problem.C.prepare(config.gamma) if frdr else C_res)
        try:
            y_history = next(steps)
            if ys is not None:
                ys.extend(y_history)
                trace.y_offset = len(y_history)
            for _, (step_norm, norm, z, x, y, p, bx, fe, re) in zip(
                    range(config.max_iters), steps):
                step_norms.append(step_norm)
                if record_history:
                    xs.append(x)
                    if zs is not None:
                        zs.append(z)
                        ys.append(y)

                # NaN and inf fail these comparisons: this is also the
                # finiteness test (FRDR's dual variable is in the step norm).
                if not (norm <= big and step_norm < inf):
                    status = "diverged"
                    break

                residuals.append(step_norm if residual_is_step else residual(
                    C_res, lam, p, x, B_fwd(x) if bx is None else bx))
                if dists is not None:
                    e = x - x_star
                    dists.append(math.sqrt(e @ e))

                if step_norm <= tol * (1.0 + prev_norm):
                    status = "converged"
                    break
                prev_norm = norm
        except NonFiniteError:
            status = "diverged"
        if not (two_op or frdr):
            with suppress(NonFiniteError):   # a diverged z keeps the last x
                x = A_res(z)
    # A diverged step has no residual or distance: NaN stands in for them.
    for series in (residuals, dists):
        if series is not None:
            series.extend([math.nan] * (len(step_norms) - len(series)))

    trace.status = status
    trace.iterations = len(step_norms)
    trace.forward_evals, trace.resolvent_evals = fe, re
    trace.z_final, trace.x_final = z, x
    return trace
