"""Splitting iterations behind a uniform step/run interface.

Three-operator methods (``BFoRB``, ``BRFoB``, ``DavisYin``, ``FRDR``, ``DR``)
drive a shadow sequence ``z_k`` and extract solutions through ``J_{lam*A}``;
two-operator methods (``FB``, ``FoRB``, ``RFoB``) ignore ``A`` and iterate
``x_k`` directly.  Every step function mutates (and returns) a
:class:`SolverState` owned by a single run; the problem itself is never
mutated, so runs over distinct states may proceed concurrently.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import as_vector

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
        Second stepsize; required for (and only for) ``FRDR``.

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
    if L <= 0:
        raise SolverError("L must be positive")
    if method is Method.FRDR:
        if gamma is None:
            raise SolverError("FRDR requires gamma")
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
    enforce_bound: bool = True   # warn (never fail) when lam >= bound

    def __post_init__(self):
        self.method = Method(self.method)
        if self.lam <= 0:
            raise SolverError("lam must be positive")
        if self.max_iters < 1:
            raise SolverError("max_iters must be a positive integer")
        if self.tol <= 0:
            raise SolverError("tol must be positive")
        self.z0 = as_vector(self.z0, name="z0")
        if self.method is Method.FRDR:
            if self.gamma is None:
                raise SolverError("FRDR requires gamma")
            if self.gamma <= 0:
                raise SolverError("gamma must be positive")
        elif self.gamma is not None:
            raise SolverError(f"{self.method.value} does not accept gamma")
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
class SolverState:
    """Mutable per-run iterate bundle; owned by exactly one run."""

    k: int = 0
    z: np.ndarray = None
    x: np.ndarray = None
    y: np.ndarray = None
    y_prev: np.ndarray = None      # BRFoB / RFoB argument history
    y_prev2: np.ndarray = None
    B_y_prev: np.ndarray = None    # BFoRB cached forward values
    B_y_prev2: np.ndarray = None
    x_prev: np.ndarray = None      # FoRB / RFoB / FRDR history
    B_x: np.ndarray = None         # FoRB / FRDR cached forward values
    B_x_prev: np.ndarray = None
    u: np.ndarray = None           # FRDR dual variable
    forward_evals: int = 0
    resolvent_evals: int = 0


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


def _init_state(problem, config):
    state = SolverState(z=config.z0.copy())
    m, lam = config.method, config.lam
    if m in (Method.BFORB, Method.BRFOB):
        if config.y_init is None:
            x0 = problem.A.resolve(lam, state.z)
            state.resolvent_evals += 1
            y1, y2 = x0, x0
        else:
            y1, y2 = config.y_init
        state.y_prev, state.y_prev2 = y1, y2
        if m is Method.BFORB:
            state.B_y_prev = problem.B.forward(y1)
            state.forward_evals += 1
            if y1 is y2:
                state.B_y_prev2 = state.B_y_prev
            else:
                state.B_y_prev2 = problem.B.forward(y2)
                state.forward_evals += 1
    elif m in (Method.FB, Method.FORB, Method.RFOB):
        state.x = config.z0.copy()
        if config.y_init is not None:
            if not np.array_equal(config.y_init[0], state.x):
                raise SolverError(
                    "for two-operator methods y_init[0] must equal z0 "
                    "(the history is the x-sequence itself)")
            state.x_prev = config.y_init[1]
        else:
            state.x_prev = state.x
        if m is Method.FORB:
            state.B_x = problem.B.forward(state.x)
            state.forward_evals += 1
            if state.x_prev is state.x:
                state.B_x_prev = state.B_x
            else:
                state.B_x_prev = problem.B.forward(state.x_prev)
                state.forward_evals += 1
    elif m is Method.FRDR:
        state.x = config.z0.copy()
        state.x_prev = state.x
        state.B_x = problem.B.forward(state.x)
        state.B_x_prev = state.B_x
        state.forward_evals += 1
        state.u = np.zeros(problem.dim)
    return state


def bforb_step(problem, config, state):
    """One backward-forward-reflected-backward update.

    x_k = J_{lam*A}(z_k);
    y_k = J_{lam*C}(2 x_k - z_k - lam*(2 B(y_{k-1}) - B(y_{k-2})));
    z_{k+1} = z_k + y_k - x_k,
    followed by caching the single new forward value B(y_k).
    """
    lam = config.lam
    x = problem.A.resolve(lam, state.z)
    w = 2.0 * x - state.z - lam * (2.0 * state.B_y_prev - state.B_y_prev2)
    y = problem.C.resolve(lam, w)
    state.z = state.z + y - x
    state.x, state.y = x, y
    state.y_prev2, state.y_prev = state.y_prev, y
    state.B_y_prev2, state.B_y_prev = state.B_y_prev, problem.B.forward(y)
    state.forward_evals += 1
    state.resolvent_evals += 2
    state.k += 1
    return state


def brfob_step(problem, config, state):
    """One backward-reflected-forward-backward update.

    x_k = J_{lam*A}(z_k);
    y_k = J_{lam*C}(2 x_k - z_k - lam*B(2 y_{k-1} - y_{k-2}));
    z_{k+1} = z_k + y_k - x_k.
    """
    lam = config.lam
    x = problem.A.resolve(lam, state.z)
    w = 2.0 * x - state.z - lam * problem.B.forward(
        2.0 * state.y_prev - state.y_prev2)
    y = problem.C.resolve(lam, w)
    state.z = state.z + y - x
    state.x, state.y = x, y
    state.y_prev2, state.y_prev = state.y_prev, y
    state.forward_evals += 1
    state.resolvent_evals += 2
    state.k += 1
    return state


def davis_yin_step(problem, config, state):
    """x = J_{lam*A}(z); y = J_{lam*C}(2x - z - lam*B(x)); z+ = z + y - x."""
    lam = config.lam
    x = problem.A.resolve(lam, state.z)
    w = 2.0 * x - state.z - lam * problem.B.forward(x)
    y = problem.C.resolve(lam, w)
    state.z = state.z + y - x
    state.x, state.y = x, y
    state.forward_evals += 1
    state.resolvent_evals += 2
    state.k += 1
    return state


def dr_step(problem, config, state):
    """Douglas-Rachford for A + C (B is ignored)."""
    lam = config.lam
    x = problem.A.resolve(lam, state.z)
    y = problem.C.resolve(lam, 2.0 * x - state.z)
    state.z = state.z + y - x
    state.x, state.y = x, y
    state.resolvent_evals += 2
    state.k += 1
    return state


def fb_step(problem, config, state):
    """Forward-backward: x+ = J_{lam*C}(x - lam*B(x)).  A is ignored.

    Included as the baseline that may fail without cocoercivity of B.
    """
    lam = config.lam
    x_new = problem.C.resolve(lam, state.x - lam * problem.B.forward(state.x))
    state.x_prev, state.x = state.x, x_new
    state.forward_evals += 1
    state.resolvent_evals += 1
    state.k += 1
    return state


def forb_step(problem, config, state):
    """Relaxed forward-reflected-backward step (A is ignored).

    x_{k+1} = (1-h) x_k
              + h*J_{lam*C}(x_k - lam*B(x_k) - (lam/h)*(B(x_k) - B(x_{k-1}))).
    One forward evaluation per step: B(x_k), B(x_{k-1}) come from the cache
    and B(x_{k+1}) is evaluated once at the end.
    """
    lam, h = config.lam, config.h
    arg = state.x - lam * state.B_x - (lam / h) * (state.B_x - state.B_x_prev)
    x_new = (1.0 - h) * state.x + h * problem.C.resolve(lam, arg)
    state.x_prev, state.x = state.x, x_new
    state.B_x_prev, state.B_x = state.B_x, problem.B.forward(x_new)
    state.forward_evals += 1
    state.resolvent_evals += 1
    state.k += 1
    return state


def rfob_step(problem, config, state):
    """Relaxed reflected-forward-backward step (A is ignored).

    x_{k+1} = (1-h) x_k + h*J_{lam*C}(x_k - lam*B(x_k + (x_k - x_{k-1})/h)).
    """
    lam, h = config.lam, config.h
    reflected = state.x + (state.x - state.x_prev) / h
    x_new = (1.0 - h) * state.x + h * problem.C.resolve(
        lam, state.x - lam * problem.B.forward(reflected))
    state.x_prev, state.x = state.x, x_new
    state.forward_evals += 1
    state.resolvent_evals += 1
    state.k += 1
    return state


def frdr_step(problem, config, state):
    """Forward-reflected-Douglas-Rachford step with stepsizes lam < gamma.

    x_{k+1} = J_{lam*A}(x_k - lam*u_k - lam*(2 B(x_k) - B(x_{k-1})));
    y_{k+1} = J_{gamma*C}(2 x_{k+1} - x_k + gamma*u_k);
    u_{k+1} = u_k + (2 x_{k+1} - x_k - y_{k+1}) / gamma,
    which keeps u_{k+1} an element of C(y_{k+1}), so fixed points solve
    0 in (A + B + C)(x).  The pre-resolvent point is stashed in ``state.z``
    (it satisfies x_{k+1} = J_{lam*A}(state.z), which the run loop uses for
    residual instrumentation).
    """
    lam, gamma = config.lam, config.gamma
    w = state.x - lam * state.u - lam * (2.0 * state.B_x - state.B_x_prev)
    x_new = problem.A.resolve(lam, w)
    y_new = problem.C.resolve(gamma, 2.0 * x_new - state.x + gamma * state.u)
    state.u = state.u + (2.0 * x_new - state.x - y_new) / gamma
    state.x_prev, state.x = state.x, x_new
    state.y = y_new
    state.z = w
    state.B_x_prev, state.B_x = state.B_x, problem.B.forward(x_new)
    state.forward_evals += 1
    state.resolvent_evals += 2
    state.k += 1
    return state


_STEPPERS = {
    Method.BFORB: bforb_step,
    Method.BRFOB: brfob_step,
    Method.DAVIS_YIN: davis_yin_step,
    Method.DR: dr_step,
    Method.FB: fb_step,
    Method.FORB: forb_step,
    Method.RFOB: rfob_step,
    Method.FRDR: frdr_step,
}


def _stepsize_warnings(config, L):
    notes = []
    if not config.enforce_bound or L is None:
        return notes
    if config.method is Method.FRDR:
        if config.gamma <= config.lam:
            notes.append(
                f"FRDR expects gamma > lam (lam={config.lam:g}, "
                f"gamma={config.gamma:g})")
        bound = max_stepsize(Method.FRDR, L, config.gamma) if L > 0 else None
    else:
        bound = max_stepsize(config.method, L) if L > 0 else None
    if bound is not NOT_GUARANTEED and config.lam >= bound:
        notes.append(
            f"lam={config.lam:g} is outside the guaranteed interval "
            f"(0, {bound:g}) for {config.method.value}")
    return notes


def _residual(problem, config, state, z_point, b_at_x=None):
    """Fixed-point residual |J_{lam*C}(2x - z - lam*B(x)) - x| at x = state.x.

    For two-operator methods the caller passes ``z_point = x`` so this
    reduces to the forward-backward residual; instrumentation does not touch
    the state's evaluation counters.
    """
    lam = config.lam
    x = state.x
    bx = problem.B.forward(x) if b_at_x is None else b_at_x
    r = problem.C.resolve(lam, 2.0 * x - z_point - lam * bx) - x
    return math.sqrt(r @ r)


def run(problem, config, record_history=False):
    """Drive ``config.method`` on ``problem`` until the stopping rule fires.

    Stops when the governing iterate change satisfies
    ``|z_{k+1} - z_k| <= tol * (1 + |z_k|)`` (``x`` takes the role of ``z``
    for two-operator methods), when ``max_iters`` is reached, or when an
    iterate goes non-finite or beyond ``DIVERGE_FACTOR * (1 + |z0|)``
    (status ``"diverged"``; never an exception).

    Per-iteration records hold the step norm, the solution residual of
    :func:`splitkit.certificates.omega_residual` form, and, when the problem
    carries ``x_star``, the distance of ``x_k`` to it.  With
    ``record_history=True`` the full ``z``/``y``/``x`` histories are kept so
    certificates can be evaluated afterwards; the hot loop itself performs
    exactly the oracle calls of the method plus this bookkeeping.
    """
    config = config if isinstance(config, SolverConfig) else SolverConfig(**config)
    method, lam = config.method, config.lam
    if config.z0.shape[0] != problem.dim:
        raise SolverError(
            f"z0 has dim {config.z0.shape[0]}, problem has {problem.dim}")
    two_op = method in TWO_OPERATOR_METHODS
    L = problem.B.lipschitz

    problem.prepare(lam)
    if method is Method.FRDR:
        problem.C.prepare(config.gamma)

    trace = Trace(method=method, lam=lam, gamma=config.gamma, h=config.h)
    trace.warnings.extend(_stepsize_warnings(config, L))
    if problem.x_star is not None:
        trace.dist_to_xstar = []

    state = _init_state(problem, config)
    step = _STEPPERS[method]
    z0_norm = math.sqrt(config.z0 @ config.z0)
    big = DIVERGE_FACTOR * (1.0 + z0_norm)
    x_star = problem.x_star

    if record_history:
        if two_op:
            trace.xs = [state.x]
        else:
            trace.zs = [state.z.copy()]
            trace.xs = []
            if method in (Method.BFORB, Method.BRFOB):
                trace.ys = [state.y_prev2, state.y_prev]
                trace.y_offset = 2
            else:
                trace.ys = []
                trace.y_offset = 0

    status = "max_iters"
    frdr = method is Method.FRDR
    # Each iterate's norm is computed once, for the divergence test, and
    # reused as the next iteration's prev_norm (the first iterate is z0).
    # math.sqrt(d @ d) has the bits of np.linalg.norm: sqrt(d.dot(d)).
    prev_norm = z0_norm
    for _ in range(config.max_iters):
        gov_prev = state.x if (two_op or frdr) else state.z
        u_prev = state.u if frdr else None

        step(problem, config, state)

        gov = state.x if (two_op or frdr) else state.z
        d = gov - gov_prev
        step_norm = math.sqrt(d @ d)
        if frdr:
            # u moves even when x stalls, so fold it into the stopping measure.
            du = state.u - u_prev
            step_norm += lam * math.sqrt(du @ du)

        trace.step_norms.append(step_norm)
        trace.iterations += 1

        if record_history:
            if two_op:
                trace.xs.append(state.x)
            else:
                trace.zs.append(state.z)
                trace.xs.append(state.x)
                if state.y is not None:
                    trace.ys.append(state.y)

        # NaN and inf fail the comparison, so this is also the finiteness test.
        gov_norm = math.sqrt(gov @ gov)
        if not gov_norm <= big or (frdr and not np.isfinite(state.u).all()):
            trace.residuals.append(float("nan"))
            if trace.dist_to_xstar is not None:
                trace.dist_to_xstar.append(float("nan"))
            status = "diverged"
            break

        # Solution-quality instrumentation (never touches the state counters).
        if method is Method.DR or method is Method.DAVIS_YIN:
            # Both compute y = J_{lam*C}(2x - z - lam*B_eff(x)) in the step,
            # so the residual |y - x| equals the step norm exactly.
            res = step_norm
        elif two_op:
            b_at_x = state.B_x if method is Method.FORB else None
            res = _residual(problem, config, state, state.x, b_at_x)
        elif frdr:
            res = _residual(problem, config, state, state.z, state.B_x)
        else:
            res = _residual(problem, config, state, gov_prev)
        trace.residuals.append(res)
        if trace.dist_to_xstar is not None:
            e = state.x - x_star
            trace.dist_to_xstar.append(math.sqrt(e @ e))

        if step_norm <= config.tol * (1.0 + prev_norm):
            status = "converged"
            break
        prev_norm = gov_norm

    trace.status = status
    trace.forward_evals = state.forward_evals
    trace.resolvent_evals = state.resolvent_evals
    if two_op or method is Method.FRDR:
        trace.x_final = state.x
        trace.z_final = state.x if two_op else state.z
    else:
        trace.z_final = state.z
        trace.x_final = problem.A.resolve(lam, state.z)
    return trace
