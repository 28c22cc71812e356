"""Splitting iterations behind one ``run()`` driver.

Each method family is a row stepper that takes its steps in place on a
block of rows: step ``i`` reads row ``i`` and writes row ``i+1``, with the
operations of the method's step in their order.  :class:`_Template` is the
three-operator template of BFoRB, BRFoB, Davis-Yin and DR, which differ
only in the forward term (DR is the template with ``F = 0``);
:class:`_TwoOp` runs FB, FoRB and RFoB, which ignore ``A`` and iterate
``x_k`` directly; :class:`_FRDR` runs FRDR.  On an affine triple with
``B != 0``, BFoRB, BRFoB, Davis-Yin and FRDR take a precomposed step,
whose maps :func:`_precompose` derives from the step's own formula, and
BFoRB, BRFoB and FRDR take their residual rows from the residual map that
the same helper, :func:`_derive`, gives :func:`_residual_map` (and the
flows of :mod:`splitkit.dynamics` their Euler map).
:func:`run` advances the stepper a block at a time and owns the stopping
rule, the divergence test, the history and the residual, which it
evaluates per block of steps.  The steppers receive the run's prepared
resolvents (``prepare(lam)``, see :mod:`splitkit.operators`): each run
owns its inverses and frees them when it ends, and it never changes the
problem, so one problem may serve several threads at once.
"""

import enum
import math
import operator
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .operators import (NonFiniteError, as_count, as_vector, fp_errstate,
                        fp_warnings, residual, resolvent_matrix, row_norms,
                        vanishes)

#: Sentinel returned by :func:`max_stepsize` for methods whose convergence
#: is not guaranteed by a Lipschitz bound alone (they need cocoercivity).
NOT_GUARANTEED = None

#: Iterates whose norm exceeds this multiple of ``1 + |z0|`` flag divergence.
DIVERGE_FACTOR = 1e12

#: Steps per block in :func:`run`, which takes a block's steps in place,
#: then their norms and stop tests, then their residual rows.  The steps
#: of the block after the stop are discarded: 2.4% of the steps of the
#: d=50 solve benchmark at seed 1 (a mean of 30 against 1,226 per run).
#: Blocks of 128 or 256 residual rows were no faster there, and their
#: larger temporaries raised the peak memory of repeated recorded runs at
#: d=50 by 2-3 MB.
_BLOCK = 64


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
        # 2*(L*gamma) rounds as (2*L)*gamma but cannot overflow in 2*L; where
        # it overflows, 1 is far below an ulp of it and the bound is 1/(2L)
        Lg = L * gamma
        return (gamma / (1.0 + 2.0 * Lg) if Lg <= 0.5 * np.finfo(float).max
                else 0.5 / L)
    if gamma is not None:
        raise SolverError(f"gamma is only meaningful for FRDR, not {method.value}")
    # 0.125/L and 0.5/L round the same real numbers as 1/(8L) and 1/(2L)
    # without the product's overflow.  22L rounds: 0.03125/(0.6875*L) is
    # 1/(22L) scaled by 2^-5, bit for bit while 0.6875*L is normal.
    if method is Method.BFORB:
        return 0.125 / L
    if method is Method.BRFOB:
        return 1.0 / (22.0 * L) if L < 1.0 else 0.03125 / (0.6875 * L)
    if method is Method.FORB:
        return 0.5 / L
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
        self.max_iters = as_count(self.max_iters, "max_iters", SolverError)
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
    """Per-iteration records of one run plus terminal status; a recorded
    history is one 2-D array whose row ``j`` is iterate ``j``.
    ``residuals`` and ``dist_to_xstar`` are ``None`` when the run did not
    evaluate them (``dist_to_xstar`` also when the problem has no
    ``x_star``)."""

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
    zs: np.ndarray = None
    ys: np.ndarray = None
    xs: np.ndarray = None
    y_offset: int = 0   # the row of y_0 in ys, after the y-history

    def y_at(self, j):
        """Recorded y_j; indices before the first record are backfilled."""
        return self.ys[max(j + self.y_offset, 0)]

    def z_at(self, j):
        """Recorded z_j (z_0 backfills j < 0)."""
        return self.zs[max(j, 0)]


class _Rows:
    """A method's steps, taken in place on a block of rows.

    A stepper is built from the run's ``config``, its prepared oracles
    ``A_res``, ``B_fwd`` and ``C_res``, the precomposed maps ``lifted``
    (empty: the composed step) and whether the run is ``record``ed, and
    building it makes the oracle calls that precede the first step.
    Step ``i`` reads row ``i`` and writes row ``i+1``, with the operations
    of the method's step in their order, so a block can be stepped again
    from its row 0 once the rows that start the next block are moved
    there: ``carried`` lists those arrays with their row counts.
    ``steps[i]`` holds the row views of step ``i``, and ``walk(rows,
    pending)`` takes the steps whose views ``rows`` yields, up to and
    including the first after which ``pending`` is not empty.
    ``zs``, ``xs`` and ``ys`` are the rows recorded per step (``None``:
    not recorded), ``points`` the rows of ``x``, of the point ``p`` whose
    ``J_{lam*A}`` is ``x`` and of a cached ``B(x)`` (``None``: not cached)
    that a step's residual reads, and ``history`` the y-history recorded
    before the first step.  ``fe`` and ``re`` count the oracle calls before
    the first step and ``per`` those of each step.  :meth:`rows` gives the
    stack whose row norms are each step's iterate norm and step norms.

    The walks call a matrix's bound ``ndarray.dot`` and pass ufunc outputs
    by position, each bound once when the walk is built: the same gemv and
    ufunc, bit for bit, without the dispatch of ``np.dot`` and of ``out=``.
    At d=50 ``np.dot(J, z, out=x)`` took 0.84 us against 0.62 us for
    ``J.dot(z, x)``, and ``np.add(a, b, out=c)`` 0.44 us against 0.39 us
    for ``np.add(a, b, c)``; a homogeneous map on a stored row ``[1; s]``,
    ``H.dot(s1, x)``, 0.57 us against 0.94 us with its offset apart, as
    ``J.dot(np.subtract(z, lam_b, t), x)``.  A doubling is a
    self-addition, exact as the product is (inf, NaN and -0 too), and a
    scalar factor a 0-d array: at d=50 ``np.multiply(v, 2.0, o)`` took
    0.56 us, with a 0-d array 0.34 us, and ``np.add(v, v, o)`` 0.29 us.
    """

    history = ()

    def advance(self, lo, hi, pending, known):
        """Take steps ``lo..hi-1`` up to the first that raises or fires a
        floating-point event (after which ``pending`` is not empty), going
        on past an event step whose kinds are all in ``known`` and whose
        :meth:`rows` are finite.  Returns the row after the last step taken
        and what the step that raised raised (``None``: no step raised).
        The rows that ``walk`` left in the iterator tell how far it got."""
        rows = iter(self.steps[lo:hi])
        try:
            self.walk(rows, pending)
            while pending and known.issuperset(pending):
                m = hi - operator.length_hint(rows)
                if not np.isfinite(self.rows(m - 1, m)).all():
                    break
                pending.clear()
                self.walk(rows, pending)
        except Exception as exc:
            return hi - operator.length_hint(rows) - 1, exc
        return hi - operator.length_hint(rows), None


class _Template(_Rows):
    """BFoRB, BRFoB, Davis-Yin and DR: the three-operator template.

    x_k = J_{lam*A}(z_k);  y_k = J_{lam*C}(2 x_k - z_k - lam*F_k);
    z_{k+1} = z_k + y_k - x_k.

    The methods differ only in the forward term F_k: 2B(y_{k-1}) - B(y_{k-2})
    for BFoRB (one new value B(y_k) is cached at the end of each step),
    B(v_k) with v_k = 2y_{k-1} - y_{k-2} for BRFoB, B(x_k) for Davis-Yin
    and 0 for DR, which never evaluates B.  The history (y_{-2}, y_{-1})
    defaults to (x_0, x_0) with x_0 = J_{lam*A}(z_0).

    Given the maps ``(JX, JY)`` of an affine triple (:func:`_precompose`),
    the step is precomposed: x_k = JX [1; z_k], and y_k = JY [1; z_k; v_k]
    (for affine B, 2B(y_{k-1}) - B(y_{k-2}) = B(v_k)), or y_k = JY [1;
    z_k] for Davis-Yin, whose v_k = x_k is folded into JY.

    Row ``i`` of ``S1`` holds 1, ``z_i``, ``v_i`` and the step ``z_i -
    z_{i-1}`` (``S`` is its view without the 1), so the maps multiply its
    contiguous ``[1; z_i]`` and ``[1; z_i; v_i]``; ``X[i]`` is ``x_i`` and
    ``Y[i+1]`` is ``y_i``, after the ``y_{-1}`` in ``Y[0]``.  The composed
    BFoRB step caches ``B(y_i)`` in ``BY[i+2]``, after ``B(y_{-2})`` and
    ``B(y_{-1})``.  Each step counts one forward call (DR: none) and two
    resolvent calls.
    """

    def __init__(self, config, A_res, B_fwd, C_res, lifted, record):
        lam, method = config.lam, config.method
        bforb, brfob = method is Method.BFORB, method is Method.BRFOB
        dr, reflect = method is Method.DR, bforb or brfob
        z = config.z0.copy()
        n, d = min(_BLOCK, config.max_iters), z.shape[0]
        S1, X = np.ones((n + 1, 3 * d + 1)), np.empty((n, d))
        Y, BY = np.empty((n + 1, d)), np.empty((n + 2, d))
        self.S = S = S1[:, 1:].reshape(n + 1, 3, d)     # a view
        S[0, 0] = z
        self.fe = self.re = 0
        if reflect:
            if config.y_init is None:
                y1 = y2 = A_res(z)
                self.re = 1
            else:
                y1, y2 = config.y_init
            if bforb:
                BY[1] = B_fwd(y1)
                BY[0] = BY[1] if y1 is y2 else B_fwd(y2)
                self.fe = 1 if y1 is y2 else 2
            S[0, 1], Y[0] = 2.0 * y1 - y2, y1
            self.history = y2, y1
        self.per = (0 if dr else 1, 2)
        self.carried = (S, 1), (Y, 1), (BY, 2)
        self.zs, self.xs, self.ys = S[1:, 0], X, Y[1:]
        self.points = X, S[:-1, 0], None
        add, sub, mul = np.add, np.subtract, np.multiply
        if lifted:
            JX, JY = (H.dot for H in lifted)
            rows = (S1[:-1, :d + 1], S1[:-1, :(2 if reflect else 1) * d + 1],
                    S[:-1, 0], S[1:, 0], S[1:, 1], X, Y[1:], Y[:-1])

            def walk(rows, pending):
                for z1, zv1, z, z_next, v_next, x, y, y1 in rows:
                    JX(z1, x)
                    JY(zv1, y)
                    sub(add(z, y, z_next), x, z_next)
                    if reflect:
                        sub(add(y, y, v_next), y1, v_next)
                    if pending:
                        return
        else:
            rows = (S[:-1, 0], S[1:, 0], S[:-1, 1], S[1:, 1], X, Y[1:],
                    Y[:-1], BY[:-2], BY[1:-1], BY[2:])

            def walk(rows, pending):
                for z, z_next, v, v_next, x, y, y1, By2, By1, By in rows:
                    x[...] = A_res(z)
                    if bforb:
                        F = 2.0 * By1 - By2
                    elif brfob:
                        F = B_fwd(v)
                    elif not dr:            # Davis-Yin
                        F = B_fwd(x)
                    w = 2.0 * x - z
                    y[...] = C_res(w if dr else w - lam * F)
                    sub(add(z, y, z_next), x, z_next)
                    if bforb:
                        By[...] = B_fwd(y)
                    elif brfob:
                        sub(mul(y, 2.0, v_next), y1, v_next)
                    if pending:
                        return
        self.walk, self.steps = walk, list(zip(*rows))

    def rows(self, lo, hi):
        R = self.S[lo:hi + 1]
        np.subtract(R[1:, 0], R[:-1, 0], out=R[1:, 2])
        return R[1:, ::2]


class _TwoOp(_Rows):
    """FB, FoRB and RFoB on x_k; A is ignored.

    FB:    x_{k+1} = J_{lam*C}(x_k - lam*B(x_k)), the baseline that may fail
           without cocoercivity of B;
    FoRB:  x_{k+1} = (1-h) x_k
                     + h*J_{lam*C}(x_k - lam*B(x_k) - (lam/h)*(B(x_k) - B(x_{k-1}))),
           with one new value B(x_{k+1}) cached at the end of each step;
    RFoB:  x_{k+1} = (1-h) x_k + h*J_{lam*C}(x_k - lam*B(x_k + (x_k - x_{k-1})/h)).

    The history x_{-1} defaults to x_0 = z_0.  Row ``i+1`` of ``S`` holds
    ``x_i`` and the step ``x_i - x_{i-1}``, after the ``x_{-1}`` in row 0,
    and FoRB caches ``B(x_i)`` in ``BX[i+1]``, after ``B(x_{-1})`` in
    ``BX[0]``.  Each step makes one forward and one resolvent call.
    """

    def __init__(self, config, A_res, B_fwd, C_res, lifted, record):
        lam, h, method = config.lam, config.h, config.method
        fb, forb = method is Method.FB, method is Method.FORB
        x = x_prev = config.z0.copy()
        if config.y_init is not None:
            if not np.array_equal(config.y_init[0], x):
                raise SolverError(
                    "for two-operator methods y_init[0] must equal z0 "
                    "(the history is the x-sequence itself)")
            x_prev = config.y_init[1]
        n, d = min(_BLOCK, config.max_iters), x.shape[0]
        S, BX = np.empty((n + 2, 2, d)), np.empty((n + 2, d))
        S[0, 0], S[1, 0] = x_prev, x
        self.fe = self.re = 0
        if forb:
            BX[1] = B_fwd(x)
            BX[0] = BX[1] if x_prev is x else B_fwd(x_prev)
            self.fe = 1 if x_prev is x else 2
        self.S, self.per, self.carried = S, (1, 1), ((S, 2), (BX, 2))
        self.zs, self.xs, self.ys = None, S[2:, 0], None
        self.points = S[2:, 0], S[2:, 0], BX[2:] if forb else None
        self.steps = list(zip(S[:-2, 0], S[1:-1, 0], S[2:, 0], BX[:-2],
                              BX[1:-1], BX[2:]))

        def walk(rows, pending):
            for x_prev, x, x_next, Bx_prev, Bx, Bx_next in rows:
                if fb:
                    x_next[...] = C_res(x - lam * B_fwd(x))
                elif forb:
                    x_next[...] = (1.0 - h) * x + h * C_res(
                        x - lam * Bx - (lam / h) * (Bx - Bx_prev))
                    Bx_next[...] = B_fwd(x_next)
                else:
                    x_next[...] = (1.0 - h) * x + h * C_res(
                        x - lam * B_fwd(x + (x - x_prev) / h))
                if pending:
                    return

        self.walk = walk

    def rows(self, lo, hi):
        R = self.S[lo + 1:hi + 2]
        np.subtract(R[1:, 0], R[:-1, 0], out=R[1:, 1])
        return R[1:]


class _FRDR(_Rows):
    """Forward-reflected-Douglas-Rachford with stepsizes lam < gamma.

    w_k = x_k - lam*u_k - lam*(2 B(x_k) - B(x_{k-1}));  x_{k+1} = J_{lam*A}(w_k);
    y_{k+1} = J_{gamma*C}(2 x_{k+1} - x_k + gamma*u_k);
    u_{k+1} = u_k + (2 x_{k+1} - x_k - y_{k+1}) / gamma,
    which keeps u_{k+1} an element of C(y_{k+1}), so fixed points solve
    0 in (A + B + C)(x).  The recorded z is w_k, the point whose resolvent
    is x_{k+1}.  u moves even when x stalls, so the step norm adds
    lam*|u_{k+1} - u_k|.  ``C_res`` is ``J_{gamma*C}``.

    Given the maps ``(JX, PB, K)`` of an affine triple (:func:`_precompose`),
    the step is precomposed and calls no oracle: for affine B, 2B(x_k) -
    B(x_{k-1}) = B(t_k) with t_k = 2 x_k - x_{k-1}, so w_k = x_k - lam*u_k
    + PB [1; t_k] with PB [1; t] = -lam*B(t); x_{k+1} = JX [1; w_k]; and
    u_{k+1} = K [1; r], with r = t_{k+1} + gamma*u_k and K [1; r] = (r -
    J_{gamma*C}(r))/gamma, takes the place of the resolve of y; y_{k+1} =
    r - gamma*u_{k+1}, formed for a ``record``ed history only.

    Row ``i`` of ``S`` holds ``x_i``, the steps ``x_i - x_{i-1}`` and
    ``u_i - u_{i-1}``, and ``u_i``; ``W1[i]`` is ``[1; w_i]`` and ``Y[i]``
    is ``y_{i+1}``.  The precomposed step keeps ``[1; t_i]`` in ``T[i]``
    (``t_0 = x_0``: ``x_{-1} = x_0``) and ``[1; r]`` in ``r``, the
    composed one ``B(x_{i+1})`` in ``BX[i+2]``, after ``B(x_{-1})`` and
    ``B(x_0)``.  Each step counts one forward and two resolvent calls.
    """

    def __init__(self, config, A_res, B_fwd, C_res, lifted, record):
        # 0-d arrays: a cheaper scalar operand of a ufunc than a float
        lam, gamma = np.array(config.lam), np.array(config.gamma)
        x = config.z0.copy()
        n, d = min(_BLOCK, config.max_iters), x.shape[0]
        S = np.zeros((n + 1, 4, d))                     # u_0 = 0
        W1, Y = np.ones((n, d + 1)), np.empty((n, d))
        W, Bx = W1[:, 1:], B_fwd(x)
        S[0, 0] = x
        self.S, self.fe, self.re, self.per = S, 1, 0, (1, 2)
        self.zs, self.xs, self.ys = W, S[1:, 0], Y
        rows = S[:-1, 0], S[:-1, 3], S[1:, 0], S[1:, 3], W, Y
        a, add, sub, mul = np.empty(d), np.add, np.subtract, np.multiply
        if lifted:
            JX, PB, K = (H.dot for H in lifted)
            T, r = np.ones((n + 1, d + 1)), np.ones(d + 1)
            T[0, 1:], rv = x, r[1:]
            self.carried, self.points = ((S, 1), (T, 1)), (S[1:, 0], W, None)
            rows += W1, T[:-1], T[1:, 1:]
        else:
            BX = np.tile(Bx, (n + 2, 1))       # B(x_{-1}) = B(x_0)
            self.carried = (S, 1), (BX, 2)
            self.points = S[1:, 0], W, BX[2:]
            rows += BX[:-2], BX[1:-1], BX[2:]

        def walk(rows, pending):
            # p, q, o: [1; w], [1; t] and t_next, or B(x_prev), B(x), B(x_next)
            for x, u, x_next, u_next, w, y, p, q, o in rows:
                sub(x, mul(u, lam, a), w)       # w = x - lam*u - lam*F
                if lifted:                      # F = B(t), t = 2x - x_prev
                    add(w, PB(q, a), w)
                    JX(p, x_next)
                    # t_next = 2 x_next - x; u_next = K [1; t_next + gamma*u]
                    sub(add(x_next, x_next, o), x, o)
                    add(o, mul(u, gamma, a), rv)
                    K(r, u_next)
                    if record:
                        sub(rv, mul(u_next, gamma, a), y)
                else:                           # F = 2 B(x) - B(x_prev)
                    sub(add(q, q, a), p, a)
                    sub(w, mul(a, lam, a), w)
                    x_next[...] = A_res(w)
                    t = 2.0 * x_next - x
                    y[...] = C_res(t + gamma * u)
                    add(u, (t - y) / gamma, u_next)
                    o[...] = B_fwd(x_next)
                if pending:
                    return

        self.walk, self.steps = walk, list(zip(*rows))

    def rows(self, lo, hi):
        R = self.S[lo:hi + 1]
        np.subtract(R[1:, ::3], R[:-1, ::3], out=R[1:, 1:3])
        return R[1:, :3]


#: Methods that an affine triple with B != 0 runs as a precomposed step.
_LIFTED = frozenset({Method.BFORB, Method.BRFOB, Method.DAVIS_YIN,
                     Method.FRDR})


def _template_y(A, B, C, lam, z, v):
    """The template's y_k = J_{lam*C}(2 x_k - z_k - lam*B(v)), x_k =
    J_{lam*A}(z_k), whose forward point v is x_k for Davis-Yin (None)."""
    x = A(z)
    return C(2.0 * x - z - lam * B(x if v is None else v))


def _frdr_u(C, gamma, r):
    """FRDR's u_{k+1} = (r - J_{gamma*C}(r))/gamma for r = 2 x_{k+1} - x_k
    + gamma*u_k, which is u_k + (2 x_{k+1} - x_k - y_{k+1})/gamma."""
    return (r - C(r)) / gamma


def _derive(mats, oracles, *forms):
    """The homogeneous matrices ``H = [c | G]``, one per form ``(f, n)``,
    with ``f(*oracles, s_1, .., s_n) = H [1; s_1; ..; s_n]`` for a map
    ``f`` of its oracles that is affine in its ``n`` vectors when the
    oracles are.  Block ``i`` of ``G`` is ``f`` of the linear parts
    ``mats``, with ``s_i`` the identity and the others 0 (the parts act on
    column stacks and cost nothing on the identity and on 0); ``c`` is
    ``f`` of the oracles themselves at zero.  Empty if an oracle raises
    :class:`NonFiniteError` or an ``H`` is not finite."""
    I, zero = np.eye(len(mats[0])), np.zeros(len(mats[0]))
    lin = [lambda S, M=M: M if S is I else np.dot(M, S) for M in mats]
    with np.errstate(all="ignore"):
        try:
            maps = tuple(np.hstack(
                [f(*oracles, *[zero] * n)[:, None]]
                + [f(*lin, *(I if j == i else 0.0 for j in range(n)))
                   for i in range(n)]) for f, n in forms)
        except NonFiniteError:
            return ()
    return maps if all(np.isfinite(H).all() for H in maps) else ()


def _residual_map(problem, lam, A_res, C_res):
    """``(mats, omega)`` for a triple of affine (or zero) operators: its
    matrices ``mats = (J_{lam*A}, M_B, J_{lam*C})``, each inverse that of
    the resolvent ``A_res`` or ``C_res`` at ``lam`` where it holds one and
    formed otherwise, and the map ``omega = [r | R]`` of :func:`_derive`,
    with ``R p + r = J_{lam*C}(2x - p - lam*B(x)) - x``, x =
    ``J_{lam*A}(p)``, at every point ``p`` (Davis-Yin's y-map less
    ``J_{lam*A}``), or None if not finite.  ``(None, None)`` for any other
    triple."""
    parts = [op.affine_parts() for op in (problem.A, problem.B, problem.C)]
    if None in parts:
        return None, None
    (MA, _), (MB, _), (MC, _) = parts
    JA, JC = (getattr(res, "J", None) for res in (A_res, C_res))
    mats = (resolvent_matrix(MA, lam) if JA is None else JA, MB,
            resolvent_matrix(MC, lam) if JC is None else JC)
    omega = _derive(mats, (A_res, problem.B.forward, C_res), (
        lambda A, B, C, p: _template_y(A, B, C, lam, p, None) - A(p), 1))
    return mats, omega[0] if omega else None


def _precompose(config, A_res, B, C_res):
    """The maps of :func:`_derive` of a precomposed step: ``JX [1; z] =
    J_{lam*A}(z)``, then ``JY`` of :func:`_template_y` of ``[1; z; v]``
    (BFoRB, BRFoB) or ``[1; z]`` (Davis-Yin), or for FRDR ``PB [1; t] =
    -lam*B(t)`` and ``K`` of :func:`_frdr_u` (``C_res`` is
    ``J_{gamma*C}``).  Empty unless the method is one of these, ``A_res``
    and ``C_res`` are matrix resolvents and ``B`` is affine and not zero,
    or if a map is not finite."""
    JA, JC = getattr(A_res, "J", None), getattr(C_res, "J", None)
    if config.method not in _LIFTED or JA is None or JC is None:
        return ()
    parts = B.affine_parts()
    if parts is None or vanishes(B):
        return ()
    lam, gamma = config.lam, config.gamma
    forms = [(lambda A, B, C, w: A(w), 1)]
    if config.method is Method.FRDR:
        forms += [(lambda A, B, C, t: -lam * B(t), 1),
                  (lambda A, B, C, r: _frdr_u(C, gamma, r), 1)]
    elif config.method is Method.DAVIS_YIN:
        forms += [(lambda A, B, C, z: _template_y(A, B, C, lam, z, None), 1)]
    else:
        forms += [(lambda A, B, C, z, v: _template_y(A, B, C, lam, z, v), 2)]
    return _derive((JA, parts[0], JC), (A_res, B.forward, C_res), *forms)


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


def _keep(hist, name, rows):
    """Append ``rows`` to the recorded series ``name``.  A full buffer
    doubles, its rows moving a block at a time from the end, each freed as it
    moves (no series is held twice; rows never written take no memory)."""
    buf, n = hist[name]
    if n + len(rows) > len(buf):
        old, buf, hi = buf, np.empty((2 * len(buf), buf.shape[1])), n
        for lo in reversed(range(0, n, _BLOCK)):
            buf[lo:hi] = old[lo:hi]
            old.resize((lo, buf.shape[1]), refcheck=False)
            hi = lo
    buf[n:n + len(rows)] = rows
    hist[name] = buf, n + len(rows)


def run(problem, config, record_history=False, diagnostics=True):
    """Drive ``config.method`` on ``problem`` until the stopping rule fires.

    Stops when the governing iterate change satisfies
    ``|z_{k+1} - z_k| <= tol * (1 + |z_k|)`` (``x`` takes the role of ``z``
    for two-operator methods and FRDR), when ``max_iters`` is reached, or
    when an iterate goes non-finite or beyond ``DIVERGE_FACTOR * (1 + |z0|)``
    (status ``"diverged"``; never an exception).  An oracle that overflows
    (:class:`~splitkit.operators.NonFiniteError`) also ends the run as
    ``"diverged"``: every series then has one entry per recorded iteration,
    and the final iterates and counters are those of the last iteration
    that completed (before any: the start, and the oracle calls of the
    warm start if it completed).  Floating-point overflow, invalid
    operations and division by zero raise no warning: each kind that numpy
    reports during the run is named once in ``Trace.warnings``, after the
    stepsize notes, in the fixed order of ``FP_KINDS``, whatever the order
    in which they fire.
    A norm whose squares overflow (a finite vector beyond about 1.3e154,
    ``z0`` included) is taken again by :func:`row_norms`' rescaling, so the
    threshold is finite for a finite iterate.  The bound is finite for
    ``|z0|`` up to about 1.8e296; beyond that it is inf, and only the
    finiteness test ends a diverging run.

    The run goes one block of ``_BLOCK`` steps at a time, through four
    stages in order: (1) passes over the block take its steps in place (see
    :class:`_Rows`), each up to the block's end, right after a step that
    fires a floating-point event (unless the run or the block already holds
    each kind it fired and its iterate is finite) or before a step that
    raises, and each followed by the norms of its iterates and steps in one
    :func:`row_norms` call and the stopping tests as array comparisons;
    (2) the block ends after the first step that stops the run, before the
    step that raised (a stop cancels a later step's error), or at its last
    row; (3) the residual and distance rows up to that end follow (below,
    skipped with ``diagnostics=False``);
    (4) the block's records, the kinds fired at its kept rows and the
    iterates and counters of its last kept row are committed at once; then
    the step's error, if it still counts, ends the run.  So a kind is named
    only if a step, norm or residual row that the run keeps fired it, no
    oracle is called on a state that a step made non-finite, and the
    records are bit for bit those of one step at a time.  The steps of the
    block after the stop are computed and discarded, oracle calls
    included: the counters ``forward_evals`` and ``resolvent_evals`` count
    the method's oracle calls of the warm start and of the steps kept.

    When ``A`` and ``C`` are affine or bilinear (their prepared resolvents
    are matrix products) and ``B`` is affine and not zero, BFoRB, BRFoB,
    Davis-Yin and FRDR take the precomposed step of :func:`_precompose`
    (the composed step if a map is not finite): each map is one product
    with a row that carries its 1, and FRDR's maps fold in ``B``, so its
    steps call no oracle.  The iterates agree with the composed step's to
    rounding; the counters count the method's logical oracle calls either
    way.  The precomposed step checks no resolvent for finiteness, so a
    diverged precomposed run ends at the step whose iterate left the
    finite range or passed the bound: that step is its last record, and
    the template's ``x_final`` is ``J_{lam*A}(z_final)`` where both are
    finite.  Every other triple and method, ``B = 0``
    included (DR's template, bit for bit), takes the composed step.

    Per-iteration records hold the step norm, the omega residual of
    :func:`~splitkit.operators.residual` and, when the problem carries
    ``x_star``, the distance of ``x_k`` to it.  Davis-Yin and, when ``B =
    0``, DR record their step norm, which their steps compute as exactly
    this residual.  BFoRB, BRFoB and FRDR on the precomposed step pass
    ``residual`` the map of :func:`_residual_map`, derived once per run;
    the composed rows pay one ``C`` resolve, and one ``B`` forward unless
    the step caches ``B(x)`` as FoRB and the composed FRDR step do,
    outside the counters.
    Row ``k`` of the residuals belongs to the point ``p`` of step ``k``:
    the iterate before the step, ``zs[k]``, for BFoRB, BRFoB, Davis-Yin and
    DR; ``w_k = zs[k+1]``, whose resolvent is ``x_{k+1}``, for FRDR; and
    the iterate after the step, ``xs[k+1]``, for FB, FoRB and RFoB, which
    ignore ``A`` (their residual is that of ``B + C``).
    No residual feeds back into the iteration, so the rows are evaluated
    per block of ``_BLOCK`` steps by one ``residual`` call.  A residual
    oracle that raises ends the run "diverged" at its row, whatever a
    later step raised: only then are the block's composed rows evaluated
    again one at a time, to find it, and the warnings name only the kinds
    of the steps and rows up to it.
    With ``diagnostics=False`` no residual or distance row is evaluated and
    both series end as ``None``; every other field is bit for bit that of
    the default run, the counters too, which never count the rows' oracle
    calls.  So a residual oracle that raises cannot end the run, and a
    floating-point kind that only a residual row fires is not named.
    With ``record_history=True`` each commit also writes the block's kept
    ``z``/``y``/``x`` rows, one slice per series, into the buffers that end
    as the :class:`Trace` histories.  The closing ``J_{lam*A}(z_final)``
    belongs to a step not taken: what it raises is dropped, as a stop drops
    a later step's error, and ``x_final`` stays the last ``x``.
    """
    method, lam = config.method, config.lam
    if config.z0.shape[0] != problem.dim:
        raise SolverError(
            f"z0 has dim {config.z0.shape[0]}, problem has {problem.dim}")
    two_op, frdr = method in TWO_OPERATOR_METHODS, method is Method.FRDR

    trace = Trace(method=method, lam=lam, gamma=config.gamma, h=config.h)
    trace.warnings.extend(_stepsize_warnings(config, problem.B.lipschitz))
    x_star = problem.x_star
    residuals = trace.residuals = [] if diagnostics else None
    dists = trace.dist_to_xstar = (
        [] if diagnostics and x_star is not None else None)
    step_norms = trace.step_norms

    # The last kept step's iterates; the start stands in until one is kept.
    z = x = config.z0.copy()
    fe = re = 0
    hist = {}   # each recorded series: its buffer and its rows so far
    if record_history:
        cap = min(config.max_iters, _BLOCK) + 3   # a block, z_0, y_-2, y_-1
        hist = {name: (np.empty((cap, z.shape[0])), 0)
                for name in (("xs",) if two_op else ("zs", "xs", "ys"))}
        _keep(hist, "xs" if two_op else "zs", z[None])

    residual_is_step = method is Method.DAVIS_YIN or (
        method is Method.DR and vanishes(problem.B))
    # The floating-point kinds fired since the last look, and those the run
    # names.  k steps precede the block; ``N`` holds the norm of the iterate
    # before it, then those of its rows, and ``steps`` their step norms.
    pending, fired, k = [], set(), 0
    N, steps = np.empty(_BLOCK + 1), np.empty(_BLOCK)

    def rows(lo, hi, omega=None):
        """Residual and distance rows ``lo..hi-1`` of the block, the
        residual rows by :func:`residual` with the residual map ``omega``."""
        X, P, BX = blk.points
        Xs = X[lo:hi]
        res = (steps[lo:hi] if residual_is_step
               else residual(C_res, problem.B, lam, Xs, P[lo:hi],
                             None if BX is None else BX[lo:hi], omega))
        return res.tolist(), ([] if x_star is None
                              else row_norms(Xs - x_star).tolist())

    tol, inf, status = config.tol, math.inf, "max_iters"

    with fp_errstate(lambda kind, flag: pending.append(kind)):
        # Each iterate's norm is computed once, for the divergence test and
        # the next step's stop test (the first iterate is z0).
        N[0] = norm0 = float(row_norms(config.z0[None])[0])
        big = DIVERGE_FACTOR * (1.0 + norm0)
        A_res, C_res = problem.prepare(lam)
        C_step = problem.C.prepare(config.gamma) if frdr else C_res
        B_fwd = problem.B.forward
        lifted = _precompose(config, A_res, problem.B, C_step)
        omega = (_residual_map(problem, lam, A_res, C_res)[1]
                 if lifted and diagnostics and not residual_is_step else None)
        try:
            blk = (_FRDR if frdr else _TwoOp if two_op else _Template)(
                config, A_res, B_fwd, C_step, lifted, record_history)
            fe, re = blk.fe, blk.re
            if "ys" in hist:
                trace.y_offset = len(blk.history)
                _keep(hist, "ys", np.reshape(blk.history, (-1, z.shape[0])))
            fired.update(pending)
            pending.clear()
            while status == "max_iters" and k < config.max_iters:
                n, lo, error = min(_BLOCK, config.max_iters - k), 0, None
                events = {}     # each kind, with the row it first fired at
                while status == "max_iters" and error is None and lo < n:
                    # One pass: the steps up to the block's end, the first
                    # step that fires an event, or the step before one that
                    # raises; then their norms and stop tests.
                    m, error = blk.advance(lo, n, pending,
                                           fired.union(events))
                    fires = [(kind, m - (error is None)) for kind in pending]
                    pending.clear()
                    V = blk.rows(lo, m)
                    R = row_norms(V)
                    if pending:  # a norm or step overflowed: at its first row
                        with np.errstate(all="ignore"):
                            sq = V[..., None, :] @ V[..., :, None]
                        i = np.argmin(np.isfinite(sq[..., 0, 0]).all(1))
                        fires[:0] = [(kind, lo + int(i)) for kind in pending]
                        pending.clear()
                    for kind, i in fires:
                        events.setdefault(kind, i)
                    with np.errstate(all="ignore"):  # the tests name no kind
                        norm = N[lo + 1:m + 1] = R[:, 0]
                        step = steps[lo:m] = (R[:, 1] + lam * R[:, 2] if frdr
                                              else R[:, 1])
                        stops = np.flatnonzero(
                            ~((norm <= big) & (step < inf))
                            | (step <= tol * (1.0 + N[lo:m])))
                    if stops.size:  # a stop cancels a later step's error
                        i = int(stops[0])
                        status = ("converged" if norm[i] <= big
                                  and step[i] < inf else "diverged")
                        m, error = lo + i + 1, None
                    lo = m
                # The block ends at row ``end``; its residual and distance
                # rows end at the first that raises (a divergence has none).
                end, hi = lo, lo - (status == "diverged")
                try:
                    res, dist = rows(0, hi, omega) if diagnostics else ((), ())
                except NonFiniteError:  # find the row; drop the stack's kinds
                    pending.clear()
                    res, dist = [], []
                    for i in range(hi):
                        try:
                            r, d = rows(i, i + 1)
                        except NonFiniteError:
                            status, end, error = "diverged", i + 1, None
                            break
                        res += r
                        dist += d
                step_norms.extend(steps[:end].tolist())
                for series, new in ((residuals, res), (dists, dist)):
                    if series is not None:
                        series.extend(new)
                for name in hist:
                    _keep(hist, name, getattr(blk, name)[:end])
                # the kinds of the rows kept, and of a step whose error counts
                fired.update(pending, (kind for kind, i in events.items()
                                       if i < end + (error is not None)))
                pending.clear()
                if end:
                    x = blk.xs[end - 1].copy()
                    z = x if blk.zs is None else blk.zs[end - 1].copy()
                    fe = blk.fe + blk.per[0] * (k + end)
                    re = blk.re + blk.per[1] * (k + end)
                if error is not None:
                    raise error
                k, N[0] = k + n, N[n]
                for A, r in blk.carried:    # the next block's start
                    A[:r] = A[n:n + r]
        except NonFiniteError:
            status = "diverged"
        if not (two_op or frdr) and np.isfinite(z).all():
            with suppress(Exception):   # a step not taken: x stays the last
                x = A_res(z)
        fired.update(pending)
    trace.warnings.extend(fp_warnings(fired))
    for name, (buf, n) in hist.items():     # trim each series in place
        buf.resize((n, buf.shape[1]), refcheck=False)
        setattr(trace, name, buf)
    # A diverged step has no residual or distance: NaN stands in for them.
    for series in (residuals, dists):
        if series is not None:
            series.extend([math.nan] * (len(step_norms) - len(series)))

    trace.status, trace.iterations = status, len(step_norms)
    trace.forward_evals, trace.resolvent_evals = fe, re
    trace.z_final, trace.x_final = z, x
    return trace
