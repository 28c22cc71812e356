"""Test oracles: independent checks of what the operators declare, and
per-step references of the solvers' composed and precomposed steps and of
the residual and distance rows that ``run()`` documents."""

import math
from contextlib import suppress

import numpy as np

from splitkit import CapabilityError, Method, OperatorError
from splitkit.certificates import omega_residual
from splitkit.operators import (NonFiniteError, fp_errstate, fp_warnings,
                                residual, resolvent_matrix, row_norms,
                                vanishes)
import splitkit.solvers as solvers
from splitkit.solvers import (TWO_OPERATOR_METHODS, _BLOCK, _precompose,
                              _stepsize_warnings)


def lipschitz_check(op, trials, seed):
    """Max of ``|F(u)-F(v)| / |u-v|`` over seeded random pairs.

    A valid Lipschitz declaration ``L`` satisfies
    ``lipschitz_check(op, ...) <= L * (1 + 1e-10)``.
    """
    if not op.has_forward:
        raise CapabilityError("operator has no forward oracle")
    if trials < 1:
        raise OperatorError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(trials):
        u = rng.uniform(-1.0, 1.0, size=op.dim)
        v = rng.uniform(-1.0, 1.0, size=op.dim)
        duv = np.linalg.norm(u - v)
        if duv == 0.0:
            continue
        ratio = np.linalg.norm(op.forward(u) - op.forward(v)) / duv
        worst = max(worst, ratio)
    return worst


def _take(now):
    """The kinds gathered in ``now`` since the last take, as a set."""
    kinds = set(now)
    now.clear()
    return kinds


def residual_map(problem, lam):
    """``(R, r)``, ``R = J_C(2J_A - I - lam M_B J_A) - J_A`` and ``r`` the
    omega residual vector at 0, for a triple of affine (or zero)
    operators; None for any other triple, or if ``R`` or ``r`` is not
    finite."""
    parts = [op.affine_parts() for op in (problem.A, problem.B, problem.C)]
    if None in parts:
        return None
    (MA, _), (MB, _), (MC, _) = parts
    A_res, C_res = problem.prepare(lam)
    JA, JC = resolvent_matrix(MA, lam), resolvent_matrix(MC, lam)
    with np.errstate(all="ignore"):
        R = np.dot(JC, 2.0 * JA - np.eye(len(JA)) - lam * np.dot(MB, JA)) - JA
        try:
            x = A_res(np.zeros(len(JA)))
            r = C_res(2.0 * x - lam * problem.B.forward(x)) - x
        except NonFiniteError:
            return None
    return (R, r) if np.isfinite(R).all() and np.isfinite(r).all() else None


def residual_row(omega, problem, lam, p):
    """The omega residual of the point ``p`` as a row of a run or flow
    that has the map ``omega`` (None: no map): ``|R p + r|`` where that is
    finite, else :func:`splitkit.certificates.omega_residual`'s."""
    if omega is not None:
        with np.errstate(all="ignore"):     # squares that overflow rescale
            u = np.dot(omega[0], p) + omega[1]
            if np.isfinite(u).all():
                return float(row_norms(u[None])[0])
    return omega_residual(problem, lam, p)


def _rows(problem, lam, omega, points, steps, residual_is_step, now):
    """The residual and distance rows of a run's kept steps as ``run()``
    documents them, one row at a time: ``points[k] = (x, p, bx)`` holds
    step ``k``'s ``x``, its point ``p`` (``x = J_{lam*A}(p)``) and its cached
    ``B(x)`` (None: not cached).  Per block of ``_BLOCK`` steps, a block
    whose rows ``R p + r`` of the map ``omega`` (None: no map) are all
    finite has the norms of those rows; any other block has the composed
    omega residuals, and the first row whose oracle raises
    ``NonFiniteError`` cuts the run.  Returns the residuals, the distances,
    the kinds that each row fired and the cut row (None: no cut)."""
    C_res, x_star = problem.C.prepare(lam), problem.x_star
    res, dist, kinds = [], [], []
    for lo in range(0, len(points), _BLOCK):
        block, mapped = points[lo:lo + _BLOCK], None
        if omega is not None:
            R, r = omega
            with np.errstate(all="ignore"):
                U = [np.dot(R, p) + r for _, p, _ in block]
            if all(np.isfinite(u).all() for u in U):
                mapped = U
        for i, (x, p, bx) in enumerate(block):
            try:
                if residual_is_step:
                    res.append(steps[lo + i])
                elif mapped is not None:
                    res += row_norms(mapped[i][None]).tolist()
                else:
                    res += residual(C_res, problem.B, lam, x[None], p[None],
                                    None if bx is None else bx[None]).tolist()
            except NonFiniteError:
                kinds.append(_take(now))
                return res, dist, kinds, lo + i
            if x_star is not None:
                dist += row_norms((x - x_star)[None]).tolist()
            kinds.append(_take(now))
    return res, dist, kinds, None


def _finish(problem, config, log, diagnostics, record_history):
    """The ``Trace`` fields of a run whose steps ``log`` took one at a time
    (see :func:`precomposed_run`): its rows, cut at a raising row, and its
    kinds: those of the warm start, of the kept steps and rows (and of a
    raising step whose error ends the run), and of the closing
    ``J_{lam*A}(z_final)``."""
    method, lam, now = config.method, config.lam, log["now"]
    frdr, two_op = method is Method.FRDR, method in TWO_OPERATOR_METHODS
    steps, x_star = log["steps"], problem.x_star
    res = dist = None
    kinds, cut = set(log["warm"]), None
    if diagnostics:
        res, dist, row_kinds, cut = _rows(
            problem, lam, log["omega"], log["points"], steps,
            method is Method.DAVIS_YIN or (method is Method.DR
                                           and vanishes(problem.B)), now)
        kinds.update(*row_kinds)
    n = len(steps) if cut is None else cut + 1
    error = None if cut is not None else log["error"]
    status = "diverged" if cut is not None else log["status"]
    if isinstance(error, NonFiniteError):
        status, error = "diverged", None
        kinds.update(log["raising"])
    if error is not None:
        raise error
    kinds.update(*log["step_kinds"][:n])
    z, x, fe, re = log["finals"][n - 1] if n else log["start"]
    if not (two_op or frdr) and np.isfinite(z).all():
        with suppress(Exception):
            x = log["A_res"](z)
    kinds.update(_take(now))
    pad = [math.nan] * n
    out = {"status": status, "iterations": n, "forward_evals": fe,
           "resolvent_evals": re, "step_norms": steps[:n],
           "residuals": None if res is None else (res + pad)[:n],
           "dist_to_xstar": (None if dist is None or x_star is None
                             else (dist + pad)[:n]),
           "warnings": (_stepsize_warnings(config, problem.B.lipschitz)
                        + fp_warnings(kinds)),
           "z_final": z, "x_final": x}
    if record_history:     # each series as one array of rows
        history, d = log["history"], config.z0.shape[0]
        rows = lambda series: np.reshape(series, (-1, d))
        out.update(xs=rows(log["xs"][:n + two_op]), y_offset=len(history))
        if not two_op:
            out.update(zs=rows(log["zs"][:n + 1]),
                       ys=rows(list(history) + log["ys"][:n]))
    return out


def one(v):
    """``[1; v]``, the row that a homogeneous map ``[c | G]`` multiplies."""
    return np.concatenate(([1.0], v))


def precomposed_run(problem, config, record_history=False, diagnostics=True):
    """A precomposed run, one step, its norms and its stop tests at a time.

    The reference for ``run()``'s block path on BFoRB, BRFoB, Davis-Yin and
    FRDR: the same precomposed step, each map of
    :func:`splitkit.solvers._precompose` one product with a row ``[1; s]``
    (FRDR's ``B`` folded in, called only in its warm start), then the rows
    of the kept steps by :func:`_rows`, whose residual rows of BFoRB, BRFoB
    and FRDR are those of :func:`residual_map` where finite.  Returns the
    ``Trace`` fields that ``run()`` fills, with the histories only if
    ``record_history``; without ``diagnostics`` no row is evaluated.
    """
    method, lam, gamma = config.method, config.lam, config.gamma
    frdr = method is Method.FRDR
    reflect = method in (Method.BFORB, Method.BRFOB)
    B = problem.B
    now, status, z = [], "max_iters", config.z0.copy()
    log = {"now": now, "steps": [], "points": [], "step_kinds": [],
           "finals": [], "zs": [z], "xs": [], "ys": [], "history": (),
           "error": None}
    with fp_errstate(lambda kind, flag: now.append(kind)):
        prev = float(row_norms(z[None])[0])
        big = solvers.DIVERGE_FACTOR * (1.0 + prev)
        A_res, C_res = problem.prepare(lam)
        C_step = problem.C.prepare(gamma) if frdr else C_res
        maps = _precompose(config, A_res, B, C_step)
        log["omega"] = (residual_map(problem, lam)
                        if method is not Method.DAVIS_YIN else None)
        fe = re = 0
        x = z
        if frdr:
            # the warm start's B(x_0), which the map's t_0 = x_0 folds in
            JX, PB, K = maps
            u = np.zeros(z.shape[0])
            B.forward(x)
            t, fe = x, 1
        else:
            JX, JY = maps
        if reflect:
            if config.y_init is None:
                y1 = y2 = A_res(z)
                re = 1
            else:
                y1, y2 = config.y_init
            if method is Method.BFORB:
                B.forward(y1)
                fe = 1 if y1 is y2 else 2
                if y1 is not y2:
                    B.forward(y2)
            log["history"] = (y2, y1)
            v = 2.0 * y1 - y2
        log.update(start=(z, x, fe, re), warm=_take(now), A_res=A_res)
        for _ in range(config.max_iters):
            if frdr:
                # 2B(x_k) - B(x_{k-1}) = B(t_k), t_k = 2x_k - x_{k-1}
                w = x - lam * u + np.dot(PB, one(t))
                x_next = np.dot(JX, one(w))
                t = 2.0 * x_next - x
                r = t + gamma * u
                u_next = np.dot(K, one(r))
                # y, formed for a recorded history only, as run() does
                y = r - gamma * u_next if record_history else None
                n = row_norms(np.stack((x_next, x_next - x, u_next - u)))
                norm, step = float(n[0]), float(n[1]) + lam * float(n[2])
                x, u, z, p, bx = x_next, u_next, w, w, None
            else:
                x = np.dot(JX, one(z))
                y = np.dot(JY, one(np.concatenate((z, v)) if reflect else z))
                z_next = z + y - x
                if reflect:
                    v, y1 = 2.0 * y - y1, y
                n = row_norms(np.stack((z_next, z_next - z)))
                norm, step = float(n[0]), float(n[1])
                p, z, bx = z, z_next, None
            fe, re = fe + 1, re + 2
            log["steps"].append(step)
            log["zs"].append(z), log["xs"].append(x), log["ys"].append(y)
            log["step_kinds"].append(_take(now))
            log["finals"].append((z, x, fe, re))
            if not (norm <= big and step < math.inf):
                status = "diverged"
                break
            log["points"].append((x, p, bx))
            if step <= config.tol * (1.0 + prev):
                status = "converged"
                break
            prev = norm
        log["status"] = status
        return _finish(problem, config, log, diagnostics, record_history)


def composed_run(problem, config, record_history=False, diagnostics=True):
    """A composed run, one step, its norms and its stop tests at a time.

    The reference for ``run()`` on the triples and methods that it does
    not precompose: each method's step composed from the prepared oracles,
    as the formulas of ``splitkit.solvers`` write it, with each norm taken
    by ``math.sqrt`` of a dot product and taken again by ``row_norms``'
    rescaling where that is not finite, then the composed rows of the kept
    steps by :func:`_rows`.  An oracle's ``NonFiniteError`` in a step ends
    the run "diverged" with the iterates and counters of the last step
    taken (before any: the start, and the calls of the warm start); any
    other error of a step is raised, unless a row before it cuts the run.
    Returns the ``Trace`` fields that ``run()`` fills, with the histories
    only if ``record_history``; without ``diagnostics`` no row is
    evaluated.
    """
    method, lam, gamma, h = config.method, config.lam, config.gamma, config.h
    frdr, two_op = method is Method.FRDR, method in TWO_OPERATOR_METHODS
    bforb, brfob = method is Method.BFORB, method is Method.BRFOB
    dr, davis_yin = method is Method.DR, method is Method.DAVIS_YIN
    B_fwd = problem.B.forward
    now, status, fe, re = [], "max_iters", 0, 0
    z = x = config.z0.copy()
    log = {"now": now, "steps": [], "points": [], "step_kinds": [],
           "finals": [], "zs": [z], "xs": [], "ys": [], "history": (),
           "error": None, "omega": None, "warm": set(), "raising": set()}
    with fp_errstate(lambda kind, flag: now.append(kind)):
        prev = float(row_norms(z[None])[0])
        big = solvers.DIVERGE_FACTOR * (1.0 + prev)
        A_res, C_res = problem.prepare(lam)
        C_step = problem.C.prepare(gamma) if frdr else C_res
        log.update(A_res=A_res, start=(z, x, 0, 0))
        try:
            calls = [0, 0]              # the oracle calls so far
            if frdr:
                u = np.zeros(z.shape[0])
                Bx = Bx_prev = B_fwd(x)
                calls = [1, 0]
            elif two_op:
                log["xs"], x_prev = [x], x
                if config.y_init is not None:
                    x_prev = config.y_init[1]
                if method is Method.FORB:
                    Bx = B_fwd(x)
                    Bx_prev = Bx if x_prev is x else B_fwd(x_prev)
                    calls = [1 if x_prev is x else 2, 0]
            elif bforb or brfob:
                if config.y_init is None:
                    y1 = y2 = A_res(z)
                    calls = [0, 1]
                else:
                    y1, y2 = config.y_init
                if bforb:
                    By1 = B_fwd(y1)
                    By2 = By1 if y1 is y2 else B_fwd(y2)
                    calls[0] = 1 if y1 is y2 else 2
                log["history"] = (y2, y1)
            fe, re = calls
            log.update(start=(z, x, fe, re), warm=_take(now))
            for _ in range(config.max_iters):
                if frdr:
                    w = x - lam * u - lam * (2.0 * Bx - Bx_prev)
                    x_next = A_res(w)
                    t = 2.0 * x_next - x
                    y = C_step(t + gamma * u)
                    u_next = u + (t - y) / gamma
                    Bx_prev, Bx = Bx, B_fwd(x_next)
                    d, du = x_next - x, u_next - u
                    x, u, z, p, bx = x_next, u_next, w, w, Bx
                    calls = [calls[0] + 1, calls[1] + 2]
                    vectors = (x, d, du)
                elif two_op:
                    if method is Method.FB:
                        x_next = C_res(x - lam * B_fwd(x))
                        bx = None
                    elif method is Method.FORB:
                        x_next = (1.0 - h) * x + h * C_res(
                            x - lam * Bx - (lam / h) * (Bx - Bx_prev))
                        Bx_prev, Bx = Bx, B_fwd(x_next)
                        bx = Bx
                    else:
                        x_next = (1.0 - h) * x + h * C_res(
                            x - lam * B_fwd(x + (x - x_prev) / h))
                        bx = None
                    d = x_next - x
                    x_prev, x = x, x_next
                    z = p = x
                    calls = [calls[0] + 1, calls[1] + 1]
                    vectors = (x, d)
                else:
                    x = A_res(z)
                    if bforb:
                        F = 2.0 * By1 - By2
                    elif brfob:
                        F = B_fwd(2.0 * y1 - y2)
                    elif davis_yin:
                        F = B_fwd(x)
                    w = 2.0 * x - z
                    y = C_res(w if dr else w - lam * F)
                    z_next = z + y - x
                    if bforb:
                        By2, By1 = By1, B_fwd(y)
                    elif brfob:
                        y2, y1 = y1, y
                    d = z_next - z
                    p, z, bx = z, z_next, None
                    calls = [calls[0] + (not dr), calls[1] + 2]
                    vectors = (z, d)
                fe, re = calls
                norms = [math.sqrt(v.dot(v)) for v in vectors]
                if not all(n < math.inf for n in norms):
                    norms = row_norms(np.stack(vectors)).tolist()
                norm, step = norms[0], norms[1] + (lam * norms[2] if frdr
                                                   else 0.0)
                log["steps"].append(step)
                log["xs"].append(x)
                if not two_op:
                    log["zs"].append(z), log["ys"].append(y)
                log["step_kinds"].append(_take(now))
                log["finals"].append((z, x, fe, re))
                if not (norm <= big and step < math.inf):
                    status = "diverged"
                    break
                log["points"].append((x, p, bx))
                if step <= config.tol * (1.0 + prev):
                    status = "converged"
                    break
                prev = norm
        except Exception as exc:    # the step's partial kinds count with it
            log.update(error=exc, raising=_take(now))
        log["status"] = status
        return _finish(problem, config, log, diagnostics, record_history)
