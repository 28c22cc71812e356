"""Test oracles: independent checks of what the operators declare, and
per-step references of the solvers' composed and precomposed steps."""

import math
from contextlib import suppress

import numpy as np

from splitkit import CapabilityError, Method, OperatorError
from splitkit.operators import (NonFiniteError, fp_errstate, fp_warnings,
                                residual, row_norms, vanishes)
import splitkit.solvers as solvers
from splitkit.solvers import (TWO_OPERATOR_METHODS, _precompose,
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


def precomposed_run(problem, config, record_history=False):
    """A precomposed run, one step, its norms and its stop tests at a time.

    The reference for ``run()``'s block path on BFoRB, BRFoB, Davis-Yin and
    FRDR: the same precomposed step (the map of
    :func:`splitkit.solvers._precompose`), with the residual and distance
    of each step taken at the step (a stacked row has the bits of one row).
    For runs whose residuals do not raise.  Returns the ``Trace`` fields
    that ``run()`` fills, with the histories only if ``record_history``.
    """
    method, lam, gamma = config.method, config.lam, config.gamma
    frdr = method is Method.FRDR
    reflect = method in (Method.BFORB, Method.BRFOB)
    B, x_star = problem.B, problem.x_star
    kinds, steps, res, dist = set(), [], [], []
    status, z = "max_iters", config.z0.copy()
    zs, xs, ys = [z], [], []
    with fp_errstate(lambda kind, flag: kinds.add(kind)):
        prev = float(row_norms(z[None])[0])
        big = solvers.DIVERGE_FACTOR * (1.0 + prev)
        A_res, C_res = problem.prepare(lam)
        C_step = problem.C.prepare(gamma) if frdr else C_res
        M, m = _precompose(config, A_res, B, C_step)
        JA, lam_b = A_res.J, A_res.lam_b
        fe = re = 0
        if frdr:
            x, u = z, np.zeros(z.shape[0])
            Bx = Bx_prev = B.forward(x)
            fe = 1
        elif reflect:
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
            ys += [y2, y1]
            v = 2.0 * y1 - y2
        for _ in range(config.max_iters):
            if frdr:
                w = x - lam * u - lam * (2.0 * Bx - Bx_prev)
                x_next = np.dot(JA, w - lam_b)
                r = 2.0 * x_next - x + gamma * u
                u_next = np.dot(M, r) + m
                y = r - gamma * u_next
                Bx_prev, Bx = Bx, B.forward(x_next)
                n = row_norms(np.stack((x_next, x_next - x, u_next - u)))
                norm, step = float(n[0]), float(n[1]) + lam * float(n[2])
                x, u, z, p, bx = x_next, u_next, w, w, Bx
            else:
                x = np.dot(JA, z - lam_b)
                y = np.dot(M, np.concatenate((z, v)) if reflect else z) + m
                z_next = z + y - x
                if reflect:
                    v, y1 = 2.0 * y - y1, y
                n = row_norms(np.stack((z_next, z_next - z)))
                norm, step = float(n[0]), float(n[1])
                p, z = z, z_next
                bx = B.forward_rows(x[None])[0]
            fe, re = fe + 1, re + 2
            steps.append(step)
            zs.append(z), xs.append(x), ys.append(y)
            if not (norm <= big and step < math.inf):
                status = "diverged"
                break
            if method is Method.DAVIS_YIN:
                res.append(step)
            else:
                res += residual(C_res, lam, (2.0 * x - p)[None], x[None],
                                bx[None]).tolist()
            if x_star is not None:
                dist += row_norms((x - x_star)[None]).tolist()
            if step <= config.tol * (1.0 + prev):
                status = "converged"
                break
            prev = norm
        if not frdr and np.isfinite(z).all():
            with suppress(NonFiniteError):
                x = A_res(z)
    pad = [math.nan] * (len(steps) - len(res))
    out = {"status": status, "iterations": len(steps), "forward_evals": fe,
           "resolvent_evals": re, "step_norms": steps, "residuals": res + pad,
           "dist_to_xstar": None if x_star is None else dist + pad,
           "warnings": (_stepsize_warnings(config, B.lipschitz)
                        + fp_warnings(kinds)),
           "z_final": z, "x_final": x}
    if record_history:
        out.update(zs=zs, xs=xs, ys=ys, y_offset=2 if reflect else 0)
    return out


def composed_run(problem, config, record_history=False):
    """A composed run, one step, its norms and its stop tests at a time.

    The reference for ``run()`` on the triples and methods that it does
    not precompose: each method's step composed from the prepared oracles,
    as the formulas of ``splitkit.solvers`` write it, with each norm taken
    by ``math.sqrt`` of a dot product and taken again by ``row_norms``'
    rescaling where that is not finite, and with the residual and distance
    of each step taken at the step.  An oracle's ``NonFiniteError`` ends
    the run "diverged" with the iterates and counters of the last step
    taken (before any: the start, and the calls of the warm start).  For
    runs whose residuals do not raise.  Returns the ``Trace`` fields that
    ``run()`` fills, with the histories only if ``record_history``.
    """
    method, lam, gamma, h = config.method, config.lam, config.gamma, config.h
    frdr, two_op = method is Method.FRDR, method in TWO_OPERATOR_METHODS
    bforb, brfob = method is Method.BFORB, method is Method.BRFOB
    dr, davis_yin = method is Method.DR, method is Method.DAVIS_YIN
    B_fwd, x_star = problem.B.forward, problem.x_star
    residual_is_step = davis_yin or (dr and vanishes(problem.B))
    kinds, steps, res, dist = set(), [], [], []
    status, fe, re = "max_iters", 0, 0
    z = x = config.z0.copy()
    zs, xs, ys, history = [z], [], [], ()
    with fp_errstate(lambda kind, flag: kinds.add(kind)):
        prev = float(row_norms(z[None])[0])
        big = solvers.DIVERGE_FACTOR * (1.0 + prev)
        A_res, C_res = problem.prepare(lam)
        C_step = problem.C.prepare(gamma) if frdr else C_res
        try:
            calls = [0, 0]              # the oracle calls so far
            if frdr:
                u = np.zeros(z.shape[0])
                Bx = Bx_prev = B_fwd(x)
                calls = [1, 0]
            elif two_op:
                xs, x_prev = [x], x
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
                history = (y2, y1)
            fe, re = calls
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
                steps.append(step)
                xs.append(x)
                if not two_op:
                    zs.append(z), ys.append(y)
                if not (norm <= big and step < math.inf):
                    status = "diverged"
                    break
                if residual_is_step:
                    res.append(step)
                else:
                    res += residual(C_res, lam, (2.0 * x - p)[None], x[None],
                                    (problem.B.forward_rows(x[None])
                                     if bx is None else bx[None])).tolist()
                if x_star is not None:
                    dist += row_norms((x - x_star)[None]).tolist()
                if step <= config.tol * (1.0 + prev):
                    status = "converged"
                    break
                prev = norm
        except NonFiniteError:
            status = "diverged"
        if not (two_op or frdr) and np.isfinite(z).all():
            with suppress(NonFiniteError):
                x = A_res(z)
    pad = [math.nan] * (len(steps) - len(res))
    out = {"status": status, "iterations": len(steps), "forward_evals": fe,
           "resolvent_evals": re, "step_norms": steps, "residuals": res + pad,
           "dist_to_xstar": None if x_star is None else dist + pad,
           "warnings": (_stepsize_warnings(config, problem.B.lipschitz)
                        + fp_warnings(kinds)),
           "z_final": z, "x_final": x}
    if record_history:
        out.update(xs=xs, y_offset=len(history))
        if not two_op:
            out.update(zs=zs, ys=list(history) + ys)
    return out
