"""Executable convergence certificates evaluated along recorded runs.

The per-iteration inequalities behind the convergence analysis of the
backward-forward-reflected-backward and backward-reflected-forward-backward
methods hold for *every* monotone instance and stepsize; the Lyapunov
descent additionally needs the stepsize inside its guaranteed interval.
This module evaluates both numerically, from full iterate histories
(``run(..., record_history=True)``), never inside the hot solver loop.

All evaluations are pure functions over recorded vectors, so they are
embarrassingly parallel across iterations and across runs.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import as_vector
from .solvers import Method


class CertificateError(Exception):
    """Certificate evaluation is impossible for the given inputs."""


class GroundTruthError(CertificateError):
    """The problem carries neither ``x_star`` nor a usable ``z_star``."""


def _sq(v):
    return float(np.dot(v, v))


def omega_residual(problem, lam, z, x=None):
    """Distance of ``z`` from being a fixed point of the splitting dynamics.

    Computes ``x = J_{lam*A}(z)`` and returns
    ``| J_{lam*C}(2x - z - lam*B(x)) - x |``, which vanishes exactly on the
    shadow set of the inclusion (for single-valued ``B``).  Used as the
    solution-quality metric of solver traces.  A caller that already holds
    ``J_{lam*A}(z)`` passes it as ``x`` to save that resolvent.
    """
    if lam <= 0:
        raise CertificateError("lam must be positive")
    z = as_vector(z, problem.dim, "z")
    if x is None:
        x = problem.A.resolve(lam, z)
    y = problem.C.resolve(lam, 2.0 * x - z - lam * problem.B.forward(x))
    return float(np.linalg.norm(y - x))


@dataclass
class ReferencePoint:
    """A pair ``(z, x)`` with ``x = J_{lam*A}(z)`` and ``x`` a solution."""

    z: np.ndarray
    x: np.ndarray
    lam_ref: float


def reference_point(problem, lam):
    """Construct and validate a shadow point for the stepsize ``lam``.

    For problems with a known solution and single-valued ``A`` this is
    ``z = x_star + lam * A(x_star)``, ``x = x_star``.  Alternatively a stored
    ``z_star`` is used when its ``lam_ref`` matches.

    Raises
    ------
    GroundTruthError
        When neither route is available.
    CertificateError
        When the constructed pair fails its validity checks.
    """
    if lam <= 0:
        raise CertificateError("lam must be positive")
    A, B, C = problem.A, problem.B, problem.C
    if problem.x_star is not None and A.has_forward:
        x = problem.x_star
        z = x + lam * A.forward(x)
    elif problem.z_star is not None:
        if abs(problem.lam_ref - lam) > 1e-12 * max(1.0, lam):
            raise GroundTruthError(
                f"stored z_star is for lam={problem.lam_ref}, requested {lam}")
        z = problem.z_star
        x = A.resolve(lam, z)
    else:
        raise GroundTruthError(
            "problem has neither x_star (with single-valued A) nor z_star")

    xr = A.resolve(lam, z)
    if np.linalg.norm(xr - x) > 1e-10 * (1.0 + np.linalg.norm(x)):
        raise CertificateError("reference point fails x = J_{lam*A}(z)")
    if B.has_forward and C.has_forward:
        r = (x - z) - lam * (B.forward(x) + C.forward(x))
        if np.linalg.norm(r) > 1e-10 * (1.0 + np.linalg.norm(z)):
            raise CertificateError(
                "reference point fails x - z = lam*(B+C)(x)")
    return ReferencePoint(z=z, x=x, lam_ref=lam)


def lemma_bforb_slack(problem, ref, lam, z_k, z_next, y_k, y_prev, y_prev2):
    """Right minus left side of the BFoRB per-iteration inequality.

    With reference pair ``(z, x)``, the inequality states

        |z_{k+1} - z|^2 + 2*lam*<B(y_k) - B(y_{k-1}), x - y_k>
                        + |z_{k+1} - z_k|^2
        <= |z_k - z|^2 + 2*lam*<B(y_{k-1}) - B(y_{k-2}), x - y_{k-1}>
                       + 2*lam*<B(y_{k-1}) - B(y_{k-2}), y_{k-1} - y_k>,

    so a nonnegative return value certifies it.  Only monotonicity of the
    three operators is needed; no stepsize restriction.
    """
    if ref.lam_ref != lam:
        raise CertificateError("reference point was built for a different lam")
    B = problem.B.forward
    z, x = ref.z, ref.x
    b_k, b_1, b_2 = B(y_k), B(y_prev), B(y_prev2)
    rhs = (_sq(z_k - z)
           + 2.0 * lam * float(np.dot(b_1 - b_2, x - y_prev))
           + 2.0 * lam * float(np.dot(b_1 - b_2, y_prev - y_k)))
    lhs = (_sq(z_next - z)
           + 2.0 * lam * float(np.dot(b_k - b_1, x - y_k))
           + _sq(z_next - z_k))
    return rhs - lhs


def phi_bforb(problem, ref, lam, L, z_k, z_prev, z_prev2, y_prev, y_prev2):
    """Lyapunov value for the BFoRB iteration at index k.

    phi_k = |z_k - z|^2 + 2*lam*<B(y_{k-1}) - B(y_{k-2}), x - y_{k-1}>
            + (3/4)*|z_k - z_{k-1}|^2 + 2*lam*L*|z_{k-1} - z_{k-2}|^2.

    Computable for any ``lam``; the descent interpretation requires
    ``lam*L < 1/8``.
    """
    B = problem.B.forward
    z, x = ref.z, ref.x
    b_1, b_2 = B(y_prev), B(y_prev2)
    return (_sq(z_k - z)
            + 2.0 * lam * float(np.dot(b_1 - b_2, x - y_prev))
            + 0.75 * _sq(z_k - z_prev)
            + 2.0 * lam * L * _sq(z_prev - z_prev2))


def lemma_brfob_slack(problem, ref, lam, z_next, z_k, z_prev,
                      y_k, y_prev, y_prev2, y_prev3):
    """Right minus left side of the BRFoB per-iteration inequality.

    Uses the reflected points ``ybar_{k-1} = 2 y_{k-1} - y_{k-2}``,
    ``ybar_{k-2} = 2 y_{k-2} - y_{k-3}`` and ``zbar_k = 2 z_k - z_{k-1}``:

        |z_{k+1} - z|^2 + 2*lam*<B(ybar_{k-1}) - B(x), y_k - y_{k-1}>
            + 2*|z_{k+1} - z_k|^2 + |z_{k+1} - zbar_k|^2
        <= |z_k - z|^2 + 2*lam*<B(ybar_{k-2}) - B(x), y_{k-1} - y_{k-2}>
            + |z_k - z_{k-1}|^2
            + 2*lam*<B(ybar_{k-1}) - B(ybar_{k-2}), ybar_{k-1} - y_k>.
    """
    if ref.lam_ref != lam:
        raise CertificateError("reference point was built for a different lam")
    B = problem.B.forward
    z, x = ref.z, ref.x
    ybar1 = 2.0 * y_prev - y_prev2
    ybar2 = 2.0 * y_prev2 - y_prev3
    zbar = 2.0 * z_k - z_prev
    b_bar1, b_bar2, b_x = B(ybar1), B(ybar2), B(x)
    rhs = (_sq(z_k - z)
           + 2.0 * lam * float(np.dot(b_bar2 - b_x, y_prev - y_prev2))
           + _sq(z_k - z_prev)
           + 2.0 * lam * float(np.dot(b_bar1 - b_bar2, ybar1 - y_k)))
    lhs = (_sq(z_next - z)
           + 2.0 * lam * float(np.dot(b_bar1 - b_x, y_k - y_prev))
           + 2.0 * _sq(z_next - z_k)
           + _sq(z_next - zbar))
    return rhs - lhs


def phi_brfob(problem, ref, lam, L, z_k, z_prev, z_prev2, z_prev3,
              y_prev, y_prev2, y_prev3):
    """Lyapunov value for the BRFoB iteration at index k.

    phi_k = |z_k - z|^2 + 2*lam*<B(ybar_{k-2}) - B(x), y_{k-1} - y_{k-2}>
            + (1 + 22*lam*L)*|z_k - z_{k-1}|^2
            + (47/3)*lam*L*|z_{k-1} - z_{k-2}|^2
            + (14/3)*lam*L*|z_{k-2} - z_{k-3}|^2
            + (7/11)*|z_k - zbar_{k-1}|^2.
    """
    B = problem.B.forward
    z, x = ref.z, ref.x
    ybar2 = 2.0 * y_prev2 - y_prev3
    zbar_prev = 2.0 * z_prev - z_prev2
    return (_sq(z_k - z)
            + 2.0 * lam * float(np.dot(B(ybar2) - B(x), y_prev - y_prev2))
            + (1.0 + 22.0 * lam * L) * _sq(z_k - z_prev)
            + (47.0 / 3.0) * lam * L * _sq(z_prev - z_prev2)
            + (14.0 / 3.0) * lam * L * _sq(z_prev2 - z_prev3)
            + (7.0 / 11.0) * _sq(z_k - zbar_prev))


@dataclass
class CertificateReport:
    """Evaluated inequality slacks and Lyapunov data of one run.

    ``lemma_slacks[k]``, ``descent_violations[k]`` and
    ``telescope_violations[k]`` refer to the step k -> k+1; ``phi[k]`` and
    ``lower_bound_violations[k]`` to the iterate k (index 0 of the lower
    bound array is unconstrained and always zero).  Indices below ``warmup``
    depend on the initial-history policy and are excluded from the summary.
    """

    lemma_slacks: np.ndarray
    phi: np.ndarray
    epsilon: float
    descent_violations: np.ndarray
    telescope_violations: np.ndarray
    lower_bound_violations: np.ndarray
    lower_bound_coeff: float
    warmup: int = 0
    summary: dict = field(default_factory=dict)


def descent_report(phis, z_steps, eps, lemma_slacks=None,
                   lower_bound_violations=None, lower_bound_coeff=0.0,
                   warmup=0):
    """Assemble a :class:`CertificateReport` from evaluated sequences.

    ``phis`` has one entry per iterate (length K+1) and ``z_steps`` one entry
    per step (length K, values ``|z_{k+1} - z_k|``).  Per-step violations are
    ``max(0, phi_{k+1} + eps*|z_{k+1} - z_k|^2 - phi_k)``; the telescoped
    variant compares ``phi_{k+1} + eps * sum_{i<=k} |z_{i+1} - z_i|^2``
    against ``phi_0``.
    """
    phis = np.asarray(phis, dtype=float)
    z_steps = np.asarray(z_steps, dtype=float)
    if phis.shape[0] != z_steps.shape[0] + 1:
        raise CertificateError("phis must have one more entry than z_steps")
    sq_steps = z_steps ** 2
    descent = np.maximum(0.0, phis[1:] + eps * sq_steps - phis[:-1])
    telescope = np.maximum(0.0, phis[1:] + eps * np.cumsum(sq_steps) - phis[0])
    if lemma_slacks is None:
        lemma_slacks = np.zeros(0)
    lemma_slacks = np.asarray(lemma_slacks, dtype=float)
    if lower_bound_violations is None:
        lower_bound_violations = np.zeros(phis.shape[0])
    lower_bound_violations = np.asarray(lower_bound_violations, dtype=float)

    w = warmup
    lb_start = max(1, w)
    summary = {
        "k_evaluated": int(z_steps.shape[0]),
        "phi0": float(phis[0]) if phis.size else 0.0,
        "epsilon": float(eps),
        "min_lemma_slack": float(np.min(lemma_slacks[w:]))
        if lemma_slacks[w:].size else 0.0,
        "max_descent_violation": float(np.max(descent[w:]))
        if descent[w:].size else 0.0,
        "max_telescope_violation": float(np.max(telescope[w:]))
        if telescope[w:].size else 0.0,
        "max_lower_bound_violation":
            float(np.max(lower_bound_violations[lb_start:]))
            if lower_bound_violations[lb_start:].size else 0.0,
    }
    return CertificateReport(
        lemma_slacks=lemma_slacks, phi=phis, epsilon=float(eps),
        descent_violations=descent, telescope_violations=telescope,
        lower_bound_violations=lower_bound_violations,
        lower_bound_coeff=lower_bound_coeff, warmup=warmup, summary=summary)


def _finite_horizon(zs):
    """Largest index such that all z_0..z_K are finite."""
    for j, z in enumerate(zs):
        if not np.all(np.isfinite(z)):
            return j - 1
    return len(zs) - 1


def certify_trace(problem, trace, kmax=None):
    """Evaluate the full certificate suite along a recorded run.

    Supports BFoRB and BRFoB runs on any monotone instance, plus DR and
    Davis-Yin runs when ``B`` vanishes (they then reduce to the same
    Douglas-Rachford sequence and satisfy the BFoRB inequalities with the
    forward terms dropping out).  The trace must have been produced with
    ``record_history=True`` on a problem admitting a reference point.
    """
    if trace.zs is None or trace.ys is None:
        raise CertificateError("trace lacks history; rerun with record_history")
    method = Method(trace.method)
    if method in (Method.DR, Method.DAVIS_YIN):
        if problem.B.lipschitz != 0.0:
            raise CertificateError(
                f"{method.value} certificates require B = 0")
        flavor, warmup = "bforb", 2
    elif method is Method.BFORB:
        flavor, warmup = "bforb", 2
    elif method is Method.BRFOB:
        flavor, warmup = "brfob", 3
    else:
        raise CertificateError(
            f"no certificate is defined for method {method.value}")

    lam = trace.lam
    L = problem.B.lipschitz
    ref = reference_point(problem, lam)
    K = _finite_horizon(trace.zs)
    if kmax is not None:
        K = min(K, kmax)
    if K < 1:
        raise CertificateError("trace too short to certify")

    z, y = trace.z_at, trace.y_at
    z_steps = np.array([np.linalg.norm(z(k + 1) - z(k)) for k in range(K)])

    # One forward evaluation per distinct recorded point; the formulas below
    # match lemma_*_slack / phi_* exactly but reuse these cached values.
    B = problem.B.forward
    zc, xc = ref.z, ref.x
    if flavor == "bforb":
        eps = 0.25 - 2.0 * lam * L
        lb_coeff = 0.75
        by = {j: B(y(j)) for j in range(-2, K)}
        slacks = np.empty(K)
        for k in range(K):
            b_k, b_1, b_2 = by[k], by[k - 1], by[k - 2]
            rhs = (_sq(z(k) - zc)
                   + 2.0 * lam * float(np.dot(b_1 - b_2, xc - y(k - 1)))
                   + 2.0 * lam * float(np.dot(b_1 - b_2, y(k - 1) - y(k))))
            lhs = (_sq(z(k + 1) - zc)
                   + 2.0 * lam * float(np.dot(b_k - b_1, xc - y(k)))
                   + _sq(z(k + 1) - z(k)))
            slacks[k] = rhs - lhs
        phis = np.empty(K + 1)
        for k in range(K + 1):
            b_1, b_2 = by[k - 1], by[k - 2]
            phis[k] = (_sq(z(k) - zc)
                       + 2.0 * lam * float(np.dot(b_1 - b_2, xc - y(k - 1)))
                       + 0.75 * _sq(z(k) - z(k - 1))
                       + 2.0 * lam * L * _sq(z(k - 1) - z(k - 2)))
    else:
        eps = 1.0 - 22.0 * lam * L
        lb_coeff = 6.0 / 11.0
        ybar = {j: 2.0 * y(j) - y(j - 1) for j in range(-2, K)}
        bybar = {j: B(v) for j, v in ybar.items()}
        b_x = B(xc)
        slacks = np.empty(K)
        for k in range(K):
            b1, b2 = bybar[k - 1], bybar[k - 2]
            zbar = 2.0 * z(k) - z(k - 1)
            rhs = (_sq(z(k) - zc)
                   + 2.0 * lam * float(np.dot(b2 - b_x, y(k - 1) - y(k - 2)))
                   + _sq(z(k) - z(k - 1))
                   + 2.0 * lam * float(np.dot(b1 - b2, ybar[k - 1] - y(k))))
            lhs = (_sq(z(k + 1) - zc)
                   + 2.0 * lam * float(np.dot(b1 - b_x, y(k) - y(k - 1)))
                   + 2.0 * _sq(z(k + 1) - z(k))
                   + _sq(z(k + 1) - zbar))
            slacks[k] = rhs - lhs
        phis = np.empty(K + 1)
        for k in range(K + 1):
            b2 = bybar[k - 2]
            zbar_prev = 2.0 * z(k - 1) - z(k - 2)
            phis[k] = (_sq(z(k) - zc)
                       + 2.0 * lam * float(np.dot(b2 - b_x, y(k - 1) - y(k - 2)))
                       + (1.0 + 22.0 * lam * L) * _sq(z(k) - z(k - 1))
                       + (47.0 / 3.0) * lam * L * _sq(z(k - 1) - z(k - 2))
                       + (14.0 / 3.0) * lam * L * _sq(z(k - 2) - z(k - 3))
                       + (7.0 / 11.0) * _sq(z(k) - zbar_prev))

    lb = np.zeros(K + 1)
    for k in range(1, K + 1):
        lb[k] = max(0.0, lb_coeff * _sq(z(k) - ref.z) - phis[k])

    return descent_report(phis, z_steps, eps, lemma_slacks=slacks,
                          lower_bound_violations=lb,
                          lower_bound_coeff=lb_coeff, warmup=warmup)
