"""Executable convergence certificates evaluated along recorded runs.

The per-iteration inequalities behind the convergence analysis of the
backward-forward-reflected-backward and backward-reflected-forward-backward
methods hold for *every* monotone instance and stepsize; the Lyapunov
descent additionally needs the stepsize inside its guaranteed interval.
This module evaluates both numerically, from full iterate histories
(``run(..., record_history=True)``), never inside the hot solver loop.

Each inequality and each Lyapunov function is written once, in ``_kernel``:
row k of its output is the lemma slack of the step k -> k+1 and phi_k, each
a row-wise dot product over shifted slices of stacked iterates and forward
values.  ``certify_trace`` feeds it a recorded run in blocks of
``_block_rows`` rows, read as views of the run's arrays (the first block
backfills the rows before 0 by a copy), evaluating B at ``x`` and, by one
``forward_rows`` call per block, at each point the formulas read (K+3
points for a K-step BFoRB run, K+2 for BRFoB); each public per-k function
(``lemma_*_slack``, ``phi_*``) is a one-row call into it, with the same
bits.  The blocks bound peak memory (see ``_BLOCK_BYTES``).

``reference_point`` and ``certify_trace`` ignore floating-point events: a
value that overflows is not finite, and the CLI reports it as ``null``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import _norm, as_count, as_vector, residual, vanishes
from .solvers import Method


class CertificateError(Exception):
    """Certificate evaluation is impossible for the given inputs."""


class GroundTruthError(CertificateError):
    """The problem carries no ``a_star``: no known zero ``x_star`` with an
    element of ``A(x_star)`` to build a reference point from."""


#: Bytes per stacked array in one kernel call of ``certify_trace``.  A
#: whole 5,000-step trace at d=50 raised peak memory by about 8 MB, and
#: blocks of 1,024 rows took 3.2 MB per array at d=400 and thousands of
#: page faults per call.  128 KB (327 rows at d=50, 40 at d=400) was the
#: fastest budget at both sizes: smaller blocks pay numpy's per-call
#: overhead more often, and larger ones were slower too.
_BLOCK_BYTES = 128 * 1024


def _block_rows(dim):
    """Rows per kernel call at dimension ``dim``."""
    return max(1, _BLOCK_BYTES // (8 * dim))


def _dot(u, v):
    """Row-wise dot products of two stacks of vectors."""
    return np.einsum("ij,ij->i", u, v)


def omega_residual(problem, lam, z):
    """Distance of ``z`` from being a fixed point of the splitting dynamics.

    Computes ``x = J_{lam*A}(z)`` and returns
    ``| J_{lam*C}(2x - z - lam*B(x)) - x |``, which vanishes exactly on the
    shadow set of the inclusion (for single-valued ``B``), by
    :func:`splitkit.operators.residual` without a residual map.  Used as
    the solution-quality metric of solver traces.  Each call prepares
    ``A`` and ``C`` anew (an inverse per affine or bilinear operator); for
    many points at one ``lam``, call ``residual`` on
    ``problem.prepare(lam)`` instead.
    """
    if not 0.0 < lam < math.inf:
        raise CertificateError("lam must be positive and finite")
    z = as_vector(z, problem.dim, "z")
    X = problem.A.resolve(lam, z)[None]
    return float(residual(problem.C.prepare(lam), problem.B, lam, X,
                          z[None])[0])


@dataclass
class ReferencePoint:
    """A pair ``(z, x)`` with ``x = J_{lam*A}(z)`` and ``x`` a solution.

    :func:`reference_point` also keeps ``b_x = B(x)``, evaluated once for
    its own check and read again by the BRFoB certificates, and the
    ``problem`` it was built for.
    """

    z: np.ndarray
    x: np.ndarray
    lam: float
    b_x: np.ndarray = None
    problem: object = field(default=None, repr=False, compare=False)


@np.errstate(all="ignore")
def reference_point(problem, lam):
    """Construct and validate a shadow point for the stepsize ``lam``.

    With the problem's zero ``x_star`` and ``a_star`` in ``A(x_star)``
    this is ``z = x_star + lam * a_star``, ``x = x_star``, exact at every
    stepsize.

    Raises
    ------
    GroundTruthError
        When the problem carries no ``a_star``.
    CertificateError
        When the constructed pair fails its validity checks.
    """
    if not 0.0 < lam < math.inf:
        raise CertificateError("lam must be positive and finite")
    if problem.a_star is None:
        raise GroundTruthError(
            "problem carries no zero x_star with a_star in A(x_star)")
    x, B, C = problem.x_star, problem.B, problem.C
    z = x + lam * problem.a_star
    xr = problem.A.prepare(lam)(z)
    if _norm(xr - x) > 1e-10 * (1.0 + _norm(x)):
        raise CertificateError("reference point fails x = J_{lam*A}(z)")
    b_x = B.forward(x)
    if C.has_forward:
        r = (x - z) - lam * (b_x + C.forward(x))
        if _norm(r) > 1e-10 * (1.0 + _norm(z)):
            raise CertificateError(
                "reference point fails x - z = lam*(B+C)(x)")
    return ReferencePoint(z=z, x=x, lam=lam, b_x=b_x, problem=problem)


def _reflect(u, u_prev):
    """The reflected point ``2u - u_prev`` (``ybar``, ``zbar`` below)."""
    return 2.0 * u - u_prev


def _forward_points(flavor, Y):
    """Where the formulas read B: at y_j for rows 1.. of Y (BFoRB), or at
    ybar_j for rows 1.. of Y but the last (BRFoB)."""
    return Y[1:] if flavor == "bforb" else _reflect(Y[1:-1], Y[:-2])


def _kernel(flavor, ref, lam, L, Z, Y, P, F, b_x=None):
    """Lemma slacks of the steps k0..k1-1 and phi of the iterates k0..k1.

    ``Z`` stacks ``z_{k0-3}..z_{k1}``, ``Y`` stacks ``y_{k0-3}..y_{k1-1}``
    and ``F`` holds B at the points ``P = _forward_points(flavor, Y)``: at
    points ``k0-2..k1-1`` for BFoRB and ``k0-2..k1-2`` for BRFoB, which
    also needs ``b_x = B(x)`` and reads its reflected points from ``P``.
    Every formula is a row-wise dot product over shifted slices; a series
    that several terms read is formed once and sliced.  Also returns
    ``|z_{k+1} - z_k|^2`` per step and ``|z_k - z|^2`` per iterate.
    """
    if ref.lam != lam:
        raise CertificateError("reference point was built for a different lam")

    def sq(u):
        return _dot(u, u)

    zk, yk1, yk2 = Z[3:], Y[2:], Y[1:-1]
    df = F[1:] - F[:-1]             # B at point k-1 minus B at point k-2
    dz2 = sq(Z[1:] - Z[:-1])        # |z_j - z_{j-1}|^2, j = k0-2..k1
    dist2, step2 = sq(zk - ref.z), dz2[2:]
    # v_k is the part of phi_k that both sides of the lemma share: its right
    # side starts with v_k and its left side with v_{k+1}.
    if flavor == "bforb":
        v = dist2 + 2.0 * lam * _dot(df, ref.x - yk1)
        phi = v + 0.75 * step2 + 2.0 * lam * L * dz2[1:-1]
        rhs = v[:-1] + 2.0 * lam * _dot(df[:-1], yk1[:-1] - yk1[1:])
        lhs = v[1:] + step2[1:]
    else:
        v = dist2 + 2.0 * lam * _dot(F - b_x, yk1 - yk2)
        dev = sq(zk - _reflect(Z[2:-1], Z[1:-2]))  # |z_k - zbar_{k-1}|^2
        phi = (v + (1.0 + 22.0 * lam * L) * step2
               + (47.0 / 3.0) * lam * L * dz2[1:-1]
               + (14.0 / 3.0) * lam * L * dz2[:-2] + (7.0 / 11.0) * dev)
        rhs = v[:-1] + step2[:-1] + 2.0 * lam * _dot(df, P[1:] - yk1[1:])
        lhs = v[1:] + 2.0 * step2[1:] + dev[1:]
    return rhs - lhs, phi, step2[1:], dist2


def _rows(stack, lo, hi):
    """Rows lo..hi-1 of ``stack`` (an array, or a list of rows): a view,
    or for ``lo < 0`` a copy in which row 0 backfills the rows before it."""
    stack = np.asarray(stack, dtype=float)
    if lo >= 0:
        return stack[lo:hi]
    return stack[np.maximum(np.arange(lo, hi), 0)]


def _pointwise(problem, ref, lam, L, flavor, zs, ys, lemma):
    """One-row kernel call: the lemma slack of step k, or phi_k.

    ``zs`` and ``ys`` are stacks of rows, oldest first; ``_rows`` backfills
    missing older rows with the first.
    """
    n = int(lemma)
    Z = _rows(zs, len(zs) - 4 - n, len(zs))
    Y = _rows(ys, len(ys) - 3 - n, len(ys))
    B, P = problem.B, _forward_points(flavor, Y)
    slack, phi, _, _ = _kernel(flavor, ref, lam, L, Z, Y, P,
                               B.forward_rows(P),
                               B.forward(ref.x) if flavor == "brfob" else None)
    return float(slack[0] if lemma else phi[0])


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
    return _pointwise(problem, ref, lam, 0.0, "bforb", [z_k, z_next],
                      [y_prev2, y_prev, y_k], lemma=True)


def phi_bforb(problem, ref, lam, L, z_k, z_prev, z_prev2, y_prev, y_prev2):
    """Lyapunov value for the BFoRB iteration at index k.

    phi_k = |z_k - z|^2 + 2*lam*<B(y_{k-1}) - B(y_{k-2}), x - y_{k-1}>
            + (3/4)*|z_k - z_{k-1}|^2 + 2*lam*L*|z_{k-1} - z_{k-2}|^2.

    Computable for any ``lam``; the descent interpretation requires
    ``lam*L < 1/8``.
    """
    return _pointwise(problem, ref, lam, L, "bforb", [z_prev2, z_prev, z_k],
                      [y_prev2, y_prev], lemma=False)


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
    return _pointwise(problem, ref, lam, 0.0, "brfob", [z_prev, z_k, z_next],
                      [y_prev3, y_prev2, y_prev, y_k], lemma=True)


def phi_brfob(problem, ref, lam, L, z_k, z_prev, z_prev2, z_prev3,
              y_prev, y_prev2, y_prev3):
    """Lyapunov value for the BRFoB iteration at index k.

    phi_k = |z_k - z|^2 + 2*lam*<B(ybar_{k-2}) - B(x), y_{k-1} - y_{k-2}>
            + (1 + 22*lam*L)*|z_k - z_{k-1}|^2
            + (47/3)*lam*L*|z_{k-1} - z_{k-2}|^2
            + (14/3)*lam*L*|z_{k-2} - z_{k-3}|^2
            + (7/11)*|z_k - zbar_{k-1}|^2.
    """
    return _pointwise(problem, ref, lam, L, "brfob",
                      [z_prev3, z_prev2, z_prev, z_k],
                      [y_prev3, y_prev2, y_prev], lemma=False)


@dataclass
class CertificateReport:
    """Evaluated inequality slacks and Lyapunov data of one run.

    ``lemma_slacks[k]``, ``descent_violations[k]`` and
    ``telescope_violations[k]`` refer to the step k -> k+1; ``phi[k]`` and
    ``lower_bound_violations[k]`` to the iterate k (index 0 of the lower
    bound array is unconstrained and always zero).  Indices below ``warmup``
    depend on the initial-history policy and are excluded from the summary;
    the telescope starts at ``phi[warmup]``, so its entries below ``warmup``
    are zero.
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
    variant starts after the warm-up steps, which the summary excludes: for
    ``k >= warmup`` it compares
    ``phi_{k+1} + eps * sum_{warmup<=i<=k} |z_{i+1} - z_i|^2`` against
    ``phi_warmup``, and it is 0 for ``k < warmup``.
    """
    phis = np.asarray(phis, dtype=float)
    z_steps = np.asarray(z_steps, dtype=float)
    if phis.shape[0] != z_steps.shape[0] + 1:
        raise CertificateError("phis must have one more entry than z_steps")
    sq_steps = z_steps ** 2
    descent = np.maximum(0.0, phis[1:] + eps * sq_steps - phis[:-1])
    w = warmup
    telescope = np.zeros(z_steps.shape[0])
    if w < z_steps.shape[0]:
        telescope[w:] = np.maximum(
            0.0, phis[w + 1:] + eps * np.cumsum(sq_steps[w:]) - phis[w])
    lemma_slacks = np.asarray(() if lemma_slacks is None else lemma_slacks,
                              dtype=float)
    if lower_bound_violations is None:
        lower_bound_violations = np.zeros(phis.shape[0])
    lower_bound_violations = np.asarray(lower_bound_violations, dtype=float)

    def worst(pick, series):
        return float(pick(series)) if series.size else 0.0

    summary = {
        "k_evaluated": int(z_steps.shape[0]),
        "phi0": float(phis[0]),
        "epsilon": float(eps),
        "min_lemma_slack": worst(np.min, lemma_slacks[w:]),
        "max_descent_violation": worst(np.max, descent[w:]),
        "max_telescope_violation": worst(np.max, telescope[w:]),
        "max_lower_bound_violation":
            worst(np.max, lower_bound_violations[max(1, w):]),
    }
    return CertificateReport(
        lemma_slacks=lemma_slacks, phi=phis, epsilon=float(eps),
        descent_violations=descent, telescope_violations=telescope,
        lower_bound_violations=lower_bound_violations,
        lower_bound_coeff=lower_bound_coeff, warmup=warmup, summary=summary)


@np.errstate(all="ignore")
def certify_trace(problem, trace, kmax=None, ref=None):
    """Evaluate the full certificate suite along a recorded run.

    Supports BFoRB and BRFoB runs on any monotone instance, plus Davis-Yin
    runs when ``B`` is constant and DR runs when ``B`` vanishes (DR never
    evaluates ``B``).  Both then follow the BFoRB sequence and satisfy its
    inequalities with the forward terms dropping out.  The trace must have
    been produced with ``record_history=True`` on a problem admitting a
    reference point; ``kmax``, a positive integer, caps the steps evaluated.
    ``ref``, when given, is the point that ``reference_point(problem,
    trace.lam)`` returned, which is then not built again; a point built
    for another problem or stepsize raises ``CertificateError``.
    """
    if trace.zs is None or trace.ys is None:
        raise CertificateError("trace lacks history; rerun with record_history")
    method = Method(trace.method)
    if method not in (Method.BFORB, Method.BRFOB, Method.DR,
                      Method.DAVIS_YIN):
        raise CertificateError(
            f"no certificate is defined for method {method.value}")
    if method is Method.DR and not vanishes(problem.B):
        raise CertificateError("DR certificates require B = 0")
    if method is Method.DAVIS_YIN and problem.B.lipschitz != 0.0:
        raise CertificateError("DavisYin certificates require a constant B")

    lam, L = trace.lam, problem.B.lipschitz
    if ref is None:
        ref = reference_point(problem, lam)
    elif ref.problem is not problem or ref.lam != lam:
        raise CertificateError(
            "reference point was built for another problem or lam")
    zs, ys = (np.asarray(s, dtype=float) for s in (trace.zs, trace.ys))
    # run() ends a run at its first non-finite iterate, so only the last
    # recorded z can be non-finite.
    K = len(zs) - 1 - int(not np.isfinite(zs[-1]).all())
    if kmax is not None:
        K = min(K, as_count(kmax, "kmax", CertificateError))
    if K < 1:
        raise CertificateError("trace too short to certify")
    flavor = "brfob" if method is Method.BRFOB else "bforb"
    if flavor == "bforb":
        warmup, eps, lb_coeff = 2, 0.25 - 2.0 * lam * L, 0.75
    else:
        warmup, eps, lb_coeff = 3, 1.0 - 22.0 * lam * L, 6.0 / 11.0

    slacks, step2 = np.empty(K), np.empty(K)
    phis, dist2 = np.empty(K + 1), np.empty(K + 1)
    F, off = np.empty((0, problem.dim)), trace.y_offset
    rows = _block_rows(problem.dim)
    for k0 in range(0, K, rows):
        k1 = min(k0 + rows, K)
        Z = _rows(zs, k0 - 3, k1 + 1)
        Y = _rows(ys, k0 - 3 + off, k1 + off)
        # B once per point: the previous block already evaluated the first
        # points of this one (two for BFoRB, one for BRFoB).
        P = _forward_points(flavor, Y)
        done = F[k1 - k0 - len(P):]
        F = np.concatenate([done, problem.B.forward_rows(P[len(done):])])
        (slacks[k0:k1], phis[k0:k1 + 1], step2[k0:k1],
         dist2[k0:k1 + 1]) = _kernel(flavor, ref, lam, L, Z, Y, P, F,
                                     ref.b_x)

    lb = np.maximum(0.0, lb_coeff * dist2 - phis)
    lb[0] = 0.0
    return descent_report(phis, np.sqrt(step2), eps, lemma_slacks=slacks,
                          lower_bound_violations=lb,
                          lower_bound_coeff=lb_coeff, warmup=warmup)
