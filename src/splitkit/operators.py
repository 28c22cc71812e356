"""Maximal monotone operators with exact resolvents and forward oracles.

Every operator acts on a fixed-dimension real coordinate space with the
standard inner product.  An operator advertises two capabilities:

* ``has_forward``  -- pointwise evaluation ``F(v)`` (single-valued operators),
* ``has_resolvent`` -- evaluation of ``(I + lam*T)^{-1}(v)`` for ``lam > 0``.

Operators hold no mutable state: their data does not change after
construction, and each oracle returns a pure function of its arguments.
The Lipschitz constant of an affine or bilinear operator is the exact
spectral norm of its matrix, computed once, on first use.
``prepare(lam)`` returns the resolvent at ``lam`` as a one-argument
callable that the caller owns.  Affine and bilinear operators factor their
matrix there, once, and the callable closes over the factors; nothing is
cached on the operator.  So one problem may serve several threads, as long
as each thread prepares its own callables: scipy's ``getrs`` wrapper
shifts the LU pivots in place during every solve, so a prepared callable
belongs to one thread.  :class:`CustomOperator` callables must be
thread-safe themselves.

Oracle contract: the methods ``forward``, ``resolve`` and ``prepare`` are
the trusted inner oracles of the solvers.  They assume a finite 1-D float64
array of the operator's dimension (and ``lam > 0``) and do not check it;
they never write into their argument.  Validation happens once, at the
public boundary: :func:`resolvent`, :func:`forward_eval`,
:class:`ProblemTriple`, ``SolverConfig``/``run``, the flow simulators and
``omega_residual``.  :class:`CustomOperator` additionally checks what the
user's callables return.  A non-finite vector raises :class:`NonFiniteError`
(also the affine resolvent's overflow check), which ``run`` turns into a
``"diverged"`` run.  A matrix with a non-finite entry raises it at
construction.
"""

import math
from functools import cached_property, partial

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs, lu_factor

# The LAPACK routines behind scipy.linalg.lu_solve and cho_solve, called
# directly on prepared factors: the scipy wrappers re-check their arguments
# on every call, which at d=50 costs several times the solve itself.
_getrs, _potrs = get_lapack_funcs(("getrs", "potrs"), (np.empty((1, 1)),))


class OperatorError(Exception):
    """Base class for operator construction and evaluation errors."""


class NonFiniteError(OperatorError):
    """A vector, typically an oracle's output, has inf or NaN entries."""


class CapabilityError(OperatorError):
    """An oracle was requested that the operator does not provide."""


class DimensionMismatchError(OperatorError):
    """Operands act on different dimensions."""


class NotMonotoneError(OperatorError):
    """Construction data violates monotonicity."""


class InvalidBoxError(OperatorError):
    """Box bounds with some lo[i] > hi[i]."""


# Tolerance of the construction-time monotonicity test.
MONOTONE_EIG_TOL = 1e-10


def as_vector(v, dim=None, name="v"):
    """Coerce to a finite 1-D float64 array, optionally checking length."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dim {arr.shape[0]}, expected {dim}")
    return arr


def soft_threshold(w, lam, v):
    """Componentwise shrinkage ``sign(v)*max(|v| - lam*w, 0)``.

    This is the resolvent of ``lam * w * subdifferential(l1-norm)``; it is
    nonexpansive and reduces to the identity when ``w == 0``.
    """
    if not 0.0 < lam < np.inf:
        raise OperatorError("lam must be positive and finite")
    v = as_vector(v)
    return ScaledL1(v.shape[0], w).resolve(lam, v)


def box_project(lo, hi, v):
    """Clamp ``v`` componentwise to ``[lo, hi]``; idempotent."""
    v = as_vector(v)
    return BoxNormalCone(np.broadcast_to(lo, v.shape),
                         np.broadcast_to(hi, v.shape)).resolve(1.0, v)


def vanishes(op):
    """Whether ``op`` is the zero map, as its ``affine_parts`` show."""
    parts = op.affine_parts()
    return parts is not None and not any(map(np.any, parts))


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


def forward_eval(op, v):
    """Evaluate the single-valued operator at ``v``; deterministic."""
    return op.forward(as_vector(v, op.dim))


def resolvent(op, lam, v):
    """Evaluate ``(I + lam*op)^{-1}(v)`` for ``lam > 0``; each call factors
    an affine or bilinear ``op`` anew, so at one ``lam`` reuse
    ``op.prepare(lam)`` instead."""
    if not 0.0 < lam < np.inf:
        raise OperatorError("lam must be positive and finite")
    return op.resolve(lam, as_vector(v, op.dim))


class MonotoneOperator:
    """Common base: capability flags plus forward/resolvent dispatch."""

    kind = "abstract"
    has_forward = False
    has_resolvent = False
    lipschitz = None

    def __init__(self, dim):
        if dim < 1:
            raise OperatorError("dim must be a positive integer")
        self.dim = int(dim)

    def forward(self, v):
        raise CapabilityError(f"{self.kind} operator has no forward oracle")

    def resolve(self, lam, v):
        raise CapabilityError(f"{self.kind} operator has no resolvent")

    def prepare(self, lam):
        """The resolvent at ``lam``, a callable ``v -> J_{lam*T}(v)``."""
        return partial(self.resolve, lam)

    def affine_parts(self):
        """``(M, b)`` with ``T(v) = M v + b``, or None if T is not affine."""
        return None

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind} dim={self.dim}>"


class ZeroOperator(MonotoneOperator):
    """The zero map; its resolvent is the identity."""

    kind = "zero"
    has_forward = True
    has_resolvent = True
    lipschitz = 0.0

    def forward(self, v):
        return np.zeros(self.dim)

    def resolve(self, lam, v):
        return v

    def affine_parts(self):
        return np.zeros((self.dim, self.dim)), np.zeros(self.dim)


class AffineOperator(MonotoneOperator):
    """``F(v) = M v + b`` with positive-semidefinite symmetric part.

    Monotonicity is validated eagerly at construction by an eigenvalue test
    on the symmetric part.  Resolvents solve ``(I + lam*M) u = v - lam*b``
    with a dense LU factorization; ``prepare(lam)`` factors once (``lam``
    is constant within a run) and ``resolve`` prepares on every call.
    """

    kind = "affine"
    has_forward = True
    has_resolvent = True

    def __init__(self, M, b=None, validate=True):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise OperatorError("M must be square")
        super().__init__(M.shape[0])
        if not np.isfinite(M).all():
            raise NonFiniteError("M contains non-finite entries")
        self.M = M
        self.b = np.zeros(self.dim) if b is None else as_vector(b, self.dim, "b")
        if validate:
            sym = 0.5 * (M + M.T)
            lo = np.linalg.eigvalsh(sym)[0]
            scale = max(1.0, float(np.linalg.norm(sym, 2))) if self.dim > 1 else 1.0
            if lo < -MONOTONE_EIG_TOL * scale:
                raise NotMonotoneError(
                    f"symmetric part has eigenvalue {lo:.3e} < 0")

    @cached_property
    def lipschitz(self):
        """Spectral norm of ``M``, computed on first use."""
        return float(np.linalg.norm(self.M, 2))

    def forward(self, v):
        return self.M @ v + self.b

    def affine_parts(self):
        return self.M, self.b

    def prepare(self, lam):
        try:
            lu, piv = lu_factor(np.eye(self.dim) + lam * self.M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NotMonotoneError(f"(I + lam*M) is singular: {exc}")
        lam_b = lam * self.b

        def resolve(v):
            u = _getrs(lu, piv, v - lam_b, overwrite_b=True)[0]
            if not np.isfinite(u).all():
                raise NonFiniteError(
                    "affine resolvent produced non-finite values")
            return u

        return resolve

    def resolve(self, lam, v):
        return self.prepare(lam)(v)


class ScaledL1(MonotoneOperator):
    """Subdifferential of ``w * l1-norm``; resolvent is soft thresholding."""

    kind = "l1_scaled"
    has_resolvent = True

    def __init__(self, dim, weight):
        if not 0.0 <= weight < np.inf:
            raise OperatorError("l1 weight must be nonnegative and finite")
        super().__init__(dim)
        self.weight = float(weight)

    def resolve(self, lam, v):
        return np.sign(v) * np.maximum(np.abs(v) - lam * self.weight, 0.0)


class BoxNormalCone(MonotoneOperator):
    """Normal cone of ``[lo, hi]``; resolvent is the box projection."""

    kind = "box_normal_cone"
    has_resolvent = True

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatchError("lo and hi must have equal shapes")
        if np.any(lo > hi):
            raise InvalidBoxError("box has lo[i] > hi[i]")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def resolve(self, lam, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)


class BilinearCoupling(MonotoneOperator):
    """Skew coupling of a bilinear saddle term on ``(x, y)`` blocks.

    For the pairing ``<K x - c, y>`` the operator is
    ``B(x, y) = (K' y, -(K x) + c)``, which is monotone (skew linear part)
    and Lipschitz with constant ``|K|``.  Only ``K`` is stored; ``K'`` is
    applied on the fly.  The resolvent is evaluated by block elimination
    with a Cholesky factorization of ``I + lam^2 K'K``, made once by
    ``prepare(lam)``.
    """

    kind = "bilinear_coupling"
    has_forward = True
    has_resolvent = True

    def __init__(self, K, c=None):
        K = np.asarray(K, dtype=float)
        if K.ndim != 2:
            raise OperatorError("K must be a matrix")
        if not np.isfinite(K).all():
            raise NonFiniteError("K contains non-finite entries")
        self.m, self.n = K.shape
        super().__init__(self.m + self.n)
        self.K = K
        self.c = np.zeros(self.m) if c is None else as_vector(c, self.m, "c")

    @cached_property
    def lipschitz(self):
        """Spectral norm of ``K``, computed on first use."""
        return float(np.linalg.norm(self.K, 2))

    def forward(self, v):
        x, y = v[:self.n], v[self.n:]
        return np.concatenate([self.K.T @ y, -(self.K @ x) + self.c])

    def affine_parts(self):
        n, M, b = self.n, np.zeros((self.dim, self.dim)), np.zeros(self.dim)
        M[:n, n:], M[n:, :n], b[n:] = self.K.T, -self.K, self.c
        return M, b

    def prepare(self, lam):
        # Solve (I + lam*M) u = v - lam*(0, c) with M = [[0, K'], [-K, 0]]:
        # eliminating the y block leaves (I + lam^2 K'K) u_x = w_x - lam*K' w_y.
        K, n = self.K, self.n
        c, lower = cho_factor(np.eye(n) + (lam * lam) * (K.T @ K))
        lam_c = lam * self.c

        def resolve(v):
            wx, wy = v[:n], v[n:] - lam_c
            ux = _potrs(c, wx - lam * (K.T @ wy), lower=lower,
                        overwrite_b=True)[0]
            return np.concatenate([ux, wy + lam * (K @ ux)])

        return resolve

    def resolve(self, lam, v):
        return self.prepare(lam)(v)


class CustomOperator(MonotoneOperator):
    """Operator defined by user-supplied oracles.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    forward : callable, optional
        Map ``v -> F(v)``; providing it declares the operator single-valued.
    resolvent : callable, optional
        Map ``(lam, v) -> (I + lam*T)^{-1}(v)``.
    lipschitz : float, optional
        Declared Lipschitz constant of ``forward``.
    """

    kind = "custom"

    def __init__(self, dim, forward=None, resolvent=None, lipschitz=None):
        super().__init__(dim)
        if forward is None and resolvent is None:
            raise OperatorError("custom operator needs at least one oracle")
        self._forward = forward
        self._resolvent = resolvent
        self.has_forward = forward is not None
        self.has_resolvent = resolvent is not None
        if lipschitz is not None and not 0.0 <= lipschitz < np.inf:
            raise OperatorError("lipschitz must be nonnegative and finite")
        self.lipschitz = lipschitz

    def forward(self, v):
        if self._forward is None:
            raise CapabilityError("custom operator has no forward oracle")
        return as_vector(self._forward(v), self.dim, "F(v)")

    def resolve(self, lam, v):
        if self._resolvent is None:
            raise CapabilityError("custom operator has no resolvent")
        return as_vector(self._resolvent(lam, v), self.dim, "J(v)")


class ProblemTriple:
    """The data of the inclusion ``0 in (A + B + C)(x)``.

    ``A`` and ``C`` must be resolvent-capable, ``B`` must be single-valued
    with a declared Lipschitz constant.  ``x_star`` optionally carries a
    known solution and ``a_star`` an element of ``A(x_star)``; the pair
    gives the shadow point ``x_star + lam*a_star`` at every stepsize.
    ``a_star`` defaults to ``A(x_star)`` when ``A`` is single-valued.
    Construction checks, to ``1e-8*(1 + |x_star|)``, that a given
    ``a_star`` satisfies ``J_{1*A}(x_star + a_star) = x_star`` and that
    ``0 in a_star + B(x_star) + C(x_star)``.
    """

    def __init__(self, A, B, C, x_star=None, a_star=None):
        if not (A.dim == B.dim == C.dim):
            raise DimensionMismatchError(
                f"operator dims differ: {A.dim}, {B.dim}, {C.dim}")
        if not A.has_resolvent:
            raise CapabilityError("A must be resolvent-capable")
        if not C.has_resolvent:
            raise CapabilityError("C must be resolvent-capable")
        if not B.has_forward:
            raise CapabilityError("B must have a forward oracle")
        if B.lipschitz is None:
            raise OperatorError("B must declare a Lipschitz constant")
        self.A, self.B, self.C = A, B, C
        self.dim = A.dim
        self.x_star = None if x_star is None else as_vector(x_star, self.dim)
        self.a_star = None if a_star is None else as_vector(a_star, self.dim)
        if self.x_star is None:
            if self.a_star is not None:
                raise OperatorError("a_star requires x_star")
            return
        x = self.x_star
        bound = 1e-8 * (1.0 + np.linalg.norm(x))
        if self.a_star is None:
            self.a_star = A.forward(x) if A.has_forward else None
        elif np.linalg.norm(A.resolve(1.0, x + self.a_star) - x) > bound:
            raise OperatorError("a_star is not an element of A(x_star)")
        if self.a_star is not None:
            # 0 in a_star + B(x_star) + C(x_star), through J_{1*C} if need be
            w = self.a_star + B.forward(x)
            r = w + C.forward(x) if C.has_forward else C.resolve(1.0, x - w) - x
            if np.linalg.norm(r) > bound:
                raise OperatorError(
                    f"x_star residual {np.linalg.norm(r):.3e} exceeds {bound:.3e}")

    def prepare(self, lam):
        """The resolvents ``(A_res, C_res)`` of A and C at ``lam``."""
        return self.A.prepare(lam), self.C.prepare(lam)

    def __repr__(self):
        return (f"<ProblemTriple dim={self.dim} A={self.A.kind} "
                f"B={self.B.kind} C={self.C.kind}>")


def residual(C_res, lam, z, x, bx):
    """The omega residual ``|J_{lam*C}(2x - z - lam*bx) - x|`` of ``z``, for
    checked ``x = J_{lam*A}(z)``, ``bx = B(x)`` and ``C_res = J_{lam*C}``.

    ``math.sqrt(r @ r)`` has the bits of ``np.linalg.norm(r)``.
    """
    r = C_res(2.0 * x - z - lam * bx) - x
    return math.sqrt(r @ r)
