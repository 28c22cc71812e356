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
callable that the caller owns.  Affine and bilinear operators share one
route: ``prepare`` forms the explicit inverse of ``I + lam*M`` for the
``M`` of ``affine_parts()`` there, once, and the callable closes over it
and carries it as its attribute ``J``; nothing is cached on the
operator.  The callable maps a vector, and a 2-D stack of vectors row by
row with the bits of one call per row: the affine and bilinear ones by
one stacked product, the zero, box and l1 ones elementwise, the custom
ones one row at a time.  A prepared callable only reads what it closes
over and writes only arrays it allocates itself, so one problem, and even
one prepared callable, may serve several threads at once.
:class:`CustomOperator` callables must be thread-safe themselves.

Oracle contract: the methods ``forward``, ``resolve`` and ``prepare`` are
the trusted inner oracles of the solvers.  They assume a finite 1-D float64
array of the operator's dimension (and ``lam > 0``) and do not check it;
they never write into their argument.  ``forward_rows(V)`` is ``forward``
of each row of a 2-D stack ``V``, bit for bit, and :func:`residual` gives
the omega residual of each row of a stack.  Validation happens once, at
the public boundary: :func:`resolvent`, :func:`forward_eval`,
:class:`ProblemTriple`, ``SolverConfig``/``run``, the flow simulators and
``omega_residual``.  :class:`CustomOperator` additionally checks what the
user's callables return.  A non-finite vector raises :class:`NonFiniteError`
(also the affine resolvent's overflow check), which ``run`` turns into a
``"diverged"`` run.  A matrix with a non-finite entry raises it at
construction.
"""

import operator
from functools import cached_property, partial

import numpy as np


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
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{name} contains non-finite entries")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dim {arr.shape[0]}, expected {dim}")
    return arr


def as_count(n, name, error):
    """``n`` as a positive ``int`` by ``operator.index`` (a float or a
    string is no count), or ``error``."""
    if not hasattr(type(n), "__index__") or operator.index(n) < 1:
        raise error(f"{name} must be a positive integer")
    return operator.index(n)


def vanishes(op):
    """Whether ``op`` is the zero map, as its ``affine_parts`` show."""
    parts = op.affine_parts()
    return parts is not None and not any(map(np.any, parts))


def forward_eval(op, v):
    """Evaluate the single-valued operator at ``v``; deterministic."""
    return op.forward(as_vector(v, op.dim))


def resolvent(op, lam, v):
    """Evaluate ``(I + lam*op)^{-1}(v)`` for ``lam > 0``; each call inverts
    the matrix of an affine or bilinear ``op`` anew, so at one ``lam``
    reuse ``op.prepare(lam)`` instead."""
    if not 0.0 < lam < np.inf:
        raise OperatorError("lam must be positive and finite")
    return op.resolve(lam, as_vector(v, op.dim))


def _row_by_row(resolve):
    """Extend a one-vector oracle to 2-D stacks, one row at a time."""
    def stacked(v):
        if v.ndim == 1:
            return resolve(v)
        return np.array([resolve(r) for r in v]).reshape(v.shape)

    return stacked


def resolvent_matrix(M, lam):
    """``J = (I + lam*M)^{-1}`` by ``np.linalg.inv``.

    For monotone ``M``, ``I + lam*M`` is singular only after rounding
    (``lam*|M|`` beyond ``1/eps``): no resolvent exists there, and ``J`` is
    all NaN, so every product with it reports the failure.
    """
    try:
        return np.linalg.inv(np.eye(M.shape[0]) + lam * M)
    except np.linalg.LinAlgError:
        return np.full(M.shape, np.nan)


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

    def forward_rows(self, V):
        """``forward`` of each row of the 2-D stack ``V``, as rows."""
        return _row_by_row(self.forward)(V)

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
    on the symmetric part.  The resolvent is ``J (v - lam*b)`` with
    ``J = (I + lam*M)^{-1}``: ``prepare(lam)`` forms ``J`` once (``lam`` is
    constant within a run), so each evaluation is one matrix-vector
    product, and ``resolve`` prepares on every call.  The symmetric part of
    ``I + lam*M`` is at least ``I``, so ``|J| <= 1`` and the condition
    number is at most ``1 + lam*|M|``: the explicit inverse is as accurate
    as an LU solve.
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
            eig = np.linalg.eigvalsh(0.5 * (M + M.T))
            # the spectral norm of the symmetric part, from its eigenvalues
            scale = max(1.0, -eig[0], eig[-1]) if self.dim > 1 else 1.0
            if eig[0] < -MONOTONE_EIG_TOL * scale:
                raise NotMonotoneError(
                    f"symmetric part has eigenvalue {eig[0]:.3e} < 0")

    @cached_property
    def lipschitz(self):
        """Spectral norm of ``M``, computed on first use."""
        return float(np.linalg.norm(self.M, 2))

    def forward(self, v):
        # M.dot: the gemv of M @ v, bit for bit, without np.dot's dispatcher
        return self.M.dot(v) + self.b

    def forward_rows(self, V):
        # batched @: forward's gemv per row (V @ M.T, a gemm, moves bits)
        return (self.M @ V[..., None])[..., 0] + self.b

    def affine_parts(self):
        return self.M, self.b

    def prepare(self, lam):
        M, b = self.affine_parts()
        J, lam_b = resolvent_matrix(M, lam), lam * b
        J_dot = J.dot

        def resolve(v):
            if v.ndim == 1:
                u = J_dot(v - lam_b)
                finite = np.count_nonzero(np.isfinite(u)) == u.shape[0]
            else:   # one gemv per row, as above; v @ J.T (a gemm) is not
                u = (J @ (v - lam_b)[..., None])[..., 0]
                finite = np.isfinite(u).all()
            if not finite:
                raise NonFiniteError(
                    "affine resolvent produced non-finite values")
            return u

        resolve.J = J       # for the precomposed maps
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
    applied on the fly.  The resolvent is the affine one of
    ``affine_parts()``: ``I + lam*M`` with a skew ``M`` has condition
    number at most ``sqrt(1 + lam^2 |K|^2)``, so its explicit inverse is as
    accurate as a solve.
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
        K, x, y = self.K, v[:self.n], v[self.n:]
        return np.concatenate([K.T.dot(y), -K.dot(x) + self.c])

    def forward_rows(self, V):
        # one gemv per row and block, as in forward
        X, Y = V[:, :self.n, None], V[:, self.n:, None]
        return np.concatenate([(self.K.T @ Y)[..., 0],
                               -(self.K @ X)[..., 0] + self.c], axis=1)

    def affine_parts(self):
        n, M, b = self.n, np.zeros((self.dim, self.dim)), np.zeros(self.dim)
        M[:n, n:], M[n:, :n], b[n:] = self.K.T, -self.K, self.c
        return M, b

    prepare, resolve = AffineOperator.prepare, AffineOperator.resolve


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

    def prepare(self, lam):
        return _row_by_row(partial(self.resolve, lam))


class ProblemTriple:
    """The data of the inclusion ``0 in (A + B + C)(x)``.

    ``A`` and ``C`` must be resolvent-capable, ``B`` must be single-valued
    with a declared Lipschitz constant.  ``x_star`` optionally carries a
    known solution and ``a_star`` an element of ``A(x_star)``; the pair
    gives the shadow point ``x_star + lam*a_star`` at every stepsize.
    ``a_star`` defaults to ``A(x_star)`` when ``A`` is single-valued.
    Construction checks, to ``1e-8*(1 + |x_star|)``, that a given
    ``a_star`` satisfies ``J_{1*A}(x_star + a_star) = x_star`` and that
    ``0 in a_star + B(x_star) + C(x_star)``; its norms are
    :func:`row_norms`', so the bound is finite for every finite ``x_star``.
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
        bound = 1e-8 * (1.0 + _norm(x))
        if self.a_star is None:
            self.a_star = A.forward(x) if A.has_forward else None
        elif _norm(A.resolve(1.0, x + self.a_star) - x) > bound:
            raise OperatorError("a_star is not an element of A(x_star)")
        if self.a_star is not None:
            # 0 in a_star + B(x_star) + C(x_star), through J_{1*C} if need be
            w = self.a_star + B.forward(x)
            r = w + C.forward(x) if C.has_forward else C.resolve(1.0, x - w) - x
            if _norm(r) > bound:
                raise OperatorError(
                    f"x_star residual {_norm(r):.3e} exceeds {bound:.3e}")

    def prepare(self, lam):
        """The resolvents ``(A_res, C_res)`` of A and C at ``lam``."""
        return self.A.prepare(lam), self.C.prepare(lam)

    def __repr__(self):
        return (f"<ProblemTriple dim={self.dim} A={self.A.kind} "
                f"B={self.B.kind} C={self.C.kind}>")


def row_norms(V):
    """The Euclidean norm of each row (along the last axis) of a stack of
    any shape, with the bits of ``math.sqrt(v.dot(v))`` (and so of
    ``np.linalg.norm(v)``) per row: the batched product is that dot product
    per row, for strided rows too.  A finite row whose squares overflow
    (beyond about 1e154) is scaled by its largest entry first, so its norm
    is inf only if it is not representable."""
    norms = np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(V).all(axis=-1)
        S = V[over]
        scale = np.abs(S).max(axis=1)
        norms[over] = scale * row_norms(S / scale[:, None])
    return norms


def _norm(v):
    """``|v|`` by :func:`row_norms`, finite for a finite ``v`` and without
    numpy's warning where its squares overflow."""
    with np.errstate(over="ignore"):
        return float(row_norms(v[None])[0])


def residual(C_res, B, lam, X, P, BX=None, omega=None):
    """The omega residuals ``|J_{lam*C}(2x - p - lam*B(x)) - x|`` of the
    rows ``p`` of a stack ``P``, for checked ``X = J_{lam*A}(P)`` row by
    row and ``C_res = J_{lam*C}``, with ``B(X)`` taken by
    ``B.forward_rows`` unless the caller passes it as ``BX``.  Given the
    residual map ``omega = [r | R]`` of an affine triple, they are ``|R p
    + r|``, one batched gemv of ``R`` per row (the bits of ``R.dot(p) +
    r``), if every row ``R p + r`` is finite, with no floating-point kind
    named for the map; otherwise the composed rows.  A row of the map may
    be finite where the composed ``B(x)`` overflows (points beyond about
    1e300).  One call for the stack has the bits of one call per row.
    """
    if omega is not None:
        with np.errstate(all="ignore"):
            U = (omega[:, 1:] @ P[..., None])[..., 0] + omega[:, 0]
        if np.isfinite(U).all():
            return row_norms(U)
    if BX is None:
        BX = B.forward_rows(X)
    return row_norms(C_res(2.0 * X - P - lam * BX) - X)


#: The floating-point kinds that runs and flows name, in the order named.
FP_KINDS = ("overflow", "invalid value", "divide by zero")


def fp_errstate(call):
    """``np.errstate`` that reports each event of ``FP_KINDS`` to
    ``call(kind, flag)`` instead of warning."""
    return np.errstate(over="call", invalid="call", divide="call", call=call)


def fp_warnings(kinds):
    """One warning per kind in ``kinds``, in the order of ``FP_KINDS``."""
    return [f"floating-point {kind} encountered" for kind in FP_KINDS
            if kind in kinds]
