import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from splitkit import (AffineOperator, BilinearCoupling, BoxNormalCone,
                      CapabilityError, CustomOperator, DimensionMismatchError,
                      InvalidBoxError, NotMonotoneError, OperatorError,
                      ProblemTriple, ScaledL1, ZeroOperator, forward_eval,
                      make_affine_instance, resolvent)
from splitkit.operators import NonFiniteError

from oracles import lipschitz_check

SKEW2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------- forward

def test_forward_zero():
    assert np.array_equal(forward_eval(ZeroOperator(2), [1.0, 2.0]), [0.0, 0.0])


def test_forward_affine():
    op = AffineOperator([[2.0]], [1.0])
    assert np.array_equal(forward_eval(op, [3.0]), [7.0])


def test_forward_bilinear():
    # pairing <Kx - c, y> with K = [[1]], c = 0 at the point (x, y) = (2, 3)
    op = BilinearCoupling([[1.0]], [0.0])
    assert np.array_equal(forward_eval(op, [2.0, 3.0]), [3.0, -2.0])


def test_forward_deterministic():
    op = AffineOperator([[2.0, 0.3], [0.1, 1.0]], [0.5, -0.5])
    v = rng().uniform(-1, 1, 2)
    assert np.array_equal(forward_eval(op, v), forward_eval(op, v))


def test_forward_capability_and_dim_errors():
    with pytest.raises(CapabilityError):
        forward_eval(ScaledL1(3, 1.0), [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        forward_eval(ZeroOperator(2), [1.0, 2.0, 3.0])


# --------------------------------------------------------------- resolvent

def test_resolvent_zero_is_identity():
    assert np.array_equal(resolvent(ZeroOperator(1), 0.7, [5.0]), [5.0])


def test_resolvent_l1_soft_threshold():
    assert np.array_equal(resolvent(ScaledL1(1, 1.0), 1.0, [3.0]), [2.0])


def test_resolvent_affine_skew():
    # oracle: (I + M) u = v solved directly for the rotation M
    op = AffineOperator(SKEW2)
    u = resolvent(op, 1.0, [1.0, 0.0])
    expected = np.linalg.solve(np.eye(2) + SKEW2, [1.0, 0.0])
    assert np.allclose(u, [0.5, -0.5], atol=1e-15)
    assert np.allclose(u, expected, atol=1e-15)


def test_resolvent_rejects_bad_lam_and_capability():
    with pytest.raises(OperatorError):
        resolvent(ZeroOperator(1), -1.0, [1.0])
    for lam in (np.nan, np.inf):
        with pytest.raises(OperatorError):
            resolvent(ScaledL1(2, 1.0), lam, [1.0, -2.0])
    with pytest.raises(CapabilityError):
        fwd_only = CustomOperator(1, forward=lambda v: v)
        resolvent(fwd_only, 1.0, [1.0])


def test_resolvent_nonfinite_input_rejected():
    with pytest.raises(OperatorError):
        resolvent(ZeroOperator(1), 1.0, [np.nan])


def test_bilinear_resolvent_matches_dense_solve():
    r = rng(5)
    K = r.uniform(-1, 1, (3, 4))
    c = r.uniform(-1, 1, 3)
    op = BilinearCoupling(K, c)
    M = np.zeros((7, 7))
    M[:4, 4:] = K.T
    M[4:, :4] = -K
    b = np.concatenate([np.zeros(4), c])
    v = r.uniform(-1, 1, 7)
    lam = 0.3
    expected = np.linalg.solve(np.eye(7) + lam * M, v - lam * b)
    assert np.allclose(op.resolve(lam, v), expected, atol=1e-13)


# ------------------------------------- soft thresholding and box projection

@pytest.mark.parametrize("w,lam,v,expected", [
    (1.0, 1.0, [3.0], [2.0]),
    (1.0, 1.0, [-0.5], [0.0]),
    (0.0, 1.0, [7.0], [7.0]),
])
def test_soft_threshold_values(w, lam, v, expected):
    assert np.array_equal(resolvent(ScaledL1(len(v), w), lam, v), expected)


def test_soft_threshold_nonexpansive():
    r, l1 = rng(1), ScaledL1(8, 1.3)
    for _ in range(200):
        u, v = r.uniform(-3, 3, 8), r.uniform(-3, 3, 8)
        du = resolvent(l1, 0.7, u) - resolvent(l1, 0.7, v)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) * (1 + 1e-12)


@pytest.mark.parametrize("v,expected", [
    ([2.0], [1.0]),
    ([0.3], [0.3]),
    ([-5.0], [-1.0]),
])
def test_box_project_values(v, expected):
    box = BoxNormalCone([-1.0], [1.0])
    assert np.array_equal(resolvent(box, 1.0, v), expected)


def test_box_project_idempotent():
    r = rng(2)
    box = BoxNormalCone(np.full(20, -0.5), np.full(20, 2.0))
    v = r.uniform(-4, 4, 20)
    once = resolvent(box, 1.0, v)
    assert np.array_equal(resolvent(box, 1.0, once), once)


def test_box_project_invalid():
    with pytest.raises(InvalidBoxError):
        BoxNormalCone([1.0], [-1.0])
    with pytest.raises(InvalidBoxError):
        BoxNormalCone([0.0, 1.0], [0.0, -1.0])


# ------------------------------------------------------ Lipschitz constants

def _tied_matrix(seed, m, n, gap):
    """``U diag(s) V'`` with singular values ``1 >= 1 - gap >= ...``."""
    r = rng(seed)
    k = min(m, n)
    U, _ = np.linalg.qr(r.uniform(-1, 1, (m, k)))
    V, _ = np.linalg.qr(r.uniform(-1, 1, (n, k)))
    s = np.r_[1.0, 1.0 - gap, r.uniform(0.0, 0.9, k)][:k]
    return (U * s) @ V.T


@st.composite
def _couplings(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return _tied_matrix(draw(st.integers(0, 2**32 - 1)), m, n,
                            draw(st.floats(0.0, 1e-6)))
    entries = draw(st.lists(st.integers(-9, 9), min_size=m * n,
                            max_size=m * n))
    return 0.25 * np.array(entries, dtype=float).reshape(m, n)


@settings(max_examples=60, deadline=None)
@given(K=_couplings(), seed=st.integers(0, 2**32 - 1))
def test_bilinear_lipschitz_is_exact_spectral_norm(K, seed):
    op = BilinearCoupling(K)
    L = op.lipschitz
    assert L == float(np.linalg.norm(K, 2))
    assert lipschitz_check(op, 200, seed) <= L * (1 + 1e-10)


def test_bilinear_lipschitz_near_tie():
    # top singular values 1e-6 apart, where an iterative estimate stalls
    assert BilinearCoupling(np.diag([1.0, 1 - 1e-6, 0.5])).lipschitz == 1.0


# ---------------------------------------------------------- lipschitz_check

def test_lipschitz_check_zero():
    assert lipschitz_check(ZeroOperator(4), 50, seed=0) == 0.0


def test_lipschitz_check_rotation_is_isometry():
    ratio = lipschitz_check(AffineOperator(SKEW2), 200, seed=1)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_lipschitz_check_matches_operator_norm():
    op = AffineOperator([[2.0]])
    ratio = lipschitz_check(op, 100, seed=2)
    assert ratio == pytest.approx(2.0, abs=1e-12)
    assert op.lipschitz == 2.0


def test_declared_lipschitz_never_exceeded():
    r = rng(6)
    for seed in range(5):
        M = r.uniform(-1, 1, (10, 10))
        op = AffineOperator(0.5 * (M - M.T))   # skew: monotone
        assert lipschitz_check(op, 200, seed=seed) <= op.lipschitz * (1 + 1e-10)


# ------------------------------------------------------- property suites

def _resolvent_zoo():
    r = rng(7)
    K = r.uniform(-1, 1, (3, 5))
    G = r.uniform(-1, 1, (6, 6))
    psd = G @ G.T / 6.0
    return [
        ZeroOperator(6),
        AffineOperator(psd + 0.3 * (G - G.T), r.uniform(-1, 1, 6)),
        ScaledL1(6, 0.8),
        BoxNormalCone(-np.ones(6), 2 * np.ones(6)),
        BilinearCoupling(K, r.uniform(-1, 1, 3)),
        CustomOperator(6, resolvent=lambda lam, v: resolvent(ScaledL1(6, 0.5),
                                                             lam, v)),
    ]


@pytest.mark.parametrize("op", _resolvent_zoo(), ids=lambda op: op.kind)
def test_firm_nonexpansivity(op):
    r = rng(8)
    lam = 0.37
    for _ in range(1000):
        v = r.uniform(-2, 2, op.dim)
        w = r.uniform(-2, 2, op.dim)
        jv, jw = op.resolve(lam, v), op.resolve(lam, w)
        lhs = (np.linalg.norm(jv - jw) ** 2
               + np.linalg.norm((v - jv) - (w - jw)) ** 2)
        d2 = np.linalg.norm(v - w) ** 2
        assert lhs <= d2 + 1e-10 * d2


def test_affine_resolvent_identity():
    r = rng(9)
    G = r.uniform(-1, 1, (5, 5))
    op = AffineOperator(G @ G.T / 5.0 + 0.2 * (G - G.T), r.uniform(-1, 1, 5))
    lam = 0.8
    for _ in range(100):
        v = r.uniform(-3, 3, 5)
        u = op.resolve(lam, v)
        resid = (np.eye(5) + lam * op.M) @ u - (v - lam * op.b)
        assert np.linalg.norm(resid) <= 1e-12 * (1 + np.linalg.norm(v))


def _forward_zoo():
    r = rng(10)
    K = r.uniform(-1, 1, (3, 5))
    G = r.uniform(-1, 1, (8, 8))
    return [
        ZeroOperator(8),
        AffineOperator(G @ G.T / 8.0 + 0.5 * (G - G.T), r.uniform(-1, 1, 8)),
        BilinearCoupling(K, r.uniform(-1, 1, 3)),
    ]


@pytest.mark.parametrize("op", _forward_zoo(), ids=lambda op: op.kind)
def test_forward_monotone(op):
    r = rng(11)
    for _ in range(1000):
        u = r.uniform(-2, 2, op.dim)
        v = r.uniform(-2, 2, op.dim)
        inner = np.dot(op.forward(u) - op.forward(v), u - v)
        assert inner >= -1e-10 * np.linalg.norm(u - v) ** 2


# -------------------------------------------------- construction validation

def test_affine_monotone_validation():
    with pytest.raises(NotMonotoneError):
        AffineOperator([[-1.0]])
    AffineOperator(SKEW2)                       # skew is fine
    AffineOperator([[0.0, 5.0], [-5.0, 0.0]])   # any skew scale is fine


def test_bilinear_lipschitz_is_operator_norm():
    K = rng(12).uniform(-1, 1, (4, 6))
    op = BilinearCoupling(K)
    assert op.lipschitz == float(np.linalg.norm(K, 2))
    assert BilinearCoupling(np.zeros((2, 2))).lipschitz == 0.0


def test_custom_operator_requires_an_oracle():
    with pytest.raises(OperatorError):
        CustomOperator(3)


@pytest.mark.parametrize("L", [-1.0, np.nan, np.inf])
def test_custom_operator_lipschitz_must_be_finite(L):
    with pytest.raises(OperatorError):
        CustomOperator(2, forward=lambda v: v, lipschitz=L)


@pytest.mark.parametrize("make,matrix", [
    (AffineOperator, [[np.nan]]), (AffineOperator, [[np.inf]]),
    (BilinearCoupling, [[np.inf]]), (BilinearCoupling, [[np.nan, 1.0]])])
def test_nonfinite_matrix_rejected(make, matrix):
    # rejected like a non-finite b or c, before monotonicity is tested or
    # the Lipschitz constant is read (an SVD of NaN does not converge)
    with pytest.raises(NonFiniteError):
        make(matrix)


# ------------------------------------------------------------ ProblemTriple

def test_triple_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        ProblemTriple(A=ZeroOperator(2), B=ZeroOperator(3), C=ZeroOperator(2))


def test_triple_capability_checks():
    with pytest.raises(CapabilityError):
        ProblemTriple(A=ZeroOperator(2), B=ScaledL1(2, 1.0), C=ZeroOperator(2))
    with pytest.raises(OperatorError):
        no_L = CustomOperator(2, forward=lambda v: v)
        ProblemTriple(A=ZeroOperator(2), B=no_L, C=ZeroOperator(2))


def test_triple_x_star_residual_check():
    A = AffineOperator([[1.0]])
    B = AffineOperator([[1.0]])
    C = AffineOperator([[1.0]], [-3.0])
    ProblemTriple(A=A, B=B, C=C, x_star=[1.0])          # 3*1 - 3 = 0
    with pytest.raises(OperatorError):
        ProblemTriple(A=A, B=B, C=C, x_star=[2.0])


@pytest.mark.parametrize("scale, message", [
    (1e100, "x_star residual 1.645e+100 exceeds 1.271e+92"),
    (1e160, "x_star residual 1.645e+160 exceeds 1.271e+152")])
def test_triple_checks_an_x_star_far_out_without_warning(scale, message):
    # beyond about 1.3e154 the squares of |x_star| overflow: the bound was
    # inf, so any x_star passed, with numpy's overflow warnings
    p = make_affine_instance(4, 1, 0.8).triple()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorError) as exc:
            ProblemTriple(A=p.A, B=p.B, C=p.C, x_star=p.x_star * scale)
    assert str(exc.value) == message


def test_triple_a_star_consistency():
    # A = the normal cone of [0, 1], known only through its resolvent
    A = BoxNormalCone(0.0, 1.0)
    B = ZeroOperator(1)
    C = AffineOperator([[1.0]], [-1.0])
    # at x* = 1 the normal cone holds every a >= 0; B + C gives 0 there
    ProblemTriple(A=A, B=B, C=C, x_star=[1.0], a_star=[0.0])
    with pytest.raises(OperatorError):                  # -1 is not in A(1)
        ProblemTriple(A=A, B=B, C=C, x_star=[1.0], a_star=[-1.0])
    with pytest.raises(OperatorError):                  # in A(1), but no zero
        ProblemTriple(A=A, B=B, C=C, x_star=[1.0], a_star=[2.0])
    with pytest.raises(OperatorError):
        ProblemTriple(A=A, B=B, C=C, a_star=[0.0])      # missing x_star
    # without a forward oracle for A and no a_star given, none is derived
    assert ProblemTriple(A=A, B=B, C=C, x_star=[1.0]).a_star is None


# ------------------------------------------- lean oracles vs scipy reference
#
# The affine resolvent is one product with the inverse of I + lam*M, formed
# by prepare(lam); for monotone M its condition number is at most
# 1 + lam*|M|, so it agrees with the LU solve of scipy.linalg.lu_solve
# (LAPACK getrs) to rounding.  The bilinear resolvent is the same product
# for the skew M of its affine_parts(), whose I + lam*M has condition
# number at most sqrt(1 + lam^2 |K|^2): it agrees to rounding with the
# block elimination through the Cholesky factor of I + lam^2 K'K
# (scipy.linalg.cho_solve).

_lams = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def _monotone_matrix(r, d):
    G = r.uniform(-1, 1, (d, d))
    return G @ G.T / d + r.uniform(0.0, 2.0) * (G - G.T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), lam=_lams)
def test_affine_resolve_matches_lu_solve(seed, d, lam):
    r = rng(seed)
    M, b = _monotone_matrix(r, d), r.uniform(-1, 1, d)
    op = AffineOperator(M, b)
    res = op.prepare(lam)
    ref_lu = lu_factor(np.eye(d) + lam * M)
    for _ in range(3):
        v = r.uniform(-5, 5, d)
        v_in = v.copy()
        u = res(v)
        assert np.array_equal(v, v_in)       # the argument is not written
        ref = lu_solve(ref_lu, v - lam * b, check_finite=False)
        assert np.linalg.norm(u - ref) <= 1e-13 * (1.0 + np.linalg.norm(v))
        assert np.array_equal(op.resolve(lam, v), u)
        assert np.array_equal(resolvent(op, lam, v), u)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       n=st.integers(1, 12), lam=_lams)
def test_bilinear_resolve_matches_cho_solve(seed, m, n, lam):
    r = rng(seed)
    K, c = r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m)
    op = BilinearCoupling(K, c)
    res = op.prepare(lam)
    ref_cho = cho_factor(np.eye(n) + (lam * lam) * (K.T @ K))
    for _ in range(3):
        v = r.uniform(-5, 5, m + n)
        v_in = v.copy()
        u = res(v)
        assert np.array_equal(v, v_in)       # the argument is not written
        wx, wy = v[:n], v[n:] - lam * c
        ux = cho_solve(ref_cho, wx - lam * (K.T @ wy), check_finite=False)
        ref = np.concatenate([ux, wy + lam * (K @ ux)])
        assert np.linalg.norm(u - ref) <= 1e-13 * (1.0 + np.linalg.norm(v))
        assert np.array_equal(op.resolve(lam, v), u)
        assert np.array_equal(resolvent(op, lam, v), u)


# ------------------------------------------------- stacked forward evaluation
#
# The certificates evaluate B on a block of points with one forward_rows
# call, and their per-k functions on two or three points.  The two agree bit
# for bit only if forward_rows gives forward's bits row by row.  For an
# affine operator that rests on numpy evaluating the stacked product
# M @ V[..., None] as one gemv per row: one gemm (V @ M.T) would not.

def _same_rows(op, V):
    out = op.forward_rows(V)
    assert out.shape == (len(V), op.dim)
    for v, row in zip(V, out):
        assert row.tobytes() == op.forward(v).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 64),
       n=st.integers(0, 40))
@example(seed=7, d=400, n=40)
def test_affine_forward_rows_bit_identical(seed, d, n):
    r = rng(seed)
    op = AffineOperator(_monotone_matrix(r, d), r.uniform(-1, 1, d))
    V = r.uniform(-5, 5, (n + 1, d))
    _same_rows(op, V[1:])       # a view that starts one row in
    _same_rows(op, V[:n])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
       n=st.integers(1, 40), rows=st.integers(0, 12))
@example(seed=1, m=200, n=300, rows=8)
@example(seed=2, m=7, n=5, rows=3)
def test_bilinear_forward_rows_bit_identical(seed, m, n, rows):
    # two stacked products, K'y and -(Kx) + c, each one gemv per row
    r = rng(seed)
    op = BilinearCoupling(r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m))
    V = r.uniform(-5, 5, (rows + 1, m + n))
    _same_rows(op, V[1:])
    _same_rows(op, V[:rows])


def _rows_zoo(r, m, n):
    d = m + n
    return [ZeroOperator(d),
            BilinearCoupling(r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m)),
            CustomOperator(d, forward=lambda v: np.tanh(v) - 0.5,
                           lipschitz=1.0)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       n=st.integers(1, 8), rows=st.integers(0, 12))
def test_forward_rows_loops_over_forward(seed, m, n, rows):
    r = rng(seed)
    for op in _rows_zoo(r, m, n):
        _same_rows(op, r.uniform(-5, 5, (rows, m + n)))


def test_forward_rows_edges():
    r = rng(13)
    affine = AffineOperator(_monotone_matrix(r, 5), r.uniform(-1, 1, 5))
    for op in [affine] + _rows_zoo(r, 2, 3):
        assert op.forward_rows(np.empty((0, 5))).shape == (0, 5)
    # a non-finite row gives what forward gives: inf/NaN for the affine
    # operator, NonFiniteError from a custom callable
    V = r.uniform(-1, 1, (3, 5))
    V[1, 2], V[2, 0] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        _same_rows(affine, V)
        out = affine.forward_rows(V)
    assert np.isfinite(out[0]).all() and not np.isfinite(out[1:]).any()
    custom = CustomOperator(5, forward=lambda v: v, lipschitz=1.0)
    with pytest.raises(NonFiniteError):
        custom.forward_rows(V)


# run() and the flows evaluate the residual's C resolvent on a block of
# points with one call: a prepared resolvent maps a 2-D stack row by row,
# with the bits of one call per row.

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       n=st.integers(1, 8), rows=st.integers(0, 12), lam=_lams)
@example(seed=3, m=150, n=250, rows=5, lam=0.5)
def test_prepared_resolvents_map_stacks_row_by_row(seed, m, n, rows, lam):
    r = rng(seed)
    d = m + n
    ops = [AffineOperator(_monotone_matrix(r, d), r.uniform(-1, 1, d)),
           BilinearCoupling(r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m)),
           ZeroOperator(d), ScaledL1(d, 0.5),
           BoxNormalCone(-np.ones(d), np.ones(d)),
           CustomOperator(d, resolvent=lambda lam, v: v / (1.0 + lam))]
    V = r.uniform(-5, 5, (rows + 1, d))[1:]
    for op in ops:
        resolve = op.prepare(lam)
        out = resolve(V)
        assert out.shape == V.shape
        for v, row in zip(V, out):
            assert row.tobytes() == resolve(v).tobytes()


def test_prepared_affine_stack_checks_finiteness():
    # one non-finite row fails the whole stack, as it fails its own call
    resolve = AffineOperator([[1.0, 0.0], [0.0, 2.0]]).prepare(0.5)
    V = np.array([[1.0, 1.0], [np.inf, 1.0]])
    assert np.isfinite(resolve(V[0])).all()
    with np.errstate(invalid="ignore"):
        for v in (V[1], V):
            with pytest.raises(NonFiniteError):
                resolve(v)


# ------------------------------------------------- one-vector products
#
# The one-vector oracles compute their products with np.dot, which calls
# the gemv of the matmul ufunc (@) with less dispatch: the bits must be
# those of the @ expressions, for any length and memory layout, and for
# inputs with an inf or NaN entry.

def _closed_over(fn, name):
    cells = dict(zip(fn.__code__.co_freevars, fn.__closure__))
    return cells[name].cell_contents


def _bytes(a):
    return np.asarray(a).tobytes()


def _view(r, d, layout):
    big = r.uniform(-5, 5, 3 * d + 1)
    return {"contiguous": big[:d].copy(), "offset": big[1:d + 1],
            "strided": big[::3][:d]}[layout]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 64),
       n=st.integers(1, 64),
       layout=st.sampled_from(["contiguous", "offset", "strided"]),
       bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
       pos=st.integers(0, 2**16))
@example(seed=5, d=400, n=300, layout="strided", bad=None, pos=0)
@example(seed=6, d=400, n=1, layout="offset", bad=np.nan, pos=399)
def test_one_vector_products_have_the_bits_of_matmul(seed, d, n, layout, bad,
                                                     pos):
    r = rng(seed)
    lam = r.uniform(1e-3, 10.0)
    affine = AffineOperator(_monotone_matrix(r, d), r.uniform(-1, 1, d))
    K, c = r.uniform(-1, 1, (d, n)), r.uniform(-1, 1, d)
    bilinear = BilinearCoupling(K, c)
    v, w = _view(r, d, layout), _view(r, n + d, layout)
    if bad is not None:
        v[pos % d] = w[pos % (n + d)] = bad
    resolve = affine.prepare(lam)
    J, lam_b = _closed_over(resolve, "J"), _closed_over(resolve, "lam_b")
    with np.errstate(all="ignore"):
        assert _bytes(affine.forward(v)) == _bytes(affine.M @ v + affine.b)
        x, y = w[:n], w[n:]
        assert _bytes(bilinear.forward(w)) == _bytes(
            np.concatenate([K.T @ y, -(K @ x) + c]))
        assert _bytes(v.dot(v)) == _bytes(v @ v)
        expected = J @ (v - lam_b)
        if bad is None:
            assert _bytes(resolve(v)) == _bytes(expected)
        else:
            assert not np.isfinite(expected).all()
            with pytest.raises(NonFiniteError):
                resolve(v)


@pytest.mark.parametrize("d", [1, 50])
def test_one_vector_oracles_have_the_bits_of_np_dot(d):
    # the oracles call the matrix's bound ndarray.dot: np.dot's product, bit
    # for bit, on a contiguous and on a strided row view.  A bilinear
    # coupling has d >= 2, so d=1 takes K of shape 1x1 for it.
    r = rng(d)
    affine = AffineOperator(_monotone_matrix(r, d), r.uniform(-1, 1, d))
    m = max(d // 2, 1)
    K, c = r.uniform(-1, 1, (m, max(d - m, 1))), r.uniform(-1, 1, m)
    bilinear = BilinearCoupling(K, c)
    for op in (affine, bilinear):
        V = r.uniform(-5, 5, (3, 2 * op.dim))
        resolve = op.prepare(0.7)
        J, lam_b = resolve.J, _closed_over(resolve, "lam_b")
        for v in (V[1, :op.dim], V[1, ::2]):
            assert not v.flags.owndata
            assert _bytes(resolve(v)) == _bytes(np.dot(J, v - lam_b))
            if op is affine:
                want = np.dot(op.M, v) + op.b
            else:
                x, y = v[:K.shape[1]], v[K.shape[1]:]
                want = np.concatenate([np.dot(K.T, y), -np.dot(K, x) + c])
            assert _bytes(op.forward(v)) == _bytes(want)


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("d", [3, 8, 65])
def test_prepared_affine_resolve_rejects_one_bad_entry_anywhere(d, opposite):
    # M = -N with N = 1e300 * e_i (e_k - e_l)' (or 1e300 * e_i e_k') is
    # nilpotent, so J = I + N: at v = 1e10 (e_k + e_l) entry i of J v is
    # 1e310 (inf), or 1e310 - 1e310, which is NaN where the kernel rounds
    # each product and inf where it fuses them into one multiply-add, and
    # every other entry is finite
    for i in range(d):
        k, l = (i + 1) % d, (i + 2) % d
        N = np.zeros((d, d))
        N[i, k] = 1e300
        if opposite:
            N[i, l] = -1e300
        v = np.zeros(d)
        v[[k, l]] = 1e10
        resolve = AffineOperator(-N, validate=False).prepare(1.0)
        with np.errstate(all="ignore"):
            assert np.flatnonzero(~np.isfinite(
                _closed_over(resolve, "J") @ v)).tolist() == [i]
            with pytest.raises(NonFiniteError):
                resolve(v)


def test_prepared_resolvents_serve_several_threads():
    # a prepared affine or bilinear resolvent writes nothing it shares (no
    # in-place pivots), so 4 threads calling one prepared pair give the
    # serial results bit for bit
    r = rng(5)
    K, c = r.uniform(-1, 1, (20, 30)), r.uniform(-1, 1, 20)
    problem = ProblemTriple(A=AffineOperator(_monotone_matrix(r, 50),
                                             r.uniform(-1, 1, 50)),
                            B=ZeroOperator(50), C=BilinearCoupling(K, c))
    A_res, C_res = problem.prepare(0.7)
    vs = list(r.uniform(-5, 5, (40, 50)))
    serial = [(A_res(v), C_res(v)) for v in vs]
    threaded = {}

    def work(i):
        threaded[i] = [[(A_res(v), C_res(v)) for v in vs]
                       for _ in range(50)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(4):
        for results in threaded[i]:
            assert all(np.array_equal(a, sa) and np.array_equal(c, sc)
                       for (a, c), (sa, sc) in zip(results, serial))


def _factored_ops():
    return [AffineOperator(SKEW2, [1.0, -1.0]), BilinearCoupling([[1.0]], [0.5])]


@pytest.mark.parametrize("op", _factored_ops(), ids=lambda op: op.kind)
def test_prepare_returns_the_resolvent_and_stores_nothing(op):
    # the factors belong to the prepared callable, not to the operator
    before = dict(vars(op))
    v = np.array([1.0, 2.0])
    res = op.prepare(0.5)
    first = res(v)
    for _ in range(3):
        assert np.array_equal(res(v), first)
    assert np.array_equal(op.resolve(0.5, v), first)
    assert not np.array_equal(op.prepare(0.25)(v), first)
    assert vars(op).keys() == before.keys()
    assert all(vars(op)[k] is val for k, val in before.items())


@pytest.mark.parametrize("op", _factored_ops(), ids=lambda op: op.kind)
@pytest.mark.parametrize("bad,error", [
    ([np.nan, 1.0], OperatorError),
    ([1.0, np.inf], OperatorError),
    ([-np.inf, 0.0], OperatorError),
    ([1.0], DimensionMismatchError),
    ([1.0, 2.0, 3.0], DimensionMismatchError),
    ([[1.0, 2.0]], DimensionMismatchError),
])
def test_public_oracles_validate_input(op, bad, error):
    with pytest.raises(error):
        resolvent(op, 0.5, bad)
    with pytest.raises(error):
        forward_eval(op, bad)
