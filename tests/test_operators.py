import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from splitkit import (AffineOperator, BilinearCoupling, BoxNormalCone,
                      CapabilityError, CustomOperator, DimensionMismatchError,
                      InvalidBoxError, NotMonotoneError, OperatorError,
                      ProblemTriple, ScaledL1, ZeroOperator, box_project,
                      forward_eval, lipschitz_check, resolvent,
                      soft_threshold)
from splitkit.operators import NonFiniteError

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
        with pytest.raises(OperatorError):
            soft_threshold(1.0, lam, [1.0, -2.0])
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


# ------------------------------------------------------------ prox helpers

@pytest.mark.parametrize("w,lam,v,expected", [
    (1.0, 1.0, [3.0], [2.0]),
    (1.0, 1.0, [-0.5], [0.0]),
    (0.0, 1.0, [7.0], [7.0]),
])
def test_soft_threshold_values(w, lam, v, expected):
    assert np.array_equal(soft_threshold(w, lam, v), expected)


def test_soft_threshold_nonexpansive():
    r = rng(1)
    for _ in range(200):
        u, v = r.uniform(-3, 3, 8), r.uniform(-3, 3, 8)
        du = soft_threshold(1.3, 0.7, u) - soft_threshold(1.3, 0.7, v)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) * (1 + 1e-12)


@pytest.mark.parametrize("v,expected", [
    ([2.0], [1.0]),
    ([0.3], [0.3]),
    ([-5.0], [-1.0]),
])
def test_box_project_values(v, expected):
    assert np.array_equal(box_project(-1.0, 1.0, v), expected)


def test_box_project_idempotent():
    r = rng(2)
    lo, hi = -0.5, 2.0
    v = r.uniform(-4, 4, 20)
    once = box_project(lo, hi, v)
    assert np.array_equal(box_project(lo, hi, once), once)


def test_box_project_invalid():
    with pytest.raises(InvalidBoxError):
        box_project([1.0], [-1.0], [0.0])
    with pytest.raises(InvalidBoxError):
        BoxNormalCone([1.0], [-1.0])


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
        CustomOperator(6, resolvent=lambda lam, v: soft_threshold(0.5, lam, v)),
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
# The affine and bilinear resolvents call LAPACK getrs/potrs directly on
# prepared factors; scipy.linalg.lu_solve/cho_solve, the reference kept here,
# call the same routines, so the results must agree bit for bit.

_lams = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def _monotone_matrix(r, d):
    G = r.uniform(-1, 1, (d, d))
    return G @ G.T / d + r.uniform(0.0, 2.0) * (G - G.T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 40), lam=_lams)
def test_affine_resolve_bit_identical_to_lu_solve(seed, d, lam):
    r = rng(seed)
    M, b = _monotone_matrix(r, d), r.uniform(-1, 1, d)
    op = AffineOperator(M, b)
    ref_lu = lu_factor(np.eye(d) + lam * M)
    for _ in range(3):
        v = r.uniform(-5, 5, d)
        v_in = v.copy()
        u = op.resolve(lam, v)
        assert np.array_equal(v, v_in)       # the argument is not written
        assert np.array_equal(
            u, lu_solve(ref_lu, v - lam * b, check_finite=False))
        assert np.array_equal(resolvent(op, lam, v), u)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       n=st.integers(1, 12), lam=_lams)
def test_bilinear_resolve_bit_identical_to_cho_solve(seed, m, n, lam):
    r = rng(seed)
    K, c = r.uniform(-1, 1, (m, n)), r.uniform(-1, 1, m)
    op = BilinearCoupling(K, c)
    ref_cho = cho_factor(np.eye(n) + (lam * lam) * (K.T @ K))
    for _ in range(3):
        v = r.uniform(-5, 5, m + n)
        v_in = v.copy()
        u = op.resolve(lam, v)
        assert np.array_equal(v, v_in)
        wx, wy = v[:n], v[n:] - lam * c
        ux = cho_solve(ref_cho, wx - lam * (K.T @ wy), check_finite=False)
        expected = np.concatenate([ux, wy + lam * (K @ ux)])
        assert np.array_equal(u, expected)


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
