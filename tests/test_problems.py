import numpy as np
import pytest

from splitkit import (AffineInstance, OperatorError, SaddleInstance,
                      ScaledL1, SolverConfig, make_affine_instance,
                      make_saddle_instance, max_stepsize, omega_residual,
                      reference_point, run, save_instance, load_instance,
                      solve_affine_direct)

from oracles import lipschitz_check


def zero_like_instance(dim, M_B=None, b_B=None):
    z = np.zeros((dim, dim))
    v = np.zeros(dim)
    return AffineInstance(
        M_A=z.copy(), M_B=z.copy() if M_B is None else np.asarray(M_B, float),
        M_C=z.copy(), b_A=v.copy(),
        b_B=v.copy() if b_B is None else np.asarray(b_B, float),
        b_C=v.copy(), x_star=v.copy(), seed=0, dim=dim, skew_fraction=0.0)


# ------------------------------------------------------------ direct solve

def test_solve_scalar():
    inst = zero_like_instance(1, M_B=[[3.0]], b_B=[3.0])
    assert solve_affine_direct(inst)[0] == pytest.approx(-1.0)


def test_solve_skew_2x2():
    # M x = -b with M the rotation and b = (1, 0): -x2 = -1, x1 = 0
    inst = zero_like_instance(2, M_B=[[0.0, -1.0], [1.0, 0.0]], b_B=[1.0, 0.0])
    x = solve_affine_direct(inst)
    assert np.allclose(x, [0.0, 1.0], atol=1e-14)
    assert np.allclose(inst.M_B @ x + inst.b_B, 0.0, atol=1e-14)


def test_solve_residual_at_scale():
    inst = make_affine_instance(50, 1, 0.8)
    x = solve_affine_direct(inst)
    M = inst.M_A + inst.M_B + inst.M_C
    b = inst.b_A + inst.b_B + inst.b_C
    assert np.linalg.norm(M @ x + b) <= 1e-12 * (1 + np.linalg.norm(b))


# --------------------------------------------------------- affine instances

def test_scalar_instance_solution_formula():
    inst = make_affine_instance(1, 3, 0.8)
    a, b, c = inst.M_A[0, 0], inst.M_B[0, 0], inst.M_C[0, 0]
    assert a >= -1e-15 and b >= -1e-15 and c >= -1e-15
    total = a + b + c
    if total > 0:
        expected = -(inst.b_A[0] + inst.b_B[0] + inst.b_C[0]) / total
        assert inst.x_star[0] == pytest.approx(expected, rel=1e-12)


def test_instance_determinism():
    a = make_affine_instance(13, 42, 0.8)
    b = make_affine_instance(13, 42, 0.8)
    for name in ("M_A", "M_B", "M_C", "b_A", "b_B", "b_C", "x_star"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = make_affine_instance(13, 43, 0.8)
    assert not np.array_equal(a.M_B, c.M_B)


def test_instance_symmetric_parts_psd():
    inst = make_affine_instance(20, 7, 0.8)
    for M in (inst.M_A, inst.M_B, inst.M_C):
        sym = 0.5 * (M + M.T)
        assert np.linalg.eigvalsh(sym)[0] >= -1e-10


def test_instance_operators_pass_spot_checks():
    inst = make_affine_instance(15, 2, 0.8)
    problem = inst.triple()
    assert lipschitz_check(problem.B, 500, seed=0) <= \
        problem.B.lipschitz * (1 + 1e-10)
    r = np.random.Generator(np.random.Philox(5))
    for op in (problem.A, problem.B, problem.C):
        for _ in range(200):
            u, v = r.uniform(-1, 1, 15), r.uniform(-1, 1, 15)
            inner = np.dot(op.forward(u) - op.forward(v), u - v)
            assert inner >= -1e-10 * np.linalg.norm(u - v) ** 2


def test_instance_x_star_respected_by_triple():
    inst = make_affine_instance(12, 5, 0.8)
    problem = inst.triple()
    assert np.array_equal(problem.x_star, inst.x_star)


def test_reference_point_for_both_bounds():
    inst = make_affine_instance(16, 6, 0.8)
    problem = inst.triple()
    L = problem.B.lipschitz
    for bound in (1.0 / (8 * L), 1.0 / (22 * L)):
        for frac in (0.5, 0.9):
            reference_point(problem, frac * bound)     # validates internally


def test_singular_fallback_applies_shift():
    # hunt a 1-D seed where every monotone part clips to zero
    for seed in range(200):
        inst = make_affine_instance(1, seed, 1.0)
        if inst.shift > 0:
            total = inst.M_A[0, 0] + inst.M_B[0, 0] + inst.M_C[0, 0]
            assert total > 0
            assert inst.x_star[0] == pytest.approx(
                -(inst.b_A[0] + inst.b_B[0] + inst.b_C[0]) / total, rel=1e-10)
            return
    pytest.skip("no singular 1-D instance within 200 seeds")


def test_instance_param_validation():
    with pytest.raises(OperatorError):
        make_affine_instance(0, 1, 0.8)
    with pytest.raises(OperatorError):
        make_affine_instance(5, 1, 1.5)


# --------------------------------------------------------- saddle instances

def test_saddle_instance_shapes_and_L():
    inst = make_saddle_instance(20, 30, 11, 0.5, 1.0)
    assert inst.K.shape == (20, 30)
    assert inst.c.shape == (20,)
    sigma = np.linalg.svd(inst.K, compute_uv=False)[0]
    problem = inst.triple()
    assert problem.B.lipschitz == pytest.approx(sigma, rel=1e-8)
    assert problem.dim == 50
    # the planted zero: y at a corner of its box, x at 0 or +-radius
    assert inst.y_plant.shape == (20,)
    assert np.array_equal(np.abs(inst.y_plant), np.ones(20))
    x, y = problem.x_star[:30], problem.x_star[30:]
    assert np.array_equal(y, inst.y_plant)
    assert set(np.abs(x)) <= {0.0, 1.0}
    assert np.array_equal(inst.c, inst.K @ x - 0.5 * y)
    lam = 0.9 * max_stepsize("BFoRB", problem.B.lipschitz)
    assert omega_residual(problem, lam, reference_point(problem, lam).z) \
        <= 1e-12


def test_saddle_determinism():
    a = make_saddle_instance(6, 9, 4, 0.3, 2.0)
    b = make_saddle_instance(6, 9, 4, 0.3, 2.0)
    assert np.array_equal(a.K, b.K) and np.array_equal(a.c, b.c)


def test_saddle_trivial_decoupled():
    # K = 0 decouples the blocks; with alpha = 1 the x block shrinks to zero
    inst = SaddleInstance(K=np.zeros((2, 3)), c=np.zeros(2), alpha=1.0,
                          radius=1.0, m=2, n=3, seed=0)
    problem = inst.triple()
    trace = run(problem, SolverConfig(method="BFoRB", lam=0.5,
                                      z0=np.ones(5), max_iters=100,
                                      tol=1e-14))
    x_block = trace.x_final[:3]
    assert np.linalg.norm(x_block) <= 1e-12


def test_saddle_pure_bilinear_game():
    # K = [1], c = 0, alpha = 0, R = 1: unique zero of the skew field at origin
    inst = SaddleInstance(K=np.array([[1.0]]), c=np.zeros(1), alpha=0.0,
                          radius=1.0, m=1, n=1, seed=0)
    problem = inst.triple()
    lam = 0.9 * max_stepsize("BFoRB", 1.0)
    trace = run(problem, SolverConfig(method="BFoRB", lam=lam,
                                      z0=np.array([0.7, -0.4]),
                                      max_iters=20000, tol=1e-13))
    assert trace.status == "converged"
    assert np.linalg.norm(trace.x_final) <= 1e-6
    assert omega_residual(problem, lam, trace.z_final) <= 1e-9


def test_saddle_resolvents_act_blockwise():
    inst = make_saddle_instance(3, 4, 8, 0.5, 2.0)
    problem = inst.triple()
    v = np.array([3.0, -0.1, -5.0, 1.0, 4.0, 0.2, -9.0])
    lam = 0.2
    a = problem.A.resolve(lam, v)
    assert a[0] == pytest.approx(3.0 - lam * 0.5)    # soft threshold
    assert a[1] == pytest.approx(-0.1 + lam * 0.5)
    assert a[4] == 1.0 and a[6] == -1.0              # y box corners
    c = problem.C.resolve(lam, v)
    assert c[0] == 2.0 and c[2] == -2.0              # x box at radius
    assert np.array_equal(c[4:], v[4:])              # identity on y


def test_saddle_param_validation():
    with pytest.raises(OperatorError):
        make_saddle_instance(0, 3, 1, 0.5, 1.0)
    with pytest.raises(OperatorError):
        make_saddle_instance(3, 3, 1, -0.5, 1.0)
    with pytest.raises(OperatorError):
        make_saddle_instance(3, 3, 1, 0.5, 0.0)
    for alpha, radius in ((np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan),
                          (0.5, np.inf), (0.5, -1.0)):
        with pytest.raises(OperatorError):
            make_saddle_instance(3, 3, 1, alpha, radius)
    # a NaN weight used to pass as 0 (NaN < 0 is false)
    for weight in (np.nan, np.inf, -1.0):
        with pytest.raises(OperatorError):
            ScaledL1(3, weight)
    hand_built = SaddleInstance(K=np.eye(2), c=np.zeros(2), alpha=np.nan,
                                radius=1.0, m=2, n=2, seed=0)
    with pytest.raises(OperatorError):
        hand_built.triple()


# ------------------------------------------------------------- serialization

def test_affine_round_trip_bit_exact(tmp_path):
    inst = make_affine_instance(17, 9, 0.8)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    for name in ("M_A", "M_B", "M_C", "b_A", "b_B", "b_C", "x_star"):
        assert np.array_equal(getattr(inst, name), getattr(back, name))
    assert (back.dim, back.seed, back.skew_fraction, back.shift) == \
        (inst.dim, inst.seed, inst.skew_fraction, inst.shift)
    assert back.triple().B.lipschitz == inst.triple().B.lipschitz


def test_saddle_round_trip_bit_exact(tmp_path):
    inst = make_saddle_instance(5, 8, 3, 0.25, 1.5)
    path = tmp_path / "saddle.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(inst.K, back.K)
    assert np.array_equal(inst.c, back.c)
    assert np.array_equal(inst.y_plant, back.y_plant)
    assert (back.m, back.n, back.seed, back.alpha, back.radius) == \
        (inst.m, inst.n, inst.seed, inst.alpha, inst.radius)
    assert back.triple().B.lipschitz == inst.triple().B.lipschitz


def test_save_twice_identical_bytes(tmp_path):
    inst = make_affine_instance(9, 2, 0.5)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_instance(inst, p1)
    save_instance(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not an instance\n")
    with pytest.raises(OperatorError):
        load_instance(path)


def _corrupt(tmp_path, inst, lineno, text):
    """``inst`` saved, then line ``lineno`` replaced by ``text`` (deleted,
    with everything after it, when ``text`` is None)."""
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1:] = [] if text is None else [text, *lines[lineno:]]
    path.write_text("\n".join(lines) + "\n")
    return path


# Affine d=3: header on lines 1-6, M_A/M_B/M_C headers on 7/11/15, vector
# headers on 19/21/23/25.  Saddle 2x3: header on 1-7, K on 8, c on 11,
# y_plant on 13.
@pytest.mark.parametrize("kind, lineno, text, named", [
    ("affine", 11, "matrix M_B 3", 11),          # short matrix header
    ("affine", 19, "vector b_A", 19),            # short vector header
    ("affine", 2, "kind", 2),                    # bare kind line
    ("affine", 2, "kind cube", 2),               # unknown kind
    ("affine", 3, "dim 5", 7),                   # header disagrees with arrays
    ("affine", 3, "dim 0", 3),
    ("affine", 4, "seed x", 4),
    ("affine", 9, "1 2", 9),                     # short row
    ("affine", 12, "foo 1 2", 12),               # non-numeric entry
    ("affine", 16, "nan 1 2", 16),               # non-finite entries
    ("affine", 20, "1 inf 2", 20),
    ("affine", 5, "skew_fraction nan", 5),
    ("affine", 14, None, 14),                    # truncated file
    ("saddle", 3, "m 7", 8),
    ("saddle", 4, "n 2", 8),
    ("saddle", 8, "matrix K 2", 8),
    ("saddle", 10, "1 2 bar", 10),
    ("saddle", 12, "-inf 0", 12),
    ("saddle", 7, "radius", 7),
    ("saddle", 13, None, 13),                    # no y_plant
    ("saddle", 13, "end", 13),                   # the layout before y_plant
], ids=lambda v: str(v).replace(" ", "_"))
def test_load_malformed_file_names_the_line(tmp_path, kind, lineno, text,
                                            named):
    inst = (make_affine_instance(3, 4, 0.8) if kind == "affine"
            else make_saddle_instance(2, 3, 5, 0.25, 1.0))
    with pytest.raises(OperatorError, match=rf", line {named}: "):
        load_instance(_corrupt(tmp_path, inst, lineno, text))


def test_saddle_file_needs_its_plant(tmp_path):
    # every saddle file stores y_plant: one without a plant is not written
    inst = make_saddle_instance(2, 3, 5, 0.25, 1.0)
    bare = SaddleInstance(K=inst.K, c=inst.c, alpha=inst.alpha,
                          radius=inst.radius, m=2, n=3, seed=5)
    with pytest.raises(OperatorError, match="y_plant"):
        save_instance(bare, tmp_path / "bare.txt")
    assert not (tmp_path / "bare.txt").exists()
    # a plant that the stored c was not planted at is no zero
    moved = _corrupt(tmp_path, inst, 14, "1 1")
    with pytest.raises(OperatorError, match="x_star residual"):
        load_instance(moved).triple()
