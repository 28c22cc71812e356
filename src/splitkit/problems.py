"""Reproducible test instances whose triples carry their ground truth.

Randomness comes from a counter-based generator (Philox) keyed on the
instance seed, so equal parameters give bit-identical instances on every
platform.  Each triple carries a zero ``x_star`` and ``a_star`` in
``A(x_star)``: affine instances solve for ``x_star`` directly, and saddle
instances keep the dual corner ``y_plant`` that their ``c`` was planted at.
Instances store no Lipschitz constant; read ``triple().B.lipschitz``.
"""

from dataclasses import dataclass

import numpy as np

from ._text import FMT, rows
from .operators import (AffineOperator, BilinearCoupling, BoxNormalCone,
                        CustomOperator, OperatorError, ProblemTriple, ScaledL1)

#: Skew fraction mixed into the monotone parts M_A and M_C.
SMALL_SKEW = 0.1


class SingularProblemError(OperatorError):
    """The summed affine system is numerically singular."""


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _psd_part(rng, dim):
    """Symmetric PSD matrix: symmetrized uniform entries, negative spectrum clipped."""
    G = rng.uniform(-1.0, 1.0, size=(dim, dim))
    S = 0.5 * (G + G.T)
    w, V = np.linalg.eigh(S)
    return (V * np.maximum(w, 0.0)) @ V.T


def _skew_part(rng, dim):
    G = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return 0.5 * (G - G.T)


@dataclass
class AffineInstance:
    """A triple of monotone affine maps with a directly solvable zero."""

    M_A: np.ndarray
    M_B: np.ndarray
    M_C: np.ndarray
    b_A: np.ndarray
    b_B: np.ndarray
    b_C: np.ndarray
    x_star: np.ndarray
    seed: int
    dim: int
    skew_fraction: float
    shift: float = 0.0

    def triple(self):
        """Assemble the ProblemTriple (operators validated at construction)."""
        return ProblemTriple(
            A=AffineOperator(self.M_A, self.b_A),
            B=AffineOperator(self.M_B, self.b_B),
            C=AffineOperator(self.M_C, self.b_C),
            x_star=self.x_star)


def solve_affine_direct(inst):
    """Ground-truth zero of the summed affine map by dense solve.

    Solves ``(M_A + M_B + M_C) x = -(b_A + b_B + b_C)`` with one step of
    iterative refinement, and checks the residual against
    ``1e-12 * (1 + |b|)``.

    Raises
    ------
    SingularProblemError
        If the solve fails or the residual check cannot be met.
    """
    M = inst.M_A + inst.M_B + inst.M_C
    b = inst.b_A + inst.b_B + inst.b_C
    try:
        x = np.linalg.solve(M, -b)
        x = x + np.linalg.solve(M, -(b + M @ x))   # one refinement step
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError(f"summed system is singular: {exc}")
    resid = np.linalg.norm(M @ x + b)
    bound = 1e-12 * (1.0 + np.linalg.norm(b))
    if not np.isfinite(resid) or resid > bound:
        raise SingularProblemError(
            f"direct solve residual {resid:.3e} exceeds {bound:.3e}")
    return x


def make_affine_instance(dim, seed, skew_fraction):
    """Random monotone affine instance, deterministic in ``seed``.

    ``M_B = skew_fraction * S + (1 - skew_fraction) * P`` with ``S`` random
    skew and ``P`` random PSD; ``M_A`` and ``M_C`` use the same mix at skew
    fraction :data:`SMALL_SKEW`.  Large ``skew_fraction`` makes ``B``
    non-cocoercive, the regime the reflected methods are built for.  If the
    summed system is singular, a small diagonal shift is added to ``M_A``
    (recorded in the instance) and the solve is retried.
    """
    if dim < 1:
        raise OperatorError("dim must be a positive integer")
    if not 0.0 <= skew_fraction <= 1.0:
        raise OperatorError("skew_fraction must lie in [0, 1]")
    rng = _rng(seed)

    def mix(frac):
        skew = _skew_part(rng, dim)
        psd = _psd_part(rng, dim)
        return frac * skew + (1.0 - frac) * psd

    M_A = mix(SMALL_SKEW)
    M_B = mix(skew_fraction)
    M_C = mix(SMALL_SKEW)
    b_A = rng.uniform(-1.0, 1.0, size=dim)
    b_B = rng.uniform(-1.0, 1.0, size=dim)
    b_C = rng.uniform(-1.0, 1.0, size=dim)

    inst = AffineInstance(
        M_A=M_A, M_B=M_B, M_C=M_C, b_A=b_A, b_B=b_B, b_C=b_C,
        x_star=np.zeros(dim), seed=seed, dim=dim, skew_fraction=skew_fraction)

    shift = 0.0
    for _ in range(60):
        try:
            inst.x_star = solve_affine_direct(inst)
            inst.shift = shift
            return inst
        except SingularProblemError:
            shift = 1e-8 if shift == 0.0 else 2.0 * shift
            inst.M_A = M_A + shift * np.eye(dim)
    raise SingularProblemError(
        f"could not regularize instance (dim={dim}, seed={seed})")


@dataclass
class SaddleInstance:
    """Box-constrained l1 saddle problem with bilinear coupling.

    Encodes  min_x  alpha*|x|_1 + i_{[-R,R]^n}(x) + max_{|y|_inf<=1} <Kx - c, y>
    split as A = (alpha*l1 subdifferential, normal cone of [-1,1]^m),
    B = bilinear coupling of (K, c), C = (normal cone of [-R,R]^n, 0).
    """

    K: np.ndarray
    c: np.ndarray
    alpha: float
    radius: float
    m: int
    n: int
    seed: int
    y_plant: np.ndarray = None

    def triple(self):
        """The ProblemTriple; with ``y_plant`` it carries the planted zero."""
        n, m, R = self.n, self.m, self.radius
        shrink = (ScaledL1(n, self.alpha).resolve if self.alpha != 0
                  else lambda lam, v: v)
        clip = BoxNormalCone(-1.0, 1.0).resolve

        def resolve_A(lam, v):
            return np.concatenate([shrink(lam, v[:n]), clip(lam, v[n:])])

        A = CustomOperator(n + m, resolvent=resolve_A)
        C = BoxNormalCone(np.r_[np.full(n, -R), np.full(m, -np.inf)],
                          np.r_[np.full(n, R), np.full(m, np.inf)])
        B = BilinearCoupling(self.K, self.c)
        plant = (() if self.y_plant is None
                 else _plant(self.K, self.y_plant, self.alpha, R))
        return ProblemTriple(A, B, C, *plant)


def _plant(K, y, alpha, R):
    """The zero ``(x, y)`` planted at the dual corner ``y`` and the ``a``
    in ``A(x, y)`` with ``0 in a + (B + C)(x, y)`` once ``c = Kx - (R/2)y``."""
    g = K.T @ y
    x = np.where(np.abs(g) > alpha, -np.sign(g) * R, 0.0)
    return np.r_[x, y], np.r_[-np.clip(g, -alpha, alpha), (0.5 * R) * y]


def make_saddle_instance(m, n, seed, alpha, radius):
    """Saddle instance whose optimum is strictly complementary.

    ``K`` gets singular values on ``[L/2, L] = [0.5, 1]`` (well conditioned,
    so the bilinear rotation modes are damped at a usable rate), and ``c``
    is chosen so that a planted pair is optimal: every dual coordinate sits
    at a corner ``y_plant`` of its box and every nonzero primal coordinate
    at ``+-radius``.  The instance stores ``y_plant``; its triple carries
    the planted zero ``(x, y_plant)`` as ``x_star`` and the matching
    ``a_star``, the ground truth of distances and certificates.
    """
    if m < 1 or n < 1:
        raise OperatorError("m and n must be positive integers")
    if not 0.0 <= alpha < np.inf:
        raise OperatorError("alpha must be nonnegative and finite")
    if not 0.0 < radius < np.inf:
        raise OperatorError("radius must be positive and finite")
    rng = _rng(seed)
    r = min(m, n)
    U, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(m, r)))
    V, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, size=(n, r)))
    K = (U * np.linspace(0.5, 1.0, r)) @ V.T

    y_plant = np.where(rng.uniform(-1.0, 1.0, size=m) >= 0.0, 1.0, -1.0)
    c = K @ _plant(K, y_plant, alpha, radius)[0][:n] - (0.5 * radius) * y_plant

    return SaddleInstance(
        K=K, c=c, alpha=float(alpha), radius=float(radius),
        m=m, n=n, seed=seed, y_plant=y_plant)


# ---------------------------------------------------------------------------
# Serialization: plain text, matrices row-major after a metadata header.
# Floats use 17 significant digits, which round-trips IEEE doubles exactly.

#: Each kind's file layout: the instance class, the header fields in file
#: order (an integer with its least value, or a float where that is None),
#: and the arrays with the header fields that give their shapes.
_LAYOUT = {
    "affine": (AffineInstance,
               [("dim", 1), ("seed", 0), ("skew_fraction", None),
                ("shift", None)],
               [("M_A", "dim", "dim"), ("M_B", "dim", "dim"),
                ("M_C", "dim", "dim"), ("b_A", "dim"), ("b_B", "dim"),
                ("b_C", "dim"), ("x_star", "dim")]),
    "saddle": (SaddleInstance,
               [("m", 1), ("n", 1), ("seed", 0), ("alpha", None),
                ("radius", None)],
               [("K", "m", "n"), ("c", "m"), ("y_plant", "m")]),
}


def save_instance(inst, path):
    """Write an instance to ``path`` in the replayable text format."""
    kind = next((kind for kind, (cls, *_) in _LAYOUT.items()
                 if isinstance(inst, cls)), None)
    if kind is None:
        raise OperatorError(f"cannot serialize {type(inst).__name__}")
    _, header, arrays = _LAYOUT[kind]
    text = [b"splitkit-instance v1\n", f"kind {kind}\n".encode()]
    for name, least in header:
        value = getattr(inst, name)
        text.append(f"{name} {value if least is not None else FMT % value}\n"
                    .encode())
    for name, *_ in arrays:
        a = getattr(inst, name)
        if a is None:
            raise OperatorError(f"cannot serialize {kind} without {name}")
        text.append(f"{'matrix' if a.ndim == 2 else 'vector'} {name} "
                    f"{' '.join(map(str, a.shape))}\n".encode())
        text += rows(np.atleast_2d(a).T, b" ")
    text.append(b"end\n")
    with open(path, "wb") as fh:
        fh.writelines(text)


class _Reader:
    """Cursor over the lines of an instance file; errors name the line."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.path = path
        self.pos = 0

    def error(self, msg):
        return OperatorError(f"{self.path}, line {self.pos}: {msg}")

    def words(self, head, count):
        """The ``count`` words after the words ``head`` on the next line."""
        self.pos += 1
        if self.pos > len(self.lines):
            raise self.error("unexpected end of instance file")
        words = self.lines[self.pos - 1].split()
        if words[:len(head)] != head or len(words) != len(head) + count:
            want = [repr(" ".join(head))] * bool(head)
            want += [f"{count} value(s)"] * bool(count)
            raise self.error("expected " + " then ".join(want))
        return words[len(head):]

    def floats(self, head, count):
        try:
            values = np.array(self.words(head, count), dtype=float)
        except ValueError:
            raise self.error("entries must be numbers") from None
        if not np.isfinite(values).all():
            raise self.error("entries must be finite")
        return values

    def integer(self, key, least):
        word, = self.words([key], 1)
        try:
            value = int(word)
        except ValueError:
            value = None
        if value is None or value < least:
            raise self.error(f"{key} must be an integer >= {least}")
        return value

    def array(self, name, *shape):
        """A vector or matrix: its header, then one line per row."""
        kind = "matrix" if len(shape) == 2 else "vector"
        self.words([kind, name, *map(str, shape)], 0)
        rows = shape[0] if len(shape) == 2 else 1
        return np.array([self.floats([], shape[-1])
                         for _ in range(rows)]).reshape(shape)


def load_instance(path):
    """Read back an instance written by :func:`save_instance`.

    Raises
    ------
    OperatorError
        Naming the line, if the file is malformed: a short or unknown line,
        an array whose size disagrees with the header, or an entry that is
        not a finite number.
    """
    rd = _Reader(path)
    rd.words(["splitkit-instance", "v1"], 0)
    kind, = rd.words(["kind"], 1)
    if kind not in _LAYOUT:
        raise rd.error(f"unknown instance kind {kind!r}")
    cls, header, arrays = _LAYOUT[kind]
    fields = {name: float(rd.floats([name], 1)[0]) if least is None
              else rd.integer(name, least) for name, least in header}
    for name, *shape in arrays:
        fields[name] = rd.array(name, *(fields[dim] for dim in shape))
    return cls(**fields)
