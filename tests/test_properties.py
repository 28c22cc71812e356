"""Property tests over random monotone instances (d <= 8; flows d <= 20)."""

import dataclasses
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitkit import (AffineOperator, CustomOperator, Method, ProblemTriple,
                      SolverConfig, ZeroOperator, certify_trace,
                      load_instance, make_affine_instance,
                      make_saddle_instance, max_stepsize, omega_residual,
                      reference_point, run, save_instance, simulate_dr_flow,
                      simulate_ppa)
from splitkit.cli import ConfigError, ExperimentConfig, parse_config
from splitkit.operators import NonFiniteError
from splitkit.solvers import TWO_OPERATOR_METHODS, _BLOCK, _precompose
from oracles import composed_run, precomposed_run, residual_map, residual_row
from test_cli import _flow_rows_rowwise
from test_solvers import _assert_trace_is, _custom_triple

PROPERTY = settings(max_examples=50, deadline=None)


@st.composite
def monotone_affine(draw, dim):
    """``M = G G'/dim + s*(S - S')/2`` plus an offset ``b``; M is monotone."""
    unit = st.floats(-1.0, 1.0)
    G = draw(arrays(float, (dim, dim), elements=unit))
    S = draw(arrays(float, (dim, dim), elements=unit))
    s = draw(st.floats(0.0, 2.0))
    b = draw(arrays(float, dim, elements=unit))
    return AffineOperator(G @ G.T / dim + s * 0.5 * (S - S.T), b)


@st.composite
def dr_family_problem(draw):
    dim = draw(st.integers(1, 8))
    problem = ProblemTriple(A=draw(monotone_affine(dim)), B=ZeroOperator(dim),
                            C=draw(monotone_affine(dim)))
    z0 = draw(arrays(float, dim, elements=st.floats(-10.0, 10.0)))
    return problem, z0


@PROPERTY
@given(dr_family_problem(), st.floats(0.01, 10.0))
def test_b_zero_collapses_the_template_to_dr(case, lam):
    # with B = 0 every forward term vanishes: the iterates are DR's, bit for bit
    problem, z0 = case
    zs = {}
    for method in ("DR", "BFoRB", "BRFoB", "DavisYin"):
        zs[method] = run(problem, SolverConfig(
            method=method, lam=lam, z0=z0, max_iters=30, tol=1e-300),
            record_history=True).zs
    for method in ("BFoRB", "BRFoB", "DavisYin"):
        assert len(zs[method]) == len(zs["DR"])
        for a, b in zip(zs["DR"], zs[method]):
            assert np.array_equal(a, b)


@PROPERTY
@given(st.sampled_from(list(Method)), st.floats(0.1, 10.0),
       st.floats(0.01, 10.0),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
def test_overflowing_oracle_ends_the_run_diverged(method, scale, lam, z0):
    # B(v) = sinh(scale*v) overflows long before the iterates pass the
    # divergence bound: the oracle's NonFiniteError ends the run, and run()
    # never raises.  run() also takes, and discards, the steps of its last
    # block after the stop, so the overflows that count are those of the
    # steps of one composed step at a time, which run() must match
    overflowed = []

    def sinh(v):
        out = np.sinh(scale * v)
        overflowed.append(not np.isfinite(out).all())
        return out

    dim = len(z0)
    problem = ProblemTriple(
        A=ZeroOperator(dim), C=ZeroOperator(dim),
        B=CustomOperator(dim, forward=sinh, lipschitz=scale))
    gamma = 2.0 * lam if method is Method.FRDR else None
    config = SolverConfig(method=method, lam=lam, z0=z0, max_iters=100,
                          gamma=gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(problem, config)
        overflowed.clear()
        ref = composed_run(problem, config)
    assert len(trace.step_norms) == len(trace.residuals) == trace.iterations
    assert (trace.status, trace.iterations) == (ref["status"],
                                                ref["iterations"])
    if any(overflowed):
        assert trace.status == "diverged"


#: The faults that run_case draws (None: none); see _faulty.
_FAULTS = [None, None, "row", "step", "scale", "map", "events"]


@st.composite
def run_case(draw):
    """A method, a random monotone affine triple, taken as affine operators
    (the precomposed route, where the method has one) or each behind a
    CustomOperator (the composed route), a config whose ``max_iters``
    lies near a block's end or past the 67-row history buffer's first and
    second doublings, and whose ``tol`` lets some runs converge mid-block,
    and a fault ``(kind, at, q)`` for :func:`_faulty`: a residual oracle
    or a step that raises from row ``at`` of the fault-free run on, a start
    near 1e306 (``"scale"``), a diagonal triple with a large ``B`` and a
    start from 1e300 on, whose diverging states leave the rows ``R p + r``
    of its residual map not finite from some state on, where the composed
    rows raise (``"map"``, run by FRDR, whose rows these are), or oracles
    that fire floating-point events at the calls whose argument's CRC is 0
    modulo ``q``."""
    method = draw(st.sampled_from(list(Method)))
    kind = draw(st.sampled_from(_FAULTS))
    if kind == "map":
        method, eye = Method.FRDR, np.eye(draw(st.integers(1, 3)))
        problem = ProblemTriple(*(AffineOperator(draw(st.floats(*ab)) * eye)
                                  for ab in ((0.0, 2.0), (3.0, 8.0),
                                             (0.0, 2.0))))
    else:
        problem = make_affine_instance(draw(st.integers(1, 5)),
                                       draw(st.integers(0, 2**32 - 1)),
                                       draw(st.floats(0.0, 1.0))).triple()
    if kind in ("row", "step", "events") or draw(st.booleans()):
        problem = _custom_triple(problem)
    lam = draw(st.floats(0.5 if kind == "map" else 0.01, 1.0))
    gamma = (lam * draw(st.floats(1.0, 4.0)) if method is Method.FRDR
             else None)
    max_iters = draw(st.one_of(st.integers(1, 2), st.integers(63, 65),
                               st.integers(127, 131), st.integers(250, 300)))
    z0 = draw(arrays(float, problem.dim, elements=st.floats(-10.0, 10.0)))
    if kind in ("scale", "map"):
        z0 = z0 * draw(st.sampled_from([1e300, 1e305] if kind == "map"
                                       else [1e306, 1e307]))
    fault = (kind, draw(st.sampled_from([0, 1, 2, 62, 63, 64, 65, 128])),
             draw(st.sampled_from([1, 2, 3, 7])))
    return problem, SolverConfig(
        method=method, lam=lam, z0=z0, max_iters=max_iters, gamma=gamma,
        tol=draw(st.sampled_from([1e-300, 1e-10, 1e-6, 1e-3]))), fault


def _faulty(problem, config, fault):
    """``problem`` with the drawn ``fault``: for ``"row"`` its
    ``B.forward_rows``, which only residual rows call, raises
    ``NonFiniteError`` on the ``x`` of each row from row ``at`` of the
    fault-free run on; for ``"step"`` its ``A``'s resolvent raises
    ``ValueError`` on each point from step ``at`` on; for ``"events"`` its
    resolvent of ``A`` divides by zero and its ``B`` takes the square root
    of -1 at the calls whose argument's CRC is 0 modulo ``q``, returning
    their values unchanged.  Other faults change nothing."""
    kind, at, q = fault
    if kind not in ("row", "step", "events"):
        return problem
    two_op = config.method in TWO_OPERATOR_METHODS
    clean = composed_run(problem, config, True, False)
    if kind == "row":     # the rows' x: x_k, or x_{k+1} for FB, FoRB, RFoB
        poison = {x.tobytes() for x in clean["xs"][two_op + at:]}
    else:                 # the steps' points: z_k, or w_k for FRDR
        poison = {z.tobytes() for z in clean.get("zs", [])[
            (config.method is Method.FRDR) + at:]}
    A, B = problem.A, problem.B

    def resolvent(lam, v):
        if kind == "step" and v.tobytes() in poison:
            raise ValueError("step error")
        if kind == "events" and zlib.crc32(v.tobytes()) % q == 0:
            np.divide(1.0, np.zeros(1))
        return A.resolve(lam, v)

    def forward(v):
        if kind == "events" and zlib.crc32(v.tobytes()) % q == 0:
            np.sqrt(-np.ones(1))
        return B.forward(v)

    faulty = ProblemTriple(
        CustomOperator(A.dim, resolvent=resolvent),
        CustomOperator(B.dim, forward=forward, lipschitz=B.lipschitz),
        problem.C, x_star=problem.x_star)
    rows = faulty.B.forward_rows

    def forward_rows(V):
        if kind == "row" and any(v.tobytes() in poison for v in V):
            raise NonFiniteError("residual row")
        return rows(V)

    faulty.B.forward_rows = forward_rows
    return faulty


def _route_cases():
    """BFoRB on one affine triple: the precomposed route, and the composed
    route with each operator behind a CustomOperator."""
    problem = make_affine_instance(4, 3, 0.8).triple()
    config = SolverConfig(
        method="BFoRB", z0=np.ones(4), max_iters=130, tol=1e-10,
        lam=0.9 * max_stepsize("BFoRB", problem.B.lipschitz))
    none = (None, 0, 1)
    return ((problem, config, none),
            (_custom_triple(problem), config, none))


_PRECOMPOSED, _COMPOSED = _route_cases()

#: FRDR from 1e300 on a diagonal triple: the rows R p + r of rows 0-10 are
#: not all finite, so the block takes its composed rows, and row 10's
#: raises: the run ends "diverged" after 11 steps
_MAP_FALLBACK = (
    ProblemTriple(AffineOperator([[0.5]]), AffineOperator([[4.0]]),
                  AffineOperator([[0.5]])),
    SolverConfig(method="FRDR", lam=1.0, gamma=2.0, z0=[1e300],
                 max_iters=200, tol=1e-300), ("map", 0, 1))


@settings(max_examples=300, deadline=None)
@given(run_case(), st.booleans(), st.booleans())
@example(_PRECOMPOSED, False, False)
@example(_PRECOMPOSED, True, False)
@example(_COMPOSED, False, False)
@example(_COMPOSED, True, False)
@example(_MAP_FALLBACK, True, True)
def test_run_is_the_per_step_run_bit_for_bit(case, record, diagnostics):
    # whatever its blocks, its history buffer's doublings, where it stops
    # and its drawn fault, run() is the run of one step at a time in every
    # Trace field, histories included, or raises what that run raises: the
    # precomposed step where run() precomposes, the composed step
    # elsewhere, and the residual and distance rows as documented (those
    # of the residual map in blocks where they are finite, a raising row
    # cutting the run).  Without diagnostics the residual and distance
    # series are None, no row is evaluated, and every other field is that
    # of a run without rows
    problem, config, fault = case
    problem = _faulty(problem, config, fault)
    A_res, C_res = problem.prepare(config.lam)
    if config.method is Method.FRDR:
        C_res = problem.C.prepare(config.gamma)
    lifted = _precompose(config, A_res, problem.B, C_res)
    reference = precomposed_run if lifted else composed_run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ref = reference(problem, config, record, diagnostics)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                run(problem, config, record_history=record,
                    diagnostics=diagnostics)
            return
        trace = run(problem, config, record_history=record,
                    diagnostics=diagnostics)
    if not diagnostics:
        assert trace.residuals is None and trace.dist_to_xstar is None
        del ref["residuals"], ref["dist_to_xstar"]
    _assert_trace_is(trace, ref)
    for name in ("zs", "xs", "ys"):
        series = getattr(trace, name)
        assert (series is None) == (name not in ref)
        if series is not None:
            assert series.dtype == np.float64 and series.ndim == 2
            assert series.flags.c_contiguous and series.flags.owndata


def _assert_lemma_slacks_nonnegative(problem, method, lam):
    trace = run(problem, SolverConfig(method=method, lam=lam,
                                      z0=np.ones(problem.dim), max_iters=40,
                                      tol=1e-300),
                record_history=True)
    report = certify_trace(problem, trace)
    z_ref = reference_point(problem, lam).z
    scale = max(float(np.dot(z - z_ref, z - z_ref)) for z in trace.zs)
    # the first report.warmup steps read the warm-start history (y_-1 =
    # y_-2 = x_0), which no resolvent of C produced, so the lemma's
    # hypotheses start to hold only after them (a run that diverges sooner
    # has nothing to check)
    assert np.all(report.lemma_slacks[report.warmup:] >= -1e-9 * (1.0 + scale))


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.floats(0.1, 3.0), st.sampled_from(["BFoRB", "BRFoB"]))
def test_lemma_slacks_nonnegative_at_any_stepsize(dim, seed, skew, frac,
                                                  method):
    # the per-iteration inequality needs monotonicity only, not the bound
    problem = make_affine_instance(dim, seed, skew).triple()
    # B numerically zero (in d <= 2 the generator's PSD part can clip to
    # 0): 1/(8L) is then astronomically large and the arithmetic at that
    # stepsize overflows, which says nothing about the inequality
    assume(problem.B.lipschitz > 1e-6)
    lam = frac * max_stepsize(method, problem.B.lipschitz)
    _assert_lemma_slacks_nonnegative(problem, method, lam)


@PROPERTY
@given(st.integers(3, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(list(Method)), st.integers(1, 2 * _BLOCK + 2),
       st.floats(0.1, 1.0), st.sampled_from([1e-300, 1e-6]))
def test_residual_and_distance_rows_are_one_point_values(dim, seed, method,
                                                         length, frac, tol):
    # run() evaluates its residual and distance rows per block of steps;
    # each row has the bits of its one point's value, whatever the length,
    # and the series stay lists of floats: |x - x_star|, and the residual
    # map's row for BFoRB, BRFoB and FRDR (within rounding of
    # omega_residual) and omega_residual's for the other methods
    problem = make_affine_instance(dim, seed, 0.8).triple()
    L = problem.B.lipschitz
    gamma = 1.0 / L if method is Method.FRDR else None
    lam = frac * (max_stepsize(method, L, gamma) or max_stepsize("BRFoB", L))
    trace = run(problem, SolverConfig(method=method, lam=lam,
                                      z0=np.ones(dim), max_iters=length,
                                      tol=tol, gamma=gamma),
                record_history=True)
    two_op = method in TWO_OPERATOR_METHODS
    # FB, FoRB and RFoB ignore A: theirs is the residual of B + C at x_{k+1}
    res_problem = ProblemTriple(ZeroOperator(dim), problem.B,
                                problem.C) if two_op else problem
    points = trace.xs[1:] if two_op else trace.zs[method is Method.FRDR:]
    xs = trace.xs[two_op:]
    for series in (trace.residuals, trace.dist_to_xstar):
        assert type(series) is list and len(series) == trace.iterations
        assert all(type(v) is float for v in series)
    omega = (residual_map(problem, lam)
             if method in (Method.BFORB, Method.BRFOB, Method.FRDR) else None)
    for k in range(trace.iterations):
        if method is not Method.DAVIS_YIN:      # its residual is its step
            assert trace.residuals[k] == residual_row(omega, res_problem,
                                                      lam, points[k])
            assert abs(trace.residuals[k] - omega_residual(
                res_problem, lam, points[k])) <= 1e-13 * (
                    1.0 + np.linalg.norm(points[k]))
        assert trace.dist_to_xstar[k] == np.linalg.norm(xs[k]
                                                        - problem.x_star)


@PROPERTY
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0, exclude_min=True), st.floats(1e-3, 10.0),
       st.integers(1, 100), st.sampled_from(["dr", "ppa"]),
       st.floats(-10.0, 10.0))
def test_composed_affine_flow_is_the_resolvent_composition(
        dim, seed, skew, h_ode, lam, steps, kind, z0):
    # an affine triple's Euler step is one precomposed map; with A wrapped
    # as a custom operator the same flow takes the step-by-step resolvent
    # composition.  The states agree to rounding, and the residual and
    # distance rows are those of the states, one at a time.
    problem = make_affine_instance(dim, seed, skew).triple()
    z0 = np.full(dim, z0)
    T = steps * h_ode
    if kind == "dr":
        flow = simulate_dr_flow(problem, lam, h_ode, T, z0)
        J_A = problem.A.prepare(lam)
        A = CustomOperator(dim, resolvent=lambda _, v: J_A(v))
    else:
        flow = simulate_ppa(problem, lam, h_ode, T, z0)
        A = CustomOperator(dim, resolvent=lambda _, v: v)
    composition = simulate_dr_flow(ProblemTriple(A, problem.B, problem.C),
                                   lam, h_ode, T, z0)
    assert len(flow.states) == len(composition.states) == steps + 1
    for z, ref in zip(flow.states, composition.states):
        assert np.max(np.abs(z - ref)) <= 1e-12 * (1.0 + np.linalg.norm(ref))
    series = [flow.times, flow.step_norms, flow.residuals]
    if flow.dist_to_xstar is not None:
        series.append(flow.dist_to_xstar)
    assert [list(row) for row in zip(*series)] == _flow_rows_rowwise(problem,
                                                                     flow)


@PROPERTY
@given(st.integers(1, 20), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.floats(1e-3, 10.0), st.integers(1, 40), st.floats(-10.0, 10.0),
       st.booleans())
def test_dr_flow_at_unit_step_is_the_dr_run_of_a_b_plus_c(
        dim, seed, skew, lam, steps, z0, composed):
    # the paper's discretisation identity: at h_ode = 1 an Euler step of the
    # DR flow of (A, B, C) is a DR step on (A, 0, B + C), on the flow's
    # derived map and, with A wrapped as a custom operator, on its composed
    # step alike
    problem = make_affine_instance(dim, seed, skew).triple()
    z0 = np.full(dim, z0)
    summed = ProblemTriple(problem.A, ZeroOperator(dim), AffineOperator(
        problem.B.M + problem.C.M, problem.B.b + problem.C.b))
    trace = run(summed, SolverConfig(method="DR", lam=lam, z0=z0,
                                     max_iters=steps, tol=1e-300),
                record_history=True)
    if composed:
        J_A = problem.A.prepare(lam)
        A = CustomOperator(dim, resolvent=lambda _, v: J_A(v))
        problem = ProblemTriple(A, problem.B, problem.C)
    flow = simulate_dr_flow(problem, lam, 1.0, float(steps), z0)
    assert len(trace.zs) <= len(flow.states) == steps + 1
    for z, z_run in zip(flow.states, trace.zs):
        assert np.max(np.abs(z - z_run)) <= 1e-12 * (
            1.0 + np.linalg.norm(z_run))


def planted_saddle():
    """A generated saddle instance's triple, which carries the planted zero
    ``x_star`` and ``a_star`` in ``A(x_star)``."""
    return st.builds(make_saddle_instance, m=st.integers(1, 6),
                     n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
                     alpha=st.floats(0.0, 2.0),
                     radius=st.floats(0.1, 10.0)).map(lambda i: i.triple())


@PROPERTY
@given(planted_saddle(), st.floats(0.1, 3.0),
       st.sampled_from(["BFoRB", "BRFoB"]))
def test_lemma_slacks_nonnegative_on_saddle_instances(problem, frac, method):
    # x_star and a_star give the shadow point at any stepsize exactly:
    # z* = x* + lam*a*
    lam = frac * max_stepsize(method, problem.B.lipschitz)
    _assert_lemma_slacks_nonnegative(problem, method, lam)


def _assert_descent_inside_the_bound(problem, method, frac):
    # the gates of a certified CLI run, over 300 steps from z0 = 1
    lam = frac * max_stepsize(method, problem.B.lipschitz)
    trace = run(problem, SolverConfig(method=method, lam=lam,
                                      z0=np.ones(problem.dim), max_iters=300,
                                      tol=1e-300), record_history=True)
    s = certify_trace(problem, trace).summary
    phi_tol = 1e-9 * (1.0 + max(s["phi0"], 0.0))
    assert s["max_descent_violation"] <= phi_tol
    assert s["max_telescope_violation"] <= phi_tol
    assert s["max_lower_bound_violation"] <= phi_tol


@PROPERTY
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.floats(0.01, 0.999), st.sampled_from(["BFoRB", "BRFoB"]))
# a warm-up step that violates descent (0.058 at k = 0) must not reach the
# telescope's summary
@example(dim=2, seed=241, skew=1.0, frac=0.25, method="BRFoB")
def test_descent_inside_the_bound_on_affine_instances(dim, seed, skew, frac,
                                                      method):
    problem = make_affine_instance(dim, seed, skew).triple()
    # the same degenerate generator output as in the lemma property above
    assume(problem.B.lipschitz > 1e-6)
    _assert_descent_inside_the_bound(problem, method, frac)


@PROPERTY
@given(planted_saddle(), st.floats(0.01, 0.999),
       st.sampled_from(["BFoRB", "BRFoB"]))
def test_descent_inside_the_bound_on_saddle_instances(problem, frac, method):
    _assert_descent_inside_the_bound(problem, method, frac)


@st.composite
def a_zero_problem(draw):
    """A = 0 with random monotone affine B and C, a stepsize below 1/L, a
    start and a history point."""
    dim = draw(st.integers(1, 8))
    B, C = draw(monotone_affine(dim)), draw(monotone_affine(dim))
    lam = draw(st.floats(0.01, 1.0)) / (1.0 + B.lipschitz)
    point = arrays(float, dim, elements=st.floats(-10.0, 10.0))
    return (ProblemTriple(A=ZeroOperator(dim), B=B, C=C), lam, draw(point),
            draw(point))


@PROPERTY
@given(a_zero_problem())
# x* = 1 solves B + C: the three-operator runs stop on an exact zero first
# step, while the two-operator ones move by an ulp and run all 30 steps
@example((ProblemTriple(A=ZeroOperator(1), B=AffineOperator([[0.5]], [-1.0]),
                        C=AffineOperator([[1.0]], [-0.5])),
          0.01 / 1.5, np.ones(1), np.ones(1)))
def test_a_zero_reduces_the_template_to_two_operator_methods(case):
    # with J_{lam*A} the identity, z_{k+1} = y_k = x_{k+1}: BFoRB is FoRB
    # (h = 1), BRFoB is RFoB and Davis-Yin is FB, up to rounding
    problem, lam, z0, x_prev = case
    for three, two in (("BFoRB", "FoRB"), ("BRFoB", "RFoB"),
                       ("DavisYin", "FB")):
        history = None if three == "DavisYin" else (z0, x_prev)
        t3, t2 = (run(problem, SolverConfig(
            method=method, lam=lam, z0=z0, y_init=history, max_iters=30,
            tol=1e-300), record_history=True)
            for method in (three, two))
        bound = 1e-12 * (1.0 + max(np.linalg.norm(x) for x in t2.xs))
        drift = max(np.linalg.norm(z - x) for z, x in zip(t3.zs, t2.xs))
        assert drift <= bound
        if len(t3.zs) != len(t2.xs):
            # no tol stops an exact zero step: the run that lands on a fixed
            # point in floats stops there, and the other moves on by ulps
            (short, ts), (longer, _) = sorted(((t3.zs, t3), (t2.xs, t2)),
                                              key=lambda r: len(r[0]))
            assert ts.status == "converged" and ts.step_norms[-1] == 0.0
            assert all(np.linalg.norm(v - short[-1]) <= bound
                       for v in longer[len(short):])


@st.composite
def lifted_case(draw):
    """A random monotone affine triple, a stepsize below 1/(22L + 1), a
    start and a (y_-1, y_-2) history or None."""
    dim = draw(st.integers(1, 8))
    A, B, C = (draw(monotone_affine(dim)) for _ in range(3))
    lam = draw(st.floats(0.01, 1.0)) / (22.0 * B.lipschitz + 1.0)
    point = arrays(float, dim, elements=st.floats(-10.0, 10.0))
    history = draw(st.none() | st.tuples(point, point))
    return ProblemTriple(A, B, C), lam, draw(point), history


@PROPERTY
@given(lifted_case(), st.sampled_from(["BFoRB", "BRFoB", "DavisYin", "FRDR"]))
def test_precomposed_step_is_the_oracle_step_up_to_rounding(case, method):
    # an affine triple runs BFoRB, BRFoB, Davis-Yin and FRDR as one
    # precomposed step, the same triple behind CustomOperator oracles as
    # the composed one: 40 steps agree to rounding, with equal counters; the
    # update identity stays exact, and each residual row is the residual
    # map's row at its point, bit for bit (Davis-Yin: the step norm), and
    # the omega_residual of that point to rounding
    problem, lam, z0, history = case
    frdr, dy = method == "FRDR", method == "DavisYin"
    kwargs = {"gamma": 4.0 * lam} if frdr else {}
    if not (frdr or dy):
        kwargs["y_init"] = history
    config = SolverConfig(method=method, lam=lam, z0=z0, max_iters=40,
                          tol=1e-300, **kwargs)
    lifted, oracle = (run(p, config, record_history=True)
                      for p in (problem, _custom_triple(problem)))
    assert (lifted.status, lifted.iterations) == (oracle.status,
                                                  oracle.iterations)
    assert (lifted.forward_evals, lifted.resolvent_evals) == (
        oracle.forward_evals, oracle.resolvent_evals)
    for series in ("zs", "xs", "ys"):
        a, b = getattr(lifted, series), getattr(oracle, series)
        assert len(a) == len(b)
        for u, v in zip(a, b):
            assert np.linalg.norm(u - v) <= 1e-12 * (1.0 + np.linalg.norm(v))
    zs, xs, ys = lifted.zs, lifted.xs, lifted.ys[lifted.y_offset:]
    # B = 0 (or a map not finite) takes the composed step and rows
    A_res, C_res = problem.prepare(lam)
    omega = residual_map(problem, lam) if _precompose(
        config, A_res, problem.B,
        problem.C.prepare(config.gamma) if frdr else C_res) else None
    for k in range(lifted.iterations):
        point = zs[k + frdr]
        assert lifted.residuals[k] == (
            lifted.step_norms[k] if dy
            else residual_row(omega, problem, lam, point))
        assert abs(omega_residual(problem, lam, point)
                   - lifted.residuals[k]) <= 1e-12 * (
            1.0 + np.linalg.norm(point))
        if not frdr:
            assert np.array_equal(zs[k + 1], zs[k] + ys[k] - xs[k])


instances = st.one_of(
    st.builds(make_affine_instance, dim=st.integers(1, 8),
              seed=st.integers(min_value=0),
              skew_fraction=st.floats(0.0, 1.0)),
    st.builds(make_saddle_instance, m=st.integers(1, 6), n=st.integers(1, 6),
              seed=st.integers(min_value=0), alpha=st.floats(0.0, 1e6),
              radius=st.floats(0.0, 1e6, exclude_min=True)))


@PROPERTY
@given(instances)
def test_instance_file_round_trips(tmp_path_factory, inst):
    # every array and scalar comes back unchanged, and saving what was
    # loaded writes the same bytes
    path = tmp_path_factory.mktemp("inst") / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    for f in dataclasses.fields(inst):
        a, b = getattr(inst, f.name), getattr(back, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    again = path.with_name("again.txt")
    save_instance(back, again)
    assert again.read_bytes() == path.read_bytes()


_SECTIONS = ["problem", "run", "ode", "rust", ""]
_KEYS = ["kind", "dim", "seed", "skew_fraction", "m", "n", "alpha", "radius",
         "path", "methods", "lambda", "lambda_fraction", "gamma", "h",
         "max_iters", "tol", "certify", "out", "z0", "h_ode", "T", "flow",
         "frobnicate", ""]
_VALUES = ["nan", "inf", "-inf", "1e400", "-1e400", "", "abc", "0", "-1", "1",
           "0.5", "1.5", "10", "1e5", "true", "maybe", "affine", "saddle",
           "file", "cube", "BFoRB, BRFoB", "FRDR", "FB", "Bforb", "ones",
           "zeros", "dr", "ppa", "0x10", "1_0", "# comment"]


_VALID = ["[problem]", "kind = affine", "dim = 4", "seed = 1", "[run]",
          "methods = BFoRB", "lambda_fraction = 0.9", "[ode]", "lambda = 0.1",
          "h_ode = 0.1", "T = 1"]


@st.composite
def config_text(draw):
    """A valid config with up to 8 lines replaced, inserted or deleted;
    new lines use known and unknown sections, keys and values."""
    junk = st.text(max_size=8)
    line = st.one_of(
        st.builds("[{}]".format, st.sampled_from(_SECTIONS) | junk),
        st.builds("{} = {}".format, st.sampled_from(_KEYS) | junk,
                  st.sampled_from(_VALUES) | junk),
        junk)
    lines = list(_VALID)
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif edit == "replace":
            lines[i] = draw(line)
        else:
            del lines[i]
    return "\n".join(lines)


@PROPERTY
@given(config_text())
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.errors
    else:
        assert isinstance(cfg, ExperimentConfig)
