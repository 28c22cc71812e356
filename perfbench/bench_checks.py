"""Correctness checks applied to the output of every timed operation.

Each check returns a list of failure messages; an empty list means the
output is correct.  The ground truth comes from outside the code under
test where it can: the affine solution is verified against the summed
affine map, recorded trajectories must satisfy the paper's per-iteration
lemma and Lyapunov descent, and CLI artifacts must repeat byte for byte.
"""

import hashlib
import json
import os

import numpy as np

#: Exact oracle counters of a run of ``it`` iterations started from z0 with
#: the default history: (forward evaluations, resolvent evaluations).
COUNTERS = {
    "BFoRB": lambda it: (it + 1, 2 * it + 1),
    "BRFoB": lambda it: (it, 2 * it + 1),
    "FRDR": lambda it: (it + 1, 2 * it),
}

#: Accuracy demanded of a converged affine solve, relative to 1 + |x*|.
ACCURACY = 1e-6

#: Relative agreement demanded between certify_trace and the public per-k
#: certificate functions.
CERT_AGREEMENT = 1e-9


def check_counters(label, method, iterations, forward_evals, resolvent_evals):
    want = COUNTERS[method](iterations)
    got = (forward_evals, resolvent_evals)
    if got != want:
        return [f"{label}: counters (forward, resolvent) = {got}, "
                f"expected {want} for {iterations} iterations"]
    return []


def check_trace(label, trace, budget, fixed_length=False):
    """Status, exact counters, series lengths and finiteness of one run.

    A solve must converge within ``budget``.  A fixed-length run
    (``fixed_length=True``, run with a tolerance no step can meet) must
    take all ``budget`` iterations, or stop early only on an exactly zero
    step, i.e. at a floating-point fixed point.
    """
    errs = []
    method = trace.method.value
    if fixed_length:
        exact_stop = (trace.status == "converged"
                      and trace.step_norms and trace.step_norms[-1] == 0.0)
        if not (exact_stop or (trace.status == "max_iters"
                               and trace.iterations == budget)):
            errs.append(f"{label}: fixed-length run ended {trace.status} "
                        f"after {trace.iterations} of {budget} iterations")
    elif trace.status != "converged" or trace.iterations > budget:
        errs.append(f"{label}: status {trace.status} after "
                    f"{trace.iterations} iterations (budget {budget})")
    errs += check_counters(label, method, trace.iterations,
                           trace.forward_evals, trace.resolvent_evals)
    for name in ("step_norms", "residuals", "dist_to_xstar"):
        series = getattr(trace, name)
        if series is not None and len(series) != trace.iterations:
            errs.append(f"{label}: len({name}) = {len(series)}, "
                        f"expected {trace.iterations}")
    if not (np.all(np.isfinite(trace.x_final))
            and np.all(np.isfinite(trace.z_final))):
        errs.append(f"{label}: non-finite final iterate")
    return errs


def check_close(label, x, x_ref, tol=ACCURACY):
    """``|x - x_ref| <= tol * (1 + |x_ref|)``."""
    gap = float(np.linalg.norm(np.asarray(x) - x_ref))
    bound = tol * (1.0 + float(np.linalg.norm(x_ref)))
    if not gap <= bound:
        return [f"{label}: |x - x_ref| = {gap:.3e} exceeds {bound:.3e}"]
    return []


def check_affine_solution(inst, tol=1e-10):
    """The instance's x_star zeroes the summed affine map."""
    M = inst.M_A + inst.M_B + inst.M_C
    b = inst.b_A + inst.b_B + inst.b_C
    resid = float(np.linalg.norm(M @ inst.x_star + b))
    bound = tol * (1.0 + float(np.linalg.norm(b)))
    if not resid <= bound:
        return [f"affine seed {inst.seed}: x_star residual {resid:.3e} "
                f"exceeds {bound:.3e}"]
    return []


def certificate_gate(summary, z0):
    """Pass/fail of a certificate summary at the CLI's gate tolerances."""
    lemma_tol = 1e-9 * (1.0 + float(np.dot(z0, z0)))
    phi_tol = 1e-9 * (1.0 + max(summary["phi0"], 0.0))
    return {
        "lemma_ok": summary["min_lemma_slack"] >= -lemma_tol,
        "descent_ok": summary["max_descent_violation"] <= phi_tol,
        "lower_bound_ok": summary["max_lower_bound_violation"] <= phi_tol,
    }


def check_certificate(label, report, trace, z0):
    """Gates hold and every recorded step was evaluated."""
    errs = [f"{label}: certificate gate {k} failed"
            for k, ok in certificate_gate(report.summary, z0).items()
            if not ok]
    if report.summary["k_evaluated"] != trace.iterations:
        errs.append(f"{label}: k_evaluated {report.summary['k_evaluated']} "
                    f"!= trace length {trace.iterations}")
    return errs


def certificate_samples(sk, problem, trace, ks):
    """Lemma slack and phi at indices ``ks`` from the public functions."""
    lam, L = trace.lam, problem.B.lipschitz
    ref = sk.reference_point(problem, lam)
    z, y = trace.z_at, trace.y_at
    out = {}
    for k in ks:
        if trace.method.value == "BFoRB":
            slack = sk.lemma_bforb_slack(problem, ref, lam, z(k), z(k + 1),
                                         y(k), y(k - 1), y(k - 2))
            phi = sk.phi_bforb(problem, ref, lam, L, z(k), z(k - 1),
                               z(k - 2), y(k - 1), y(k - 2))
        else:
            slack = sk.lemma_brfob_slack(problem, ref, lam, z(k + 1), z(k),
                                         z(k - 1), y(k), y(k - 1), y(k - 2),
                                         y(k - 3))
            phi = sk.phi_brfob(problem, ref, lam, L, z(k), z(k - 1),
                               z(k - 2), z(k - 3), y(k - 1), y(k - 2),
                               y(k - 3))
        out[k] = (slack, phi)
    return out


def check_certificate_samples(label, report, samples, tol=CERT_AGREEMENT):
    errs = []
    for k, (slack, phi) in samples.items():
        for name, got, want in (("lemma_slack", report.lemma_slacks[k], slack),
                                ("phi", report.phi[k], phi)):
            scale = max(abs(got), abs(want))
            if not abs(got - want) <= tol * scale:
                errs.append(f"{label}: {name}[{k}] = {got!r}, public "
                            f"function gives {want!r}")
    return errs


def check_nonincreasing(label, steps, rel=1e-9):
    """Step norms of an Euler (Krasnoselskii-Mann) flow never grow.

    Each Euler step of the Douglas-Rachford flow with ``h_ode <= 1`` is a
    relaxed step of a nonexpansive map, so its step norms are
    nonincreasing.  Growth beyond rounding, ``rel`` of the current step
    plus ``rel * 1e-5`` of the largest, is a failure.
    """
    floor = rel * 1e-5 * max(steps, default=0.0)
    for j in range(len(steps) - 1):
        if not steps[j + 1] <= steps[j] * (1.0 + rel) + floor:
            return [f"{label}: step norm grows at row {j + 2}: "
                    f"{steps[j]!r} -> {steps[j + 1]!r}"]
    return []


def read_rows(path):
    """Comma-split data rows of a CSV artifact, header dropped."""
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def check_file_set(label, names, expected):
    """A verb wrote exactly the ``expected`` files, no fewer, no more."""
    errs = [f"{label}: missing {n}" for n in sorted(set(expected) - names)]
    errs += [f"{label}: unexpected {n}" for n in sorted(names - set(expected))]
    return errs


def check_run_outputs(label, out_dir, methods, x_star):
    """Artifacts of ``run`` with ``certify = true``.

    Each method writes a trace CSV, a certificate CSV and a summary JSON
    sharing one stem, and nothing else is written.  The summary reports
    ``converged``, exact counters and true certificate gates; both CSVs
    have one row per iteration; the trace ends within ACCURACY of
    ``x_star``.  Returns ``(errors, iterations)``.
    """
    names = set(os.listdir(out_dir))
    bound = ACCURACY * (1.0 + float(np.linalg.norm(x_star)))
    errs, expected, iterations = [], [], 0
    for method in methods:
        summaries = sorted(n for n in names if f"__{method}__lam" in n
                           and n.endswith("__summary.json"))
        if len(summaries) != 1:
            errs.append(f"{label}: {len(summaries)} {method} summaries")
            continue
        stem = summaries[0][:-len("__summary.json")]
        expected += [stem + ".csv", stem + "__certificate.csv",
                     summaries[0]]
        with open(os.path.join(out_dir, summaries[0])) as fh:
            s = json.load(fh)
        it = s["iterations"]
        iterations += it
        if s["method"] != method or s["status"] != "converged":
            errs.append(f"{label}: {summaries[0]} reports {s['method']} "
                        f"{s['status']}")
        errs += check_counters(f"{label} {summaries[0]}", method, it,
                               s["forward_evals"], s["resolvent_evals"])
        cert = s.get("certificate", {})
        errs += [f"{label}: {summaries[0]} gate {gate} not true"
                 for gate in ("lemma_ok", "descent_ok", "lower_bound_ok")
                 if cert.get(gate) is not True]
        if cert.get("k_evaluated") != it:
            errs.append(f"{label}: {summaries[0]} certified "
                        f"{cert.get('k_evaluated')} of {it} iterations")
        for suffix in (".csv", "__certificate.csv"):
            path = os.path.join(out_dir, stem + suffix)
            rows = read_rows(path) if os.path.isfile(path) else []
            if len(rows) != it:
                errs.append(f"{label}: {stem + suffix} has {len(rows)} "
                            f"rows, expected {it}")
            elif suffix == ".csv" and not float(rows[-1][-1]) <= bound:
                errs.append(f"{label}: {stem}.csv ends {float(rows[-1][-1]):.3e}"
                            f" from x_star (bound {bound:.3e})")
    return errs + check_file_set(label, names, expected), iterations


def check_sweep_outputs(label, out_dir, methods, grid):
    """Artifacts of ``sweep``: one table, one converged row per (method,
    grid fraction) in that order.  Returns ``(errors, iterations)``."""
    names = set(os.listdir(out_dir))
    tables = sorted(n for n in names if n.endswith("__sweep.csv"))
    if len(tables) != 1:
        return [f"{label}: {len(tables)} sweep tables"], 0
    errs = check_file_set(label, names, tables)
    rows = read_rows(os.path.join(out_dir, tables[0]))
    got = [(r[0], float(r[1])) for r in rows]
    want = [(m, frac) for m in methods for frac in grid]
    if got != want:
        errs.append(f"{label}: sweep rows {got}, expected {want}")
    errs += [f"{label}: sweep row {r} not converged"
             for r in rows if r[3] != "converged"]
    return errs, sum(int(r[4]) for r in rows)


def check_flow_outputs(label, out_dir, h_ode, T):
    """Artifacts of ``flow`` (DR): one trajectory with a row per Euler
    step from t = 0 to t = T, whose step norms never grow."""
    names = set(os.listdir(out_dir))
    flows = sorted(n for n in names if n.endswith("__dr-flow.csv"))
    if len(flows) != 1:
        return [f"{label}: {len(flows)} flow trajectories"]
    errs = check_file_set(label, names, flows)
    rows = read_rows(os.path.join(out_dir, flows[0]))
    n_steps = int(round(T / h_ode))
    if len(rows) != n_steps + 1:
        return errs + [f"{label}: {flows[0]} has {len(rows)} rows, "
                       f"expected {n_steps + 1}"]
    if float(rows[0][0]) != 0.0 or abs(float(rows[-1][0]) - T) > 1e-9 * T:
        errs.append(f"{label}: {flows[0]} spans t = {rows[0][0]} to "
                    f"{rows[-1][0]}, expected 0 to {T}")
    return errs + check_nonincreasing(f"{label} {flows[0]}",
                                      [float(r[1]) for r in rows[1:]])


def hash_tree(root):
    """sha256 and size of every file below ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fname in files:
            path = os.path.join(dirpath, fname)
            with open(path, "rb") as fh:
                data = fh.read()
            out[os.path.relpath(path, root)] = (
                hashlib.sha256(data).hexdigest(), len(data))
    return out


def check_artifacts(label, hashes, reference):
    """Every artifact repeats the reference pass byte for byte."""
    if reference is None:
        return []
    errs = []
    for name in sorted(set(hashes) | set(reference)):
        if hashes.get(name) != reference.get(name):
            errs.append(f"{label}: artifact {name} differs from the "
                        "first pass")
    return errs
