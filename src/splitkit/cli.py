"""Config-driven experiment runner.

Verbs: ``run`` (methods on an instance, traces + summaries), ``sweep``
(stepsize grid), ``certify`` (inequality certificates along recorded runs)
and ``flow`` (continuous-time simulation).  Configs are flat key-value text
with ``[section]`` headers; unknown keys are rejected with line references.
All artifacts are written with fixed 17-significant-digit formatting, so
re-running a config byte-reproduces them.
"""

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

# Unused here; kept because perfbench/bench_trace.py patches it in this module.
from .certificates import (CertificateError, GroundTruthError, certify_trace,
                           omega_residual)  # noqa: F401
from .dynamics import simulate_dr_flow, simulate_ppa
from .operators import OperatorError
from .problems import (load_instance, make_affine_instance,
                       make_saddle_instance)
from .solvers import (Method, NOT_GUARANTEED, SolverConfig, SolverError,
                      max_stepsize, run)

_FMT = "%.17g"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Config text failed validation; carries (line, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(f"line {ln}: {msg}" if ln else msg
                          for ln, msg in self.errors)
        super().__init__(lines)


@dataclass
class ExperimentConfig:
    """Validated contents of a config file."""

    problem_kind: str
    problem_params: dict
    methods: list
    lam_policy: str            # "absolute" or "fraction"
    lam_value: float
    gamma: float = None
    h: float = 1.0
    max_iters: int = 100000
    tol: float = 1e-9
    certify: bool = False
    out: str = None
    z0_kind: str = "ones"
    ode: dict = None


_PROBLEM_KEYS = {
    "affine": {"kind", "dim", "seed", "skew_fraction"},
    "saddle": {"kind", "m", "n", "seed", "alpha", "radius"},
    "file": {"kind", "path"},
}
_RUN_KEYS = {"methods", "lambda", "lambda_fraction", "gamma", "h",
             "max_iters", "tol", "certify", "out", "z0"}
_ODE_KEYS = {"lambda", "h_ode", "T", "flow"}

#: Methods for which a stepsize fraction is meaningful.
_BOUNDED = {Method.BFORB, Method.BRFOB, Method.FORB, Method.FRDR}


def _parse_sections(text, errors):
    """Split config text into {section: {key: (value, line)}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("problem", "run", "ode"):
                errors.append((lineno, f"unknown section [{name}]"))
                current = None
            else:
                current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        if current is None:
            errors.append((lineno, "key outside of a known section"))
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in current:
            errors.append((lineno, f"duplicate key {key!r}"))
        current[key] = (value, lineno)
    return sections


def _take(section, key, conv, errors, default=None, required=False):
    if key not in section:
        if required:
            errors.append((None, f"missing required key {key!r}"))
        return default
    value, lineno = section[key]
    try:
        return conv(value)
    except (TypeError, ValueError):
        errors.append((lineno, f"cannot parse {key} = {value!r}"))
        return default


def _bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(s)


def parse_config(text):
    """Parse and validate config text; raises :class:`ConfigError` on failure."""
    errors = []
    sections = _parse_sections(text, errors)

    if "problem" not in sections:
        errors.append((None, "missing [problem] section"))
    if "run" not in sections:
        errors.append((None, "missing [run] section"))
    if errors:
        raise ConfigError(errors)

    prob = sections["problem"]
    kind = _take(prob, "kind", str, errors, required=True)
    params = {}
    if kind not in _PROBLEM_KEYS:
        errors.append((prob["kind"][1] if "kind" in prob else None,
                       f"unknown problem kind {kind!r}"))
    else:
        allowed = _PROBLEM_KEYS[kind]
        for key, (value, lineno) in prob.items():
            if key not in allowed:
                errors.append((lineno, f"unknown key {key!r} for {kind} problem"))
        if kind == "affine":
            params["dim"] = _take(prob, "dim", int, errors, required=True)
            params["seed"] = _take(prob, "seed", int, errors, required=True)
            params["skew_fraction"] = _take(prob, "skew_fraction", float,
                                            errors, default=0.8)
        elif kind == "saddle":
            params["m"] = _take(prob, "m", int, errors, required=True)
            params["n"] = _take(prob, "n", int, errors, required=True)
            params["seed"] = _take(prob, "seed", int, errors, required=True)
            params["alpha"] = _take(prob, "alpha", float, errors, required=True)
            params["radius"] = _take(prob, "radius", float, errors,
                                     required=True)
        else:
            params["path"] = _take(prob, "path", str, errors, required=True)

    runsec = sections["run"]
    for key, (value, lineno) in runsec.items():
        if key not in _RUN_KEYS:
            errors.append((lineno, f"unknown key {key!r} in [run]"))

    methods = []
    raw_methods = _take(runsec, "methods", str, errors, required=True)
    if raw_methods:
        for token in raw_methods.replace(",", " ").split():
            try:
                methods.append(Method(token))
            except ValueError:
                errors.append((runsec["methods"][1],
                               f"unknown method {token!r}"))

    has_abs = "lambda" in runsec
    has_frac = "lambda_fraction" in runsec
    if has_abs == has_frac:
        errors.append((None,
                       "exactly one of 'lambda' and 'lambda_fraction' required"))
    lam_policy = "absolute" if has_abs else "fraction"
    lam_value = _take(runsec, "lambda" if has_abs else "lambda_fraction",
                      float, errors, default=0.0)
    if lam_value is not None and lam_value <= 0:
        errors.append((None, "the stepsize value must be positive"))
    if lam_policy == "fraction":
        for m in methods:
            if m not in _BOUNDED:
                errors.append((None,
                               f"lambda_fraction is undefined for {m.value}: "
                               "no guaranteed stepsize interval"))

    gamma = _take(runsec, "gamma", float, errors)
    if Method.FRDR in methods and gamma is None:
        errors.append((None, "method FRDR requires key 'gamma'"))
    if gamma is not None and Method.FRDR not in methods:
        errors.append((runsec["gamma"][1], "gamma is only used by FRDR"))

    h = _take(runsec, "h", float, errors, default=1.0)
    if h is not None and not 0.0 < h <= 1.0:
        errors.append((runsec["h"][1] if "h" in runsec else None,
                       "h must lie in (0, 1]"))

    cfg = ExperimentConfig(
        problem_kind=kind, problem_params=params, methods=methods,
        lam_policy=lam_policy, lam_value=lam_value, gamma=gamma, h=h,
        max_iters=_take(runsec, "max_iters", int, errors, default=100000),
        tol=_take(runsec, "tol", float, errors, default=1e-9),
        certify=_take(runsec, "certify", _bool, errors, default=False),
        out=_take(runsec, "out", str, errors),
        z0_kind=_take(runsec, "z0", str, errors, default="ones"))
    if cfg.z0_kind not in ("ones", "zeros"):
        errors.append((runsec["z0"][1] if "z0" in runsec else None,
                       f"z0 must be 'ones' or 'zeros', got {cfg.z0_kind!r}"))
    if cfg.max_iters is not None and cfg.max_iters < 1:
        errors.append((None, "max_iters must be positive"))
    if cfg.tol is not None and cfg.tol <= 0:
        errors.append((None, "tol must be positive"))

    if "ode" in sections:
        ode = sections["ode"]
        for key, (value, lineno) in ode.items():
            if key not in _ODE_KEYS:
                errors.append((lineno, f"unknown key {key!r} in [ode]"))
        cfg.ode = {
            "lambda": _take(ode, "lambda", float, errors, required=True),
            "h_ode": _take(ode, "h_ode", float, errors, required=True),
            "T": _take(ode, "T", float, errors, required=True),
            "flow": _take(ode, "flow", str, errors, default="dr"),
        }
        if cfg.ode["flow"] not in ("dr", "ppa"):
            errors.append((ode["flow"][1] if "flow" in ode else None,
                           "flow must be 'dr' or 'ppa'"))

    if errors:
        raise ConfigError(errors)
    return cfg


def build_problem(cfg, seed_override=None):
    """Instantiate the configured problem; returns (problem_id, triple, inst)."""
    kind, p = cfg.problem_kind, dict(cfg.problem_params)
    if seed_override is not None and "seed" in p:
        p["seed"] = seed_override
    if kind == "affine":
        inst = make_affine_instance(p["dim"], p["seed"], p["skew_fraction"])
        pid = f"affine-d{p['dim']}-s{p['seed']}"
    elif kind == "saddle":
        inst = make_saddle_instance(p["m"], p["n"], p["seed"], p["alpha"],
                                    p["radius"])
        pid = f"saddle-m{p['m']}-n{p['n']}-s{p['seed']}"
    else:
        inst = load_instance(p["path"])
        pid = os.path.splitext(os.path.basename(p["path"]))[0]
    return pid, inst.triple(), inst


def _resolve_lambda(cfg, method, L):
    if cfg.lam_policy == "absolute":
        return cfg.lam_value
    gamma = cfg.gamma if method is Method.FRDR else None
    bound = max_stepsize(method, L, gamma)
    if bound is NOT_GUARANTEED:
        raise SolverError(
            f"no stepsize bound for {method.value}; use an absolute lambda")
    return cfg.lam_value * bound


def _initial_point(cfg, dim):
    return np.ones(dim) if cfg.z0_kind == "ones" else np.zeros(dim)


def _solver_config(cfg, method, lam, dim):
    return SolverConfig(
        method=method, lam=lam, z0=_initial_point(cfg, dim),
        max_iters=cfg.max_iters, tol=cfg.tol,
        gamma=cfg.gamma if method is Method.FRDR else None,
        h=cfg.h if method in (Method.FORB, Method.RFOB) else 1.0)


def _artifact_stem(pid, method, lam):
    return f"{pid}__{method.value}__lam{lam:.10g}"


def _write_csv(path, key, keys, columns):
    """Write a CSV: a ``key`` column of ``keys``, then one column per entry
    of ``columns`` (name -> floats, in order), all formatted with ``_FMT``
    (which prints an integer key as ``str`` does)."""
    row = ",".join([_FMT] * (1 + len(columns))) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([key, *columns]) + "\n")
        fh.writelines(row % values for values in zip(keys, *columns.values()))


def _series(step_norms, residuals, dists=None):
    """Columns of a trace or flow CSV; ``dist_to_xstar`` only when given."""
    columns = {"step_norm": step_norms, "omega_residual": residuals}
    if dists is not None:
        columns["dist_to_xstar"] = dists
    return columns


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite_or_none(x):
    return float(x) if x is not None and np.isfinite(x) else None


def _trace_summary(trace):
    return {
        "method": trace.method.value,
        "lambda": trace.lam,
        "gamma": trace.gamma,
        "h": trace.h,
        "status": trace.status,
        "iterations": trace.iterations,
        "forward_evals": trace.forward_evals,
        "resolvent_evals": trace.resolvent_evals,
        "warnings": trace.warnings,
        "terminal_step_norm":
            _finite_or_none(trace.step_norms[-1] if trace.step_norms else None),
        "terminal_residual":
            _finite_or_none(trace.residuals[-1] if trace.residuals else None),
    }


def _certify(problem, trace, cfg, out_dir, stem):
    """Certify ``trace``, write its certificate CSV, return summary + gates.

    The gates are pass/fail booleans at the documented tolerances.
    """
    report = certify_trace(problem, trace)
    n = report.lemma_slacks.shape[0]
    _write_csv(os.path.join(out_dir, stem + "__certificate.csv"), "k",
               range(n), {
                   "lemma_slack": report.lemma_slacks,
                   "phi": report.phi,
                   "descent_violation": report.descent_violations,
                   "telescope_violation": report.telescope_violations,
                   "lower_bound_violation": report.lower_bound_violations})
    s = dict(report.summary)
    z0 = _initial_point(cfg, problem.dim)
    s["lemma_tol"] = 1e-9 * (1.0 + float(np.dot(z0, z0)))
    s["phi_tol"] = 1e-9 * (1.0 + max(s["phi0"], 0.0))
    s["lemma_ok"] = s["min_lemma_slack"] >= -s["lemma_tol"]
    s["descent_ok"] = s["max_descent_violation"] <= s["phi_tol"]
    s["lower_bound_ok"] = s["max_lower_bound_violation"] <= s["phi_tol"]
    return s


def _threads():
    """Worker count from ``SPLITKIT_THREADS`` (default 1)."""
    raw = os.environ.get("SPLITKIT_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError([(None, "SPLITKIT_THREADS must be a positive "
                                  f"integer, got {raw!r}")])
    return n


def _say(quiet, msg):
    if not quiet:
        print(msg)


def cmd_run(cfg, out_dir, quiet=False, seed_override=None):
    """Run every configured method; write traces, summaries, certificates."""
    pool = _threads()
    pid, problem, _ = build_problem(cfg, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    L = problem.B.lipschitz

    def one(method):
        lam = _resolve_lambda(cfg, method, L)
        sc = _solver_config(cfg, method, lam, problem.dim)
        trace = run(problem, sc, record_history=cfg.certify)
        return method, lam, trace

    if pool > 1 and len(cfg.methods) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=pool) as ex:
            results = list(ex.map(one, cfg.methods))
    else:
        results = [one(m) for m in cfg.methods]

    all_converged = True
    for method, lam, trace in results:
        stem = _artifact_stem(pid, method, lam)
        _write_csv(os.path.join(out_dir, stem + ".csv"), "k",
                   range(trace.iterations),
                   _series(trace.step_norms, trace.residuals,
                           trace.dist_to_xstar))
        summary = _trace_summary(trace)
        if cfg.certify:
            summary["certificate"] = _certify(problem, trace, cfg, out_dir,
                                              stem)
        _write_json(os.path.join(out_dir, stem + "__summary.json"), summary)
        res = summary["terminal_residual"]
        _say(quiet, f"{pid} {method.value}: {trace.status} "
                    f"after {trace.iterations} iterations "
                    f"(residual {'n/a' if res is None else format(res, '.3e')})")
        if trace.status != "converged":
            all_converged = False
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_sweep(cfg, grid, out_dir, quiet=False, seed_override=None):
    """One run per (method, stepsize fraction); writes a sweep table."""
    if not grid:
        raise ConfigError([(None, "sweep requires a non-empty --grid")])
    pid, problem, _ = build_problem(cfg, seed_override)
    os.makedirs(out_dir, exist_ok=True)
    L = problem.B.lipschitz

    rows = []
    all_converged = True
    for method in cfg.methods:
        gamma = cfg.gamma if method is Method.FRDR else None
        bound = max_stepsize(method, L, gamma)
        if bound is NOT_GUARANTEED:
            raise SolverError(
                f"no stepsize bound for {method.value}; sweep is undefined")
        for frac in grid:
            lam = frac * bound
            sc = _solver_config(cfg, method, lam, problem.dim)
            trace = run(problem, sc)
            marker = (str(trace.iterations) if trace.status == "converged"
                      else trace.status)
            rows.append((method.value, frac, lam, trace.status,
                         trace.iterations, marker))
            if trace.status != "converged":
                all_converged = False
            _say(quiet, f"{pid} {method.value} frac={frac:g}: {marker}")

    path = os.path.join(out_dir, f"{pid}__sweep.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("method,fraction,lambda,status,iterations,iters_to_tol\n")
        for m, frac, lam, status, iters, marker in rows:
            fh.write(f"{m},{_FMT % frac},{_FMT % lam},{status},{iters},"
                     f"{marker}\n")
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_certify(cfg, out_dir, quiet=False, seed_override=None):
    """Certificate runs: inequality slacks, Lyapunov descent, lower bounds."""
    pid, problem, _ = build_problem(cfg, seed_override)
    if problem.x_star is None and problem.z_star is None:
        raise GroundTruthError(
            f"problem {pid} has no ground truth; certificates need an "
            "affine instance (or a stored reference point)")
    os.makedirs(out_dir, exist_ok=True)
    L = problem.B.lipschitz

    ok = True
    for method in cfg.methods:
        lam = _resolve_lambda(cfg, method, L)
        sc = _solver_config(cfg, method, lam, problem.dim)
        trace = run(problem, sc, record_history=True)
        stem = _artifact_stem(pid, method, lam)
        payload = _certify(problem, trace, cfg, out_dir, stem)
        payload["status"] = trace.status
        payload["iterations"] = trace.iterations
        _write_json(os.path.join(out_dir, stem + "__certificate.json"),
                    payload)
        good = (payload["lemma_ok"] and payload["descent_ok"]
                and payload["lower_bound_ok"])
        ok = ok and good
        _say(quiet, f"{pid} {method.value}: certificate "
                    f"{'ok' if good else 'VIOLATED'} "
                    f"(min slack {payload['min_lemma_slack']:.3e}, "
                    f"max descent violation "
                    f"{payload['max_descent_violation']:.3e})")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_flow(cfg, out_dir, quiet=False, seed_override=None):
    """Simulate the configured continuous-time flow and export the trajectory."""
    if cfg.ode is None:
        raise ConfigError([(None, "flow requires an [ode] section")])
    pid, problem, _ = build_problem(cfg, seed_override)
    kind = cfg.ode["flow"]
    simulate = simulate_ppa if kind == "ppa" else simulate_dr_flow
    flow = simulate(problem, cfg.ode["lambda"], cfg.ode["h_ode"],
                    cfg.ode["T"], _initial_point(cfg, problem.dim))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"{pid}__{kind}-flow.csv"), "t",
               flow.times, _series(flow.step_norms, flow.residuals,
                                   flow.dist_to_xstar))
    _say(quiet, f"{pid} {kind}-flow: terminal residual "
                f"{flow.residuals[-1]:.3e}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitkit",
        description="Monotone-operator splitting experiment harness.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "certify", "flow"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        if verb == "sweep":
            p.add_argument("--grid", default="",
                           help="comma-separated stepsize fractions")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_config(text)
        out_dir = args.out or cfg.out or "."
        if args.verb == "run":
            return cmd_run(cfg, out_dir, args.quiet, args.seed_override)
        if args.verb == "sweep":
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
            return cmd_sweep(cfg, grid, out_dir, args.quiet,
                             args.seed_override)
        if args.verb == "certify":
            return cmd_certify(cfg, out_dir, args.quiet, args.seed_override)
        return cmd_flow(cfg, out_dir, args.quiet, args.seed_override)
    except ConfigError as exc:
        for ln, msg in exc.errors:
            where = f"line {ln}: " if ln else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, OperatorError, CertificateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
