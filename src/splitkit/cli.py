"""Config-driven experiment runner.

Verbs: ``run`` (methods on an instance, traces + summaries), ``sweep``
(stepsize grid), ``certify`` (``run`` with certificate gates) and ``flow``
(continuous-time simulation).  Configs are flat key-value text with
``[section]`` headers; unknown keys are rejected with line references.
All artifacts are written with fixed 17-significant-digit formatting, so
re-running a config byte-reproduces them.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._text import FMT as _FMT, rows as _rows
# omega_residual is unused here; kept because perfbench/bench_trace.py
# patches it in this module.
from .certificates import (CertificateError, certify_trace,  # noqa: F401
                           omega_residual, reference_point)
from .dynamics import _flow_arrays, simulate_dr_flow, simulate_ppa
from .operators import OperatorError
from .problems import (load_instance, make_affine_instance,
                       make_saddle_instance)
from .solvers import (Method, NOT_GUARANTEED, SolverConfig, SolverError,
                      max_stepsize, run)

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
    """Validated contents of a config file; every default is ``_SCHEMA``'s."""

    problem_kind: str
    problem_params: dict
    methods: list              # None if the config has no [run] section
    lam_policy: str            # "absolute", "fraction", or None if unset
    lam_value: float
    gamma: float
    h: float
    max_iters: int
    tol: float
    certify: bool
    out: str
    z0_kind: str
    ode: dict                  # None if the config has no [ode] section


def _bool(s):
    return {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}[s.lower()]


#: Every config key, ``{section: {key: (conv, default, required)}}``, with
#: one ``[problem]`` sub-table per kind.
_SCHEMA = {
    "problem": {
        "affine": {"dim": (int, None, True), "seed": (int, None, True),
                   "skew_fraction": (float, 0.8, False)},
        "saddle": {"m": (int, None, True), "n": (int, None, True),
                   "seed": (int, None, True), "alpha": (float, None, True),
                   "radius": (float, None, True)},
        "file": {"path": (str, None, True)},
    },
    "run": {"methods": (str, None, True), "lambda": (float, None, False),
            "lambda_fraction": (float, None, False),
            "gamma": (float, None, False), "h": (float, 1.0, False),
            "max_iters": (int, 100000, False), "tol": (float, 1e-9, False),
            "certify": (_bool, False, False), "out": (str, None, False),
            "z0": (str, "ones", False)},
    "ode": {"lambda": (float, None, True), "h_ode": (float, None, True),
            "T": (float, None, True), "flow": (str, "dr", False)},
}

_ONE_LAMBDA = "exactly one of 'lambda' and 'lambda_fraction' required"


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
            current = sections.setdefault(name, {}) if name in _SCHEMA else None
            if current is None:
                errors.append((lineno, f"unknown section [{name}]"))
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


def _convert(section, table, where, errors):
    """Check ``section`` against ``table``; return each key of the table
    converted, or its default when absent or unparsable."""
    for key, (_, lineno) in section.items():
        if key not in table:
            errors.append((lineno, f"unknown key {key!r} {where}"))
    values = {}
    for key, (conv, default, required) in table.items():
        values[key] = default
        if key in section:
            raw, lineno = section[key]
            try:
                values[key] = conv(raw)
            except (TypeError, ValueError, KeyError):
                errors.append((lineno, f"cannot parse {key} = {raw!r}"))
        elif required:
            errors.append((None, f"missing required key {key!r}"))
    return values


def parse_config(text):
    """Parse and validate config text; raises :class:`ConfigError` on failure.

    ``max_iters`` and ``tol`` are checked by ``SolverConfig``.  ``lambda``
    and ``lambda_fraction`` exclude each other; ``run`` and ``certify``
    require one of them.  Only ``flow`` runs without a ``[run]`` section.
    """
    errors = []
    sections = _parse_sections(text, errors)
    if "problem" not in sections:
        errors.append((None, "missing [problem] section"))
    if errors:
        raise ConfigError(errors)

    prob = dict(sections["problem"])
    kind, kind_line = prob.pop("kind", (None, None))
    if kind is None:
        errors.append((None, "missing required key 'kind'"))
    params = {}
    if kind in _SCHEMA["problem"]:
        params = _convert(prob, _SCHEMA["problem"][kind],
                          f"for {kind} problem", errors)
    elif kind is not None:
        errors.append((kind_line, f"unknown problem kind {kind!r}"))

    # Without [run] every key takes its default and no method is named,
    # which only flow accepts: its missing 'methods' is no error.
    has_run, run_keys = "run" in sections, sections.get("run", {})
    line = {key: lineno for key, (_, lineno) in run_keys.items()}
    fields = _convert(run_keys, _SCHEMA["run"], "in [run]",
                      errors if has_run else [])
    tokens = (fields.pop("methods") or "").replace(",", " ").split()
    known = {m.value for m in Method}
    errors += [(line["methods"], f"unknown method {token!r}")
               for token in tokens if token not in known]
    if "methods" in line and not tokens:
        errors.append((line["methods"], "methods must name a method"))
    methods = [Method(token) for token in tokens if token in known]

    lam = {key: fields.pop(key) for key in ("lambda", "lambda_fraction")}
    if "lambda" in line and "lambda_fraction" in line:
        errors.append((None, _ONE_LAMBDA))
    key = next((key for key in lam if key in line), None)
    if lam.get(key) is not None and not 0.0 < lam[key] < math.inf:
        errors.append((line.get(key),
                       "the stepsize value must be positive and finite"))
    if key == "lambda_fraction":
        errors += [(None, f"lambda_fraction is undefined for {m.value}: "
                          "no guaranteed stepsize interval")
                   for m in methods if max_stepsize(
                       m, 1.0, 1.0 if m is Method.FRDR else None)
                   is NOT_GUARANTEED]

    if Method.FRDR in methods and "gamma" not in line:
        errors.append((None, "method FRDR requires key 'gamma'"))
    if "gamma" in line and Method.FRDR not in methods:
        errors.append((line["gamma"], "gamma is only used by FRDR"))
    if not 0.0 < fields["h"] <= 1.0:
        errors.append((line.get("h"), "h must lie in (0, 1]"))
    if "h" in line and not {Method.FORB, Method.RFOB} & set(methods):
        errors.append((line["h"], "h is only used by FoRB and RFoB"))
    fields["z0_kind"] = fields.pop("z0")
    if fields["z0_kind"] not in ("ones", "zeros"):
        errors.append((line.get("z0"), "z0 must be 'ones' or 'zeros', "
                                       f"got {fields['z0_kind']!r}"))

    ode = None
    if "ode" in sections:
        ode = _convert(sections["ode"], _SCHEMA["ode"], "in [ode]", errors)
        if ode["flow"] not in ("dr", "ppa"):
            errors.append((sections["ode"].get("flow", (None, None))[1],
                           "flow must be 'dr' or 'ppa'"))
        for name, top, what in (("lambda", math.inf, "be positive and finite"),
                                ("h_ode", 1.0, "lie in (0, 1]"),
                                ("T", math.inf, "be positive and finite")):
            value = ode[name]
            if value is not None and (not 0.0 < value <= top
                                      or value == math.inf):
                errors.append((sections["ode"][name][1],
                               f"[ode] {name} must {what}"))

    if errors:
        raise ConfigError(errors)
    policy = {"lambda": "absolute", "lambda_fraction": "fraction"}.get(key)
    return ExperimentConfig(kind, params, methods if has_run else None,
                            policy, lam.get(key), ode=ode, **fields)


def build_problem(cfg, seed_override=None):
    """Instantiate the configured problem; returns (problem_id, triple, inst)."""
    kind, p = cfg.problem_kind, dict(cfg.problem_params)
    if seed_override is not None:
        if kind == "file":
            raise ConfigError([(None, "--seed-override does not apply to "
                                      "kind = file: an instance file has no "
                                      "seed to override")])
        p["seed"] = seed_override
    if kind == "file":
        inst = load_instance(p["path"])
        pid = os.path.splitext(os.path.basename(p["path"]))[0]
    elif kind == "affine":
        inst, pid = make_affine_instance(**p), "affine-d{dim}-s{seed}"
    else:
        inst, pid = make_saddle_instance(**p), "saddle-m{m}-n{n}-s{seed}"
    return pid.format(**p), inst.triple(), inst


def _bound(cfg, method, L, otherwise):
    """The method's stepsize bound; ``otherwise`` ends the error if none."""
    bound = max_stepsize(method, L, cfg.gamma if method is Method.FRDR else None)
    if bound is NOT_GUARANTEED:
        raise SolverError(f"no stepsize bound for {method.value}; {otherwise}")
    return bound


def _initial_point(cfg, dim):
    return np.ones(dim) if cfg.z0_kind == "ones" else np.zeros(dim)


def _solver_config(cfg, method, lam, dim):
    return SolverConfig(
        method=method, lam=lam, z0=_initial_point(cfg, dim),
        max_iters=cfg.max_iters, tol=cfg.tol,
        gamma=cfg.gamma if method is Method.FRDR else None,
        h=cfg.h if method in (Method.FORB, Method.RFOB) else 1.0)


def _write_csv(path, key, keys, **columns):
    """Write a CSV: a ``key`` column of ``keys``, then one column per
    keyword whose value is not None (name=floats, in order), each value as
    ``_FMT`` prints it (an integer key as ``str`` does), by the block
    formatter :func:`splitkit._text.rows`.  Raises ``ValueError``, and
    writes nothing, if the columns differ in length."""
    columns = {name: col for name, col in columns.items() if col is not None}
    table = _rows([keys, *columns.values()])
    with open(path, "wb") as fh:
        fh.write((",".join([key, *columns]) + "\n").encode())
        fh.writelines(table)


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _last_finite(series):
    last = series[-1] if len(series) else math.nan
    return float(last) if np.isfinite(last) else None


def _trace_summary(trace):
    summary = {key: getattr(trace, key) for key in (
        "gamma", "h", "status", "iterations", "forward_evals",
        "resolvent_evals", "warnings")}
    summary.update({"method": trace.method.value, "lambda": trace.lam,
                    "terminal_step_norm": _last_finite(trace.step_norms),
                    "terminal_residual": _last_finite(trace.residuals)})
    return summary


#: Each certificate gate: ``(value, tol, sign)``, holding when
#: ``sign * summary[value] <= summary[tol]``.
_GATES = {"lemma_ok": ("min_lemma_slack", "lemma_tol", -1.0),
          "descent_ok": ("max_descent_violation", "phi_tol", 1.0),
          "lower_bound_ok": ("max_lower_bound_violation", "phi_tol", 1.0)}


def _certify(problem, trace, ref, cfg, stem):
    """Certify ``trace`` at its validated reference point ``ref``, write
    its certificate CSV, return the summary plus gates: pass/fail booleans
    at the documented tolerances, or null when a compared value is not
    finite (every such value is null too).

    The CSV has one row per step k -> k+1 of the K steps.  ``phi`` and
    ``lower_bound_violations`` belong to the K+1 iterates, so the row of
    step k carries those of iterate k, and the last iterate's are left
    out; the summary still counts them."""
    report = certify_trace(problem, trace, ref=ref)
    _write_csv(stem + "__certificate.csv", "k",
               range(report.lemma_slacks.shape[0]),
               lemma_slack=report.lemma_slacks, phi=report.phi[:-1],
               descent_violation=report.descent_violations,
               telescope_violation=report.telescope_violations,
               lower_bound_violation=report.lower_bound_violations[:-1])
    s = dict(report.summary)
    z0 = _initial_point(cfg, problem.dim)
    s["lemma_tol"] = 1e-9 * (1.0 + float(np.dot(z0, z0)))
    s["phi_tol"] = 1e-9 * (1.0 + max(s["phi0"], 0.0))
    s = {key: value if not isinstance(value, float) or math.isfinite(value)
         else None for key, value in s.items()}
    for gate, (key, tol, sign) in _GATES.items():
        s[gate] = (None if s[key] is None or s[tol] is None
                   else sign * s[key] <= s[tol])
    return s


def _num(value):
    return "n/a" if value is None else format(value, ".3e")


def _say(quiet, msg):
    if not quiet:
        print(msg)


def _solve(cfg, out_dir, seed_override, jobs, certificates=False,
           diagnostics=True):
    """Validate every ``(method, lam)`` job of ``jobs(L)`` (with
    ``certificates``, also its reference point), then create ``out_dir``;
    returns ``(pid, problem, runs)``, the runs ``(trace, ref)`` in job
    order, each run as it is read, recording its history with
    ``certificates`` and its residual and distance rows with
    ``diagnostics`` (see :func:`run`); ``ref`` is the job's validated
    reference point, or None without ``certificates``."""
    pid, problem, _ = build_problem(cfg, seed_override)
    configs = [_solver_config(cfg, m, lam, problem.dim)
               for m, lam in jobs(problem.B.lipschitz)]
    refs = [reference_point(problem, sc.lam) if certificates else None
            for sc in configs]
    os.makedirs(out_dir, exist_ok=True)
    return pid, problem, ((run(problem, sc, record_history=certificates,
                               diagnostics=diagnostics), ref)
                          for sc, ref in zip(configs, refs))


def cmd_run(cfg, out_dir, quiet=False, seed_override=None, gates=False):
    """Run every configured method; write traces, summaries, certificates.
    With ``gates`` (certify) write only the certificates, from runs that
    evaluate no residual row; exit 0 if and only if every gate holds."""
    if cfg.lam_policy is None:
        raise ConfigError([(None, _ONE_LAMBDA)])
    certificates = gates or cfg.certify
    pid, problem, runs = _solve(cfg, out_dir, seed_override, lambda L: [
        (m, cfg.lam_value if cfg.lam_policy == "absolute" else
         cfg.lam_value * _bound(cfg, m, L, "use an absolute lambda"))
        for m in cfg.methods], certificates, diagnostics=not gates)
    ok = True
    for trace, ref in runs:
        method = trace.method.value
        stem = os.path.join(out_dir, f"{pid}__{method}__lam{trace.lam:.10g}")
        cert = (_certify(problem, trace, ref, cfg, stem) if certificates
                else None)
        if gates:
            cert.update(status=trace.status, iterations=trace.iterations)
            _write_json(stem + "__certificate.json", cert)
            held = [cert[gate] for gate in _GATES]
            good = all(held)
            verdict = ("ok" if good else "VIOLATED" if False in held
                       else "not evaluated")
            msg = (f"certificate {verdict} (min slack "
                   f"{_num(cert['min_lemma_slack'])}, max descent violation "
                   f"{_num(cert['max_descent_violation'])})")
        else:
            _write_csv(stem + ".csv", "k", range(trace.iterations),
                       step_norm=trace.step_norms,
                       omega_residual=trace.residuals,
                       dist_to_xstar=trace.dist_to_xstar)
            summary = _trace_summary(trace)
            if cert is not None:
                summary["certificate"] = cert
            _write_json(stem + "__summary.json", summary)
            good = trace.status == "converged"
            msg = (f"{trace.status} after {trace.iterations} iterations "
                   f"(residual {_num(summary['terminal_residual'])})")
        ok = ok and good
        _say(quiet, f"{pid} {method}: {msg}")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_sweep(cfg, grid, out_dir, quiet=False, seed_override=None):
    """One run per (method, stepsize fraction), evaluating no residual
    row; writes a sweep table."""
    if not grid:
        raise ConfigError([(None, "sweep requires a non-empty --grid")])
    pid, _, runs = _solve(
        cfg, out_dir, seed_override,
        lambda L: [(m, frac * _bound(cfg, m, L, "sweep is undefined"))
                   for m in cfg.methods for frac in grid], diagnostics=False)
    rows = ["method,fraction,lambda,status,iterations,iters_to_tol\n"]
    ok = True
    for (trace, _), frac in zip(runs, list(grid) * len(cfg.methods)):
        method = trace.method.value
        marker = (str(trace.iterations) if trace.status == "converged"
                  else trace.status)
        rows.append(f"{method},{_FMT % frac},{_FMT % trace.lam},"
                    f"{trace.status},{trace.iterations},{marker}\n")
        ok = ok and trace.status == "converged"
        _say(quiet, f"{pid} {method} frac={frac:g}: {marker}")
    with open(os.path.join(out_dir, f"{pid}__sweep.csv"), "w",
              newline="\n") as fh:
        fh.writelines(rows)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_flow(cfg, out_dir, quiet=False, seed_override=None):
    """Check the configured flow, create ``out_dir``, then simulate and
    export the trajectory; name each floating-point kind met on stderr."""
    if cfg.ode is None:
        raise ConfigError([(None, "flow requires an [ode] section")])
    pid, problem, _ = build_problem(cfg, seed_override)
    kind = cfg.ode["flow"]
    simulate = simulate_ppa if kind == "ppa" else simulate_dr_flow
    args = (problem, cfg.ode["lambda"], cfg.ode["h_ode"], cfg.ode["T"],
            _initial_point(cfg, problem.dim))
    _flow_arrays(*args)     # the flow's own checks: an error leaves no --out
    os.makedirs(out_dir, exist_ok=True)
    flow = simulate(*args)
    _write_csv(os.path.join(out_dir, f"{pid}__{kind}-flow.csv"), "t",
               flow.times, step_norm=flow.step_norms,
               omega_residual=flow.residuals, dist_to_xstar=flow.dist_to_xstar)
    _say(quiet, f"{pid} {kind}-flow: terminal residual "
                f"{flow.residuals[-1]:.3e}")
    for warning in flow.warnings:
        print(f"warning: {warning}", file=sys.stderr)
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
        if cfg.methods is None and args.verb != "flow":
            raise ConfigError([(None, "missing [run] section")])
        rest = (args.out or cfg.out or ".", args.quiet, args.seed_override)
        if args.verb == "sweep":
            grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
            return cmd_sweep(cfg, grid, *rest)
        if args.verb == "flow":
            return cmd_flow(cfg, *rest)
        return cmd_run(cfg, *rest, gates=args.verb == "certify")
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
