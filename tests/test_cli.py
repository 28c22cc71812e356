import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import splitkit
import splitkit.cli
from splitkit import (ProblemTriple, ZeroOperator, dynamics,
                      make_affine_instance, omega_residual, save_instance,
                      simulate_dr_flow, simulate_ppa)
from splitkit.cli import (ConfigError, EXIT_CONFIG, EXIT_NOT_CONVERGED,
                          EXIT_OK, build_problem, main, parse_config)
from oracles import residual_map, residual_row

ROOT = os.path.join(os.path.dirname(__file__), "..")

AFFINE_CFG = """\
[problem]
kind = affine
dim = 10
seed = 1
skew_fraction = 0.8

[run]
methods = BFoRB
lambda_fraction = 0.9
max_iters = 20000
tol = 1e-10
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ parsing

def test_parse_minimal_config():
    cfg = parse_config(AFFINE_CFG)
    assert cfg.problem_kind == "affine"
    assert cfg.problem_params == {"dim": 10, "seed": 1, "skew_fraction": 0.8}
    assert [m.value for m in cfg.methods] == ["BFoRB"]
    assert cfg.lam_policy == "fraction" and cfg.lam_value == 0.9
    assert cfg.tol == 1e-10 and cfg.max_iters == 20000
    assert not cfg.certify


def test_parse_unknown_key_reports_line():
    bad = AFFINE_CFG + "frobnicate = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    (line, msg), = exc.value.errors
    assert "frobnicate" in msg
    assert line == len(bad.splitlines())


def test_parse_unknown_section_and_method():
    with pytest.raises(ConfigError) as exc:
        parse_config(AFFINE_CFG.replace("[run]", "[rust]"))
    assert any("unknown section" in msg for _, msg in exc.value.errors)
    with pytest.raises(ConfigError) as exc:
        parse_config(AFFINE_CFG.replace("BFoRB", "Bforb"))
    assert any("unknown method" in msg for _, msg in exc.value.errors)


def test_parse_frdr_requires_gamma():
    cfg_text = AFFINE_CFG.replace("methods = BFoRB", "methods = FRDR") \
                         .replace("lambda_fraction = 0.9", "lambda = 0.01")
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg_text)
    assert any("gamma" in msg for _, msg in exc.value.errors)
    parse_config(cfg_text + "gamma = 0.05\n")           # now fine


def test_parse_lambda_policy_exclusive():
    with pytest.raises(ConfigError):
        parse_config(AFFINE_CFG + "lambda = 0.1\n")
    # neither key parses: only run and certify need a stepsize
    cfg = parse_config(AFFINE_CFG.replace("lambda_fraction = 0.9\n", ""))
    assert cfg.lam_policy is None and cfg.lam_value is None


@pytest.mark.parametrize("verb, extra, code", [
    ("sweep", ["--grid", "0.5"], EXIT_OK), ("flow", [], EXIT_OK),
    ("run", [], EXIT_CONFIG), ("certify", [], EXIT_CONFIG)])
def test_only_run_and_certify_require_lambda(tmp_path, capsys, verb, extra,
                                            code):
    # sweep takes its stepsizes from --grid and flow from [ode]
    text = (AFFINE_CFG.replace("lambda_fraction = 0.9\n", "")
            + "\n[ode]\nlambda = 0.1\nh_ode = 0.1\nT = 2.0\n")
    out = tmp_path / "o"
    assert main([verb, "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet", *extra]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == "" and os.listdir(out)
    else:
        assert err == ("config error: exactly one of 'lambda' and "
                       "'lambda_fraction' required\n")
        assert not out.exists()


def test_parse_h_only_with_relaxed_methods():
    text = AFFINE_CFG + "h = 0.5\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == [(len(text.splitlines()),
                                 "h is only used by FoRB and RFoB")]
    cfg = parse_config(text.replace("methods = BFoRB",
                                    "methods = FoRB, BFoRB"))
    assert cfg.h == 0.5


@pytest.mark.parametrize("methods", ["", ","])
def test_parse_methods_must_name_a_method(methods):
    with pytest.raises(ConfigError) as exc:
        parse_config(AFFINE_CFG.replace("methods = BFoRB",
                                        f"methods = {methods}"))
    assert exc.value.errors == [(8, "methods must name a method")]


@pytest.mark.parametrize("verb, extra", [
    ("flow", []), ("run", []), ("sweep", ["--grid", "0.5"]),
    ("certify", [])])
def test_only_method_verbs_need_run_section(tmp_path, capsys, verb, extra):
    text = (AFFINE_CFG[:AFFINE_CFG.index("[run]")]
            + "[ode]\nlambda = 0.1\nh_ode = 0.1\nT = 2.0\n")
    assert parse_config(text).methods is None
    out = tmp_path / "o"
    code = main([verb, "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet", *extra])
    err = capsys.readouterr().err
    if verb == "flow":
        assert code == EXIT_OK and err == ""
        assert os.listdir(out) == ["affine-d10-s1__dr-flow.csv"]
    else:
        assert code == EXIT_CONFIG
        assert err == "config error: missing [run] section\n"
        assert not out.exists()


def test_parse_fraction_rejected_for_unbounded_methods():
    with pytest.raises(ConfigError) as exc:
        parse_config(AFFINE_CFG.replace("methods = BFoRB", "methods = FB"))
    assert any("lambda_fraction" in msg for _, msg in exc.value.errors)


def test_parse_beyond_bound_warns_at_run_time(tmp_path):
    # an absolute stepsize beyond 1/(8L) parses fine; the run records a warning
    cfg_text = AFFINE_CFG.replace("lambda_fraction = 0.9", "lambda = 10.0") \
                         .replace("max_iters = 20000", "max_iters = 5")
    parse_config(cfg_text)
    cfg = write(tmp_path, "exp.cfg", cfg_text)
    out = str(tmp_path / "o")
    main(["run", "--config", cfg, "--out", out, "--quiet"])
    summary_file, = [f for f in os.listdir(out) if f.endswith("__summary.json")]
    summary = json.loads((tmp_path / "o" / summary_file).read_text())
    assert any("outside the guaranteed interval" in w
               for w in summary["warnings"])


def test_parse_ode_block():
    cfg = parse_config(AFFINE_CFG + "\n[ode]\nlambda = 0.1\nh_ode = 0.01\n"
                                    "T = 5.0\nflow = ppa\n")
    assert cfg.ode == {"lambda": 0.1, "h_ode": 0.01, "T": 5.0, "flow": "ppa"}
    with pytest.raises(ConfigError):
        parse_config(AFFINE_CFG + "\n[ode]\nlambda = 0.1\n")


def test_readme_example_config_parses():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert cfg.problem_kind == "affine"
    assert cfg.problem_params == {"dim": 50, "seed": 1, "skew_fraction": 0.8}
    assert [m.value for m in cfg.methods] == ["BFoRB", "BRFoB"]
    assert cfg.lam_policy == "fraction" and cfg.lam_value == 0.9
    assert cfg.ode == {"lambda": 0.1, "h_ode": 0.01, "T": 200.0, "flow": "dr"}


def test_build_problem_ids():
    cfg = parse_config(AFFINE_CFG)
    pid, problem, inst = build_problem(cfg)
    assert pid == "affine-d10-s1"
    assert problem.dim == 10
    pid2, _, _ = build_problem(cfg, seed_override=7)
    assert pid2 == "affine-d10-s7"


# ---------------------------------------------------------------- run verb

def test_run_writes_artifacts_and_converges(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    files = sorted(os.listdir(out))
    assert any(f.endswith(".csv") for f in files)
    summary_file, = [f for f in files if f.endswith("__summary.json")]
    summary = json.loads((tmp_path / "out" / summary_file).read_text())
    assert summary["status"] == "converged"
    assert summary["terminal_residual"] <= 1e-8
    assert summary["forward_evals"] == summary["iterations"] + 1


def test_run_trace_csv_round_trips_floats(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out, "--quiet"])
    csv_file, = [f for f in os.listdir(out) if f.endswith(".csv")]
    lines = (tmp_path / "out" / csv_file).read_text().splitlines()
    assert lines[0] == "k,step_norm,omega_residual,dist_to_xstar"
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert np.isfinite(float(row[1]))


def test_run_zero_problem_exits_ok(tmp_path):
    inst = make_affine_instance(4, 1, 0.0)
    # zero out everything: the instance file route covers hand-built problems
    for name in ("M_A", "M_B", "M_C"):
        setattr(inst, name, np.zeros((4, 4)))
    for name in ("b_A", "b_B", "b_C", "x_star"):
        setattr(inst, name, np.zeros(4))
    path = tmp_path / "zero.inst"
    save_instance(inst, path)
    cfg = write(tmp_path, "exp.cfg", f"""\
[problem]
kind = file
path = {path}

[run]
methods = BFoRB
lambda = 0.5
max_iters = 50
tol = 1e-12
""")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    summary_file, = [f for f in os.listdir(out) if f.endswith("__summary.json")]
    summary = json.loads((tmp_path / "out" / summary_file).read_text())
    assert summary["iterations"] == 1


def test_run_divergent_fb_exits_2(tmp_path):
    cfg = write(tmp_path, "exp.cfg", """\
[problem]
kind = saddle
m = 4
n = 6
seed = 2
alpha = 0
radius = 1.0

[run]
methods = FB
lambda = 0.2
max_iters = 2000
tol = 1e-12
""")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out,
                 "--quiet"]) == EXIT_NOT_CONVERGED


def test_run_missing_gamma_exits_1(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG.replace(
        "methods = BFoRB", "methods = FRDR"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG


def test_run_missing_config_exits_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--quiet"]) == 3


def test_run_byte_identical_reruns(tmp_path):
    cfg_text = AFFINE_CFG.replace("methods = BFoRB",
                                  "methods = BFoRB, BRFoB")
    cfg = write(tmp_path, "exp.cfg", cfg_text + "certify = true\n")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", cfg, "--out", out1, "--quiet"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", out2, "--quiet"]) == EXIT_OK
    files1, files2 = sorted(os.listdir(out1)), sorted(os.listdir(out2))
    assert files1 == files2 and len(files1) >= 4
    for f in files1:
        b1 = (tmp_path / "o1" / f).read_bytes()
        b2 = (tmp_path / "o2" / f).read_bytes()
        assert b1 == b2, f


@pytest.mark.parametrize("verb, extra", [
    ("run", []), ("sweep", ["--grid", "0.3,0.5,0.9"]), ("certify", [])])
def test_verbs_run_serially_whatever_splitkit_threads(tmp_path, monkeypatch,
                                                      verb, extra):
    # every verb runs its jobs one after another: none starts a thread,
    # and SPLITKIT_THREADS, which nothing reads, changes nothing
    cfg = write(tmp_path, "exp.cfg",
                AFFINE_CFG.replace("methods = BFoRB",
                                   "methods = BFoRB, BRFoB"))
    out1, out2 = tmp_path / "plain", tmp_path / "with-threads-var"
    assert main([verb, "--config", cfg, "--out", str(out1), "--quiet",
                 *extra]) == EXIT_OK

    def no_threads(self):
        raise AssertionError("a verb started a thread")

    monkeypatch.setenv("SPLITKIT_THREADS", "3")
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert main([verb, "--config", cfg, "--out", str(out2), "--quiet",
                 *extra]) == EXIT_OK
    files = sorted(os.listdir(out1))
    assert files == sorted(os.listdir(out2)) and files
    for f in files:
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


@pytest.mark.parametrize("verb, cfg_extra", [
    ("run", "certify = true\n"), ("certify", "")])
def test_certified_verbs_build_one_reference_point_per_method(
        tmp_path, monkeypatch, verb, cfg_extra):
    # the point validated before --out is created is the one certified
    built = []
    original = splitkit.certificates.reference_point

    def counted(problem, lam):
        built.append(lam)
        return original(problem, lam)

    monkeypatch.setattr(splitkit.cli, "reference_point", counted)
    monkeypatch.setattr(splitkit.certificates, "reference_point", counted)
    cfg = write(tmp_path, "exp.cfg",
                AFFINE_CFG.replace("methods = BFoRB", "methods = BFoRB, BRFoB")
                + cfg_extra)
    assert main([verb, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_OK
    assert len(built) == 2 and built[0] != built[1]
    assert len([f for f in os.listdir(tmp_path / "o")
                if f.endswith("__certificate.csv")]) == 2


@pytest.mark.parametrize("start", ["counted", "inline"])
def test_flow_starts_at_most_one_thread_and_leaves_none(tmp_path, monkeypatch,
                                                        start):
    # an affine flow of 3,001 states takes its rows on one worker thread,
    # joined before main returns; where no thread can start, the rows run
    # inline, and the CSV keeps its bytes either way
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG + """
[ode]
lambda = 0.1
h_ode = 0.01
T = 30.0
""")
    monkeypatch.setattr(dynamics, "_spare_cpu", lambda: True)
    threads, started = threading.enumerate(), []
    start_thread = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start_thread(thread)

    def refused(thread):
        started.append(thread)
        raise RuntimeError("can't start new thread")

    out = tmp_path / start
    monkeypatch.setattr(threading.Thread, "start",
                        counted if start == "counted" else refused)
    assert main(["flow", "--config", cfg, "--out", str(out),
                 "--quiet"]) == EXIT_OK
    assert len(started) == 1 and threading.enumerate() == threads
    monkeypatch.setattr(dynamics, "_spare_cpu", lambda: False)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "serial"),
                 "--quiet"]) == EXIT_OK
    assert len(started) == 1
    csv = "affine-d10-s1__dr-flow.csv"
    assert (out / csv).read_bytes() == (tmp_path / "serial" / csv).read_bytes()


def test_run_seed_override_changes_artifacts(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    out = str(tmp_path / "o")
    main(["run", "--config", cfg, "--out", out, "--quiet",
          "--seed-override", "5"])
    assert any("affine-d10-s5" in f for f in os.listdir(out))


def _file_config(tmp_path, corrupt=None):
    """A ``kind = file`` config over a saved affine d=4 instance, with
    ``corrupt(lines)`` applied to the file's lines."""
    path = tmp_path / "inst4.inst"
    save_instance(make_affine_instance(4, 1, 0.8), path)
    if corrupt is not None:
        lines = path.read_text().splitlines()
        corrupt(lines)
        path.write_text("\n".join(lines) + "\n")
    return write(tmp_path, "exp.cfg", f"""\
[problem]
kind = file
path = {path}

[run]
methods = BFoRB
lambda_fraction = 0.9

[ode]
lambda = 0.1
h_ode = 0.1
T = 2.0
""")


@pytest.mark.parametrize("verb, extra", [
    ("run", []), ("sweep", ["--grid", "0.5"]), ("certify", []),
    ("flow", [])])
def test_seed_override_on_file_problem_exits_1(tmp_path, capsys, verb,
                                               extra):
    # an instance file has no seed, so an override could not be applied
    out = tmp_path / "o"
    assert main([verb, "--config", _file_config(tmp_path), "--out",
                 str(out), "--quiet", "--seed-override", "7",
                 *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert "--seed-override" in err[0] and "kind = file" in err[0]
    assert not out.exists()


def test_run_malformed_instance_file_exits_1(tmp_path, capsys):
    def short_header(lines):
        lines[10] = "matrix M_B 4"

    out = tmp_path / "o"
    assert main(["run", "--config", _file_config(tmp_path, short_header),
                 "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "line 11" in err[0]
    assert not out.exists()


# --------------------------------------------------------------- sweep verb

def test_sweep_writes_table(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG.replace(
        "lambda_fraction = 0.9", "lambda_fraction = 0.5"))
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", cfg, "--out", out, "--quiet",
                 "--grid", "0.5,0.9"]) == EXIT_OK
    table = (tmp_path / "o" / "affine-d10-s1__sweep.csv").read_text()
    lines = table.splitlines()
    assert lines[0].startswith("method,fraction,lambda,status")
    assert len(lines) == 3
    assert all(",converged," in ln for ln in lines[1:])


def test_sweep_far_beyond_bound_is_observational(tmp_path):
    # fraction 80 of 1/(8L) is lambda = 10/L: no guarantee, only a marker
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    out = str(tmp_path / "o")
    code = main(["sweep", "--config", cfg, "--out", out, "--quiet",
                 "--grid", "80"])
    table = (tmp_path / "o" / "affine-d10-s1__sweep.csv").read_text()
    row = table.splitlines()[1]
    status = row.split(",")[3]
    if status == "converged":
        assert code == EXIT_OK
    else:
        assert code == EXIT_NOT_CONVERGED
        assert status in ("diverged", "max_iters")


def test_sweep_empty_grid_errors(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet", "--grid", ""]) == EXIT_CONFIG


# ------------------------------------------------------------- certify verb

def test_certify_affine_ok(tmp_path):
    cfg = write(tmp_path, "exp.cfg", """\
[problem]
kind = affine
dim = 20
seed = 5
skew_fraction = 0.8

[run]
methods = BFoRB, BRFoB
lambda_fraction = 0.9
max_iters = 2000
tol = 1e-11
""")
    out = str(tmp_path / "o")
    assert main(["certify", "--config", cfg, "--out", out,
                 "--quiet"]) == EXIT_OK
    reports = [f for f in os.listdir(out) if f.endswith("__certificate.json")]
    assert len(reports) == 2
    for f in reports:
        payload = json.loads((tmp_path / "o" / f).read_text())
        assert payload["lemma_ok"] and payload["descent_ok"]
        assert payload["min_lemma_slack"] >= -payload["lemma_tol"]
    series = [f for f in os.listdir(out) if f.endswith("__certificate.csv")]
    assert len(series) == 2


def test_certificate_csv_has_a_row_per_step(tmp_path):
    # phi and the lower-bound violations have one entry per iterate, K+1
    # of them: the CSV's K rows are the steps and carry iterates 0..K-1
    cfg = parse_config(AFFINE_CFG)
    _, problem, _ = build_problem(cfg)
    lam = 0.9 * splitkit.max_stepsize(splitkit.Method.BFORB,
                                      problem.B.lipschitz)
    trace = splitkit.run(problem, splitkit.cli._solver_config(
        cfg, splitkit.Method.BFORB, lam, problem.dim), record_history=True)
    report = splitkit.certify_trace(problem, trace)
    out = tmp_path / "o"
    assert main(["certify", "--config", write(tmp_path, "exp.cfg", AFFINE_CFG),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    path, = out.glob("*__certificate.csv")
    header, *lines = path.read_text().splitlines()
    assert header == ("k,lemma_slack,phi,descent_violation,"
                      "telescope_violation,lower_bound_violation")
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert len(table) == trace.iterations == len(report.phi) - 1
    np.testing.assert_array_equal(table[:, 0], np.arange(len(table)))
    for j, col in enumerate((report.lemma_slacks, report.phi[:-1],
                             report.descent_violations,
                             report.telescope_violations,
                             report.lower_bound_violations[:-1]), start=1):
        np.testing.assert_array_equal(table[:, j], col)


def test_certify_saddle_ok(tmp_path):
    # the triple of a generated saddle instance carries its planted zero,
    # which gives the reference point at every stepsize
    out = tmp_path / "o"
    assert main(["certify", "--config", write(tmp_path, "exp.cfg", SADDLE_CFG),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    report, = out.glob("*__certificate.json")
    payload = json.loads(report.read_text())
    assert payload["lemma_ok"] and payload["descent_ok"]
    assert payload["lower_bound_ok"]


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name}: non-JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


# lam*L near 1e300: the iterates grow past the divergence bound within a
# few steps, and the certificates of such a run overflow
OVERFLOW_CFG = """\
[problem]
kind = affine
dim = 5
seed = 1

[run]
methods = BFoRB, BRFoB
lambda = 1e300
max_iters = 50
"""


@pytest.mark.parametrize("verb", ["run", "certify"])
def test_nonfinite_certificate_is_null_not_false(tmp_path, capsys, verb):
    # a certificate that overflows could not be evaluated: its values and
    # gates are null, which strict JSON parsers accept, and the exit code
    # is that of a failed gate; no RuntimeWarning leaks.  The affine runs
    # take the precomposed step, whose products stay finite until the
    # divergence bound ends the run, so each run summary names no
    # floating-point event
    out = tmp_path / "o"
    cfg = write(tmp_path, "exp.cfg", OVERFLOW_CFG + "certify = true\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([verb, "--config", cfg, "--out", str(out)])
    assert code == EXIT_NOT_CONVERGED
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    reports = sorted(out.glob("*__certificate.json" if verb == "certify"
                              else "*__summary.json"))
    assert len(reports) == 2
    for path in reports:
        payload = _strict_json(path)
        cert = payload if verb == "certify" else payload["certificate"]
        assert cert["min_lemma_slack"] is None and cert["phi0"] is None
        assert cert["lemma_ok"] is None
        if verb == "run":
            assert payload["status"] == "diverged"
            assert not any(w.startswith("floating-point")
                           for w in payload["warnings"])
    if verb == "certify":
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert all("certificate not evaluated (min slack n/a" in line
                   for line in lines), lines


# ---------------------------------------------------------------- flow verb

def test_flow_writes_trajectory(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG + """
[ode]
lambda = 0.1
h_ode = 0.1
T = 20.0
""")
    out = str(tmp_path / "o")
    assert main(["flow", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    traj = (tmp_path / "o" / "affine-d10-s1__dr-flow.csv").read_text()
    lines = traj.splitlines()
    assert lines[0] == "t,step_norm,omega_residual,dist_to_xstar"
    assert len(lines) == 202                     # header + 201 samples
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(20.0)


def test_flow_ppa_on_readme_config(tmp_path):
    # x_star solves A + B + C, not the B + C of the PPA flow, so the PPA
    # flow neither validates it nor reports a distance to it
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        block = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)[0]
    cfg_text = block.replace("flow = dr", "flow = ppa")
    assert "flow = ppa" in cfg_text
    ode = parse_config(cfg_text).ode
    cfg = write(tmp_path, "readme.cfg", cfg_text)
    out = str(tmp_path / "o")
    assert main(["flow", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    lines = (tmp_path / "o" / "affine-d50-s1__ppa-flow.csv").read_text() \
        .splitlines()
    assert lines[0] == "t,step_norm,omega_residual"
    assert len(lines) == 1 + round(ode["T"] / ode["h_ode"]) + 1


def test_flow_requires_ode_block(tmp_path):
    cfg = write(tmp_path, "exp.cfg", AFFINE_CFG)
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("T", "inf"), ("T", "nan"), ("T", "0"), ("T", "1e300"),
    ("lambda", "nan"), ("lambda", "inf"), ("lambda", "-0.1"),
    ("h_ode", "nan"), ("h_ode", "1.5")])
def test_flow_bad_ode_value_exits_1(tmp_path, capsys, key, value):
    ode = {"lambda": "0.1", "h_ode": "0.1", "T": "2.0", key: value}
    text = AFFINE_CFG + "\n[ode]\n" + "".join(
        f"{k} = {v}\n" for k, v in ode.items())
    out = tmp_path / "o"
    assert main(["flow", "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    if value == "1e300":
        # a finite T passes the config; the Euler loop cannot store its states
        assert err[0].startswith("error: "), err
    else:
        # parse_config checks the range and names the key and its line
        line = text.splitlines().index(f"{key} = {value}") + 1
        assert err[0].startswith(f"config error: line {line}: "), err
    assert key in err[0], err
    assert not out.exists()


def test_flow_step_count_beyond_float_range_exits_1(tmp_path, capsys):
    # T / h_ode overflows to inf: one error line, and no --out
    text = AFFINE_CFG.replace("dim = 10", "dim = 3") + (
        "\n[ode]\nlambda = 0.1\nh_ode = 1e-10\nT = 1e300\n")
    out = tmp_path / "o"
    assert main(["flow", "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "too many states to store" in err[0]
    assert not out.exists()


def test_flow_names_each_floating_point_kind_once_on_stderr(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # the affine d=5 flow from 1e160*ones meets 202 overflows in the
    # squares of its norms, though every row is finite
    simulate = splitkit.cli.simulate_dr_flow
    monkeypatch.setattr(splitkit.cli, "simulate_dr_flow",
                        lambda problem, lam, h_ode, T, z0: simulate(
                            problem, lam, h_ode, T, 1e160 * z0))
    text = AFFINE_CFG.replace("dim = 10", "dim = 5") + (
        "\n[ode]\nlambda = 0.1\nh_ode = 0.01\nT = 1.0\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["flow", "--config", write(tmp_path, "exp.cfg", text),
                     "--out", str(out), "--quiet"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "warning: floating-point overflow encountered\n"
    lines = (out / "affine-d5-s1__dr-flow.csv").read_text().splitlines()
    assert len(lines) == 102
    assert not re.search("inf|nan", "".join(lines[1:]))


SADDLE_CFG = """\
[problem]
kind = saddle
m = 4
n = 6
seed = 2
alpha = 0.5
radius = 1.0

[run]
methods = BFoRB
lambda_fraction = 0.9
"""


@pytest.mark.parametrize("text", [
    AFFINE_CFG, SADDLE_CFG.replace("m = 4\nn = 6", "m = 20\nn = 30")],
    ids=["affine", "saddle-20x30"])
def test_sweep_and_certify_runs_agree_with_run(tmp_path, text):
    # sweep and certify evaluate no residual row and run does; on the
    # precomposed (affine) and the composed (saddle) route, the sweep row at
    # lambda_fraction and the certificate end as the run verb's summary
    cfg = write(tmp_path, "exp.cfg", text.replace(
        "methods = BFoRB", "methods = BFoRB, BRFoB"))
    for verb, extra in (("run", []), ("sweep", ["--grid", "0.5,0.9"]),
                        ("certify", [])):
        assert main([verb, "--config", cfg, "--out", str(tmp_path / verb),
                     "--quiet", *extra]) == EXIT_OK
    sweep, = (tmp_path / "sweep").glob("*__sweep.csv")
    rows = {row[0]: row for row in (
        line.split(",") for line in sweep.read_text().splitlines()[1:])
        if float(row[1]) == 0.9}
    assert sorted(rows) == ["BFoRB", "BRFoB"]
    for path in (tmp_path / "run").glob("*__summary.json"):
        summary = json.loads(path.read_text())
        method, status, n = (summary[key] for key in (
            "method", "status", "iterations"))
        row = rows.pop(method)
        assert (row[3], int(row[4]), float(row[2])) == (
            status, n, summary["lambda"])
        cert = json.loads((tmp_path / "certify" / path.name.replace(
            "__summary.json", "__certificate.json")).read_text())
        assert (cert["status"], cert["iterations"]) == (status, n)
    assert not rows


def _flow_rows_rowwise(problem, flow):
    """The flow's rows ``(t, step_norm, omega_residual[, dist_to_xstar])``
    recomputed one by one from the states alone; an affine triple's
    residual rows are those of its residual map where finite."""
    lam = flow.lam
    with_dist = flow.kind == "dr" and problem.x_star is not None
    res_problem = problem if flow.kind == "dr" else ProblemTriple(
        A=ZeroOperator(problem.dim), B=problem.B, C=problem.C)
    omega = residual_map(res_problem, lam)
    rows, prev = [], None
    for t, state in zip(flow.times, flow.states):
        x = res_problem.A.resolve(lam, state)
        row = [t, 0.0 if prev is None else np.linalg.norm(state - prev),
               residual_row(omega, res_problem, lam, state)]
        if with_dist:
            row.append(np.linalg.norm(x - problem.x_star))
        rows.append(row)
        prev = state
    return rows


def _flow_csv_rowwise(problem, flow):
    """The flow CSV recomputed row by row from the states alone."""
    header = "t,step_norm,omega_residual" + ",dist_to_xstar" * (
        flow.dist_to_xstar is not None)
    lines = [header] + [",".join("%.17g" % v for v in row)
                        for row in _flow_rows_rowwise(problem, flow)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("problem_kind, kind", [
    ("affine", "dr"), ("affine", "ppa"), ("saddle", "dr")])
def test_flow_csv_matches_rowwise_computation(tmp_path, monkeypatch,
                                              problem_kind, kind):
    # the series the Euler loop records are the ones the states give; the
    # saddle DR flow takes the inner-solver path of J_{lam*(B+C)}
    base = AFFINE_CFG if problem_kind == "affine" else SADDLE_CFG
    text = base + ("\n[ode]\nlambda = 0.1\nh_ode = 0.1\nT = 8.0\n"
                   f"flow = {kind}\n")
    cfg = parse_config(text)
    pid, problem, _ = build_problem(cfg)
    simulate = simulate_dr_flow if kind == "dr" else simulate_ppa
    flow = simulate(problem, 0.1, 0.1, 8.0, np.ones(problem.dim))
    out = tmp_path / "o"
    assert main(["flow", "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet"]) == EXIT_OK
    csv = (out / f"{pid}__{kind}-flow.csv").read_text()
    assert csv == _flow_csv_rowwise(problem, flow)
    res_problem = problem if kind == "dr" else ProblemTriple(
        A=ZeroOperator(problem.dim), B=problem.B, C=problem.C)
    # an affine triple's terminal row is its residual map's, which agrees
    # with omega_residual to rounding; a saddle's is omega_residual's
    omega = residual_map(res_problem, 0.1)
    assert (omega is None) == (problem_kind == "saddle")
    assert flow.residuals[-1] == residual_row(omega, res_problem, 0.1,
                                              flow.terminal)
    assert abs(flow.residuals[-1] - omega_residual(
        res_problem, 0.1, flow.terminal)) <= 1e-13 * (
            1.0 + np.linalg.norm(flow.terminal))
    # the loop evaluates its residuals and distances per block of states:
    # lengths at the block's edges (a smaller block for the saddle, whose
    # inner solves take about 2 ms per step)
    if problem_kind == "saddle":
        monkeypatch.setattr(dynamics, "_BLOCK", 16)
    block = dynamics._BLOCK
    for states in (block - 1, block, block + 1, 2 * block + 1):
        flow = simulate(problem, 0.1, 0.5, 0.5 * (states - 1),
                        np.ones(problem.dim))
        series = [flow.times, flow.step_norms, flow.residuals]
        if flow.dist_to_xstar is not None:
            series.append(flow.dist_to_xstar)
        assert len(flow.times) == states
        assert [list(row) for row in zip(*series)] == _flow_rows_rowwise(
            problem, flow)


FRDR_CFG = AFFINE_CFG.replace("methods = BFoRB", "methods = FRDR")
# x_star = 0 here, but J_{lam*A}(x_star + lam*a_star) misses it by more
# than the reference point's 1e-10 check allows
NO_REFERENCE_CFG = """\
[problem]
kind = affine
dim = 1
seed = 61
skew_fraction = 0.9999999999999999

[run]
methods = BFoRB
lambda_fraction = 1.0
"""
FB_CFG = AFFINE_CFG.replace("methods = BFoRB", "methods = FB") \
                   .replace("lambda_fraction = 0.9", "lambda = 0.1")


@pytest.mark.parametrize("verb, text, extra", [
    ("run", AFFINE_CFG.replace("lambda_fraction = 0.9", "lambda = nan"), []),
    ("certify", AFFINE_CFG.replace("lambda_fraction = 0.9", "lambda = nan"),
     []),
    ("run", AFFINE_CFG.replace("lambda_fraction = 0.9",
                               "lambda_fraction = inf"), []),
    ("run", FRDR_CFG + "gamma = nan\n", []),
    ("run", AFFINE_CFG.replace("tol = 1e-10", "tol = nan"), []),
    ("sweep", AFFINE_CFG, ["--grid", "nan"]),
    ("sweep", FB_CFG, ["--grid", "0.5"]),
    ("run", SADDLE_CFG.replace("alpha = 0.5", "alpha = nan"), []),
    ("certify", NO_REFERENCE_CFG, []),
    ("run", NO_REFERENCE_CFG + "certify = true\n", []),
    ("run", AFFINE_CFG + "h = 0.5\n", []),
    ("run", AFFINE_CFG.replace("methods = BFoRB", "methods ="), []),
    ("sweep", AFFINE_CFG.replace("methods = BFoRB", "methods ="),
     ["--grid", "0.5"]),
    ("certify", AFFINE_CFG.replace("methods = BFoRB", "methods ="), []),
], ids=["lambda-nan", "certify-lambda-nan", "fraction-inf", "frdr-gamma-nan",
        "tol-nan", "sweep-grid-nan", "sweep-fb", "saddle-alpha-nan",
        "certify-no-reference-point", "certify-true-no-reference-point",
        "h-without-relaxed-method", "run-no-methods", "sweep-no-methods",
        "certify-no-methods"])
def test_rejected_value_exits_1_without_output(tmp_path, capsys, verb, text,
                                               extra):
    # every value is checked before --out is created, so a verb that
    # exits 1 leaves no directory behind, empty or partly written
    out = tmp_path / "o"
    assert main([verb, "--config", write(tmp_path, "exp.cfg", text),
                 "--out", str(out), "--quiet", *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(("error: ", "config error: ")), \
        err
    assert not out.exists()


def test_benchmark_tracer_patches_existing_names(monkeypatch):
    # perfbench/bench_trace.py wraps layer entry points by name, in
    # splitkit, in splitkit.cli and on the instance classes; a name that
    # is gone makes install() raise AttributeError.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import bench_checks
    import bench_trace
    before = dict(vars(splitkit.cli))
    tracer = bench_trace.Tracer(splitkit)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert dict(vars(splitkit.cli)) == before
    # --trace 1 wraps live operators: a traced run keeps its bits and exact
    # counters, and uninstall() leaves every operator as it was
    problem = make_affine_instance(10, 1, 0.8).triple()
    ops = (problem.A, problem.B, problem.C)
    op_vars = [dict(vars(op)) for op in ops]
    config = splitkit.SolverConfig(
        method="BFoRB", lam=0.9 / (8.0 * problem.B.lipschitz),
        z0=np.ones(10), max_iters=20000, tol=1e-10)
    plain = splitkit.run(problem, config)
    try:
        tracer.install([problem])
        traced = splitkit.run(problem, config)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    assert traced.status == "converged"
    assert traced.step_norms == plain.step_norms
    assert counts["iterations"] == traced.iterations
    assert not bench_checks.check_counters(
        "traced", "BFoRB", counts["iterations"], counts["forward_evals"],
        counts["resolvent_evals"])
    for op, saved in zip(ops, op_vars):
        assert vars(op).keys() == saved.keys()
        assert all(vars(op)[k] is v for k, v in saved.items())


_NO_SCIPY = """\
import json
import sys
sys.modules["scipy"] = None         # any import of scipy now fails
import splitkit
import splitkit.cli
for argv in json.loads(sys.argv[1]):
    if splitkit.cli.main(argv + ["--quiet"]) != 0:
        sys.exit(f"{argv[0]} did not exit 0")
"""


def test_runtime_needs_numpy_only(tmp_path):
    # every verb runs with scipy unimportable, on an affine and a saddle
    # config: scipy is a dependency of the tests only
    ode = "certify = true\n\n[ode]\nlambda = 0.1\nh_ode = 0.1\nT = 2.0\n"
    argvs = []
    for name, base in (("affine", AFFINE_CFG), ("saddle", SADDLE_CFG)):
        cfg = write(tmp_path, f"{name}.cfg", base + ode)
        for verb in ("run", "certify", "flow", "sweep"):
            argvs.append([verb, "--config", cfg,
                          "--out", str(tmp_path / name / verb)]
                         + ["--grid", "0.5,0.9"] * (verb == "sweep"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(argvs)], env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
