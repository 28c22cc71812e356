"""The benchmark's checker must reject corrupted outputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import copy
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import splitkit as sk  # noqa: E402
import splitkit.cli  # noqa: E402,F401

import bench_checks as checks  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import SPAN_DTYPE, aggregate, below_roots  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def solved():
    inst = sk.make_affine_instance(8, 3, 0.8)
    problem = inst.triple()
    lam = 0.9 * sk.max_stepsize("BFoRB", problem.B.lipschitz)
    trace = sk.run(problem, sk.SolverConfig(
        method="BFoRB", lam=lam, z0=np.ones(8), max_iters=20000, tol=1e-10))
    return inst, trace


def test_correct_solve_passes(solved):
    inst, trace = solved
    assert checks.check_affine_solution(inst) == []
    assert checks.check_trace("t", trace, 20000) == []
    assert checks.check_close("t", trace.x_final, inst.x_star) == []


def test_shifted_x_final_fails(solved):
    inst, trace = solved
    shifted = trace.x_final + 1e-4
    assert checks.check_close("t", shifted, inst.x_star)


@pytest.mark.parametrize("field", ["forward_evals", "resolvent_evals"])
def test_counter_off_by_one_fails(solved, field):
    _, trace = solved
    bad = copy.copy(trace)
    setattr(bad, field, getattr(trace, field) + 1)
    assert checks.check_trace("t", bad, 20000)


def test_budget_hit_fails(solved):
    _, trace = solved
    assert checks.check_trace("t", trace, trace.iterations - 1)
    bad = copy.copy(trace)
    bad.status = "max_iters"
    assert checks.check_trace("t", bad, 20000)


def test_flipped_artifact_byte_fails(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"k,step_norm\n0,1.5\n")
    reference = checks.hash_tree(tmp_path)
    assert checks.check_artifacts("t", checks.hash_tree(tmp_path),
                                  reference) == []
    data = bytearray((tmp_path / "a.csv").read_bytes())
    data[-2] ^= 0x01
    (tmp_path / "a.csv").write_bytes(bytes(data))
    assert checks.check_artifacts("t", checks.hash_tree(tmp_path), reference)


CLI_TEST_CONFIG = """\
[problem]
kind = affine
dim = 8
seed = 3
skew_fraction = 0.8

[run]
methods = BFoRB, BRFoB
lambda_fraction = 0.9
max_iters = 50000
tol = 1e-10
certify = true

[ode]
lambda = 0.1
h_ode = 0.01
T = 2
flow = dr
"""

CLI_METHODS = ("BFoRB", "BRFoB")
CLI_GRID = (0.5, 0.9)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Directories written by run, sweep and flow on a small config."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "c.cfg"
    config.write_text(CLI_TEST_CONFIG)
    _, _, inst = sk.cli.build_problem(sk.cli.parse_config(CLI_TEST_CONFIG))
    dirs = {}
    for verb, extra in (("run", []), ("sweep", ["--grid", "0.5,0.9"]),
                        ("flow", [])):
        dirs[verb] = root / verb
        assert sk.cli.main([verb, "--config", str(config), "--out",
                            str(dirs[verb]), "--quiet"] + extra) == 0
    return dirs, inst.x_star


def checked_cli(dirs, x_star):
    """Errors of the three CLI output checks."""
    errs, _ = checks.check_run_outputs("t", dirs["run"], CLI_METHODS, x_star)
    errs += checks.check_sweep_outputs("t", dirs["sweep"], CLI_METHODS,
                                       CLI_GRID)[0]
    return errs + checks.check_flow_outputs("t", dirs["flow"], 0.01, 2.0)


def copied(dirs, tmp_path):
    out = {}
    for verb, d in dirs.items():
        out[verb] = tmp_path / verb
        shutil.copytree(d, out[verb])
    return out


def test_correct_cli_outputs_pass(cli_outputs):
    dirs, x_star = cli_outputs
    assert checked_cli(dirs, x_star) == []
    _, iterations = checks.check_run_outputs("t", dirs["run"], CLI_METHODS,
                                             x_star)
    assert iterations > 0


def test_missing_summary_fails(cli_outputs, tmp_path):
    dirs, x_star = cli_outputs
    bad = copied(dirs, tmp_path)
    summary = next(bad["run"].glob("*__BRFoB__*__summary.json"))
    summary.unlink()
    assert checked_cli(bad, x_star)


def test_empty_run_directory_fails(cli_outputs, tmp_path):
    dirs, x_star = cli_outputs
    bad = copied(dirs, tmp_path)
    for path in bad["run"].iterdir():
        path.unlink()
    assert checked_cli(bad, x_star)


@pytest.mark.parametrize("verb,keep", [("sweep", 1), ("sweep", 3),
                                       ("flow", 100)])
def test_truncated_table_fails(cli_outputs, tmp_path, verb, keep):
    """A sweep table with only its header (or one row short), or a flow
    trajectory cut short, fails."""
    dirs, x_star = cli_outputs
    bad = copied(dirs, tmp_path)
    table = next(bad[verb].iterdir())
    lines = table.read_text().splitlines(keepends=True)
    table.write_text("".join(lines[:keep]))
    assert checked_cli(bad, x_star)


def test_growing_flow_step_fails():
    assert checks.check_nonincreasing("t", [1.0, 0.5, 0.25]) == []
    assert checks.check_nonincreasing("t", [1.0, 0.5, 0.6])


def test_certificate_samples_match_and_detect_drift():
    inst = sk.make_affine_instance(6, 2, 0.8)
    problem = inst.triple()
    z0 = np.ones(6)
    for method in ("BFoRB", "BRFoB"):
        lam = 0.9 * sk.max_stepsize(method, problem.B.lipschitz)
        trace = sk.run(problem, sk.SolverConfig(
            method=method, lam=lam, z0=z0, max_iters=60, tol=1e-300),
            record_history=True)
        report = sk.certify_trace(problem, trace)
        samples = checks.certificate_samples(sk, problem, trace, [3, 10])
        assert checks.check_certificate("t", report, trace, z0) == []
        assert checks.check_certificate_samples("t", report, samples) == []
        report.phi[10] *= 1.0 + 1e-6
        assert checks.check_certificate_samples("t", report, samples)


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_aggregate_self_time_and_oracle_callers():
    names = ["bench.op", "solvers.run", "operators.resolve",
             "operators.prepare"]
    spans = np.array([(0, -1, 0.0, 10.0),     # op root
                      (1, 0, 1.0, 9.0),       # run
                      (2, 1, 2.0, 4.0),       # resolve inside run
                      (3, 2, 2.5, 3.0),       # prepare inside it
                      (2, 0, 9.5, 10.0)],     # resolve outside run
                     dtype=SPAN_DTYPE)
    stats, oracle = aggregate(names, spans)
    assert below_roots(spans) == 8.5
    assert stats["solvers.run"] == [1, 8.0, 6.0]
    assert stats["operators.resolve"] == [2, 2.5, 2.0]
    assert oracle == {("operators.resolve", "solvers.run"): 1,
                      ("operators.resolve", "bench.op"): 1}
