"""splitkit benchmark: one workload, closed loop, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-affine-d50 --seed 1 \\
        --seconds 30 --trace 0

One process, one client: each operation starts after the previous one
returned and its output was checked.  ``--trace 0`` reports the end-to-end
metrics, with op times in units of a reference kernel timed around every
call (bench_reference.py); ``--trace 1`` alternates untraced and traced
calls and reports the per-layer split (see NOTES.md).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``./src``; without it the
benchmark exits with code 2 before measuring anything.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

#: BLAS and OpenMP pools are pinned to one thread: on a shared two-core
#: machine a two-thread OpenBLAS call stalls for ~0.4 s whenever the other
#: core is busy (see NOTES.md), and the problem sizes here gain nothing
#: from a second thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: An untraced run sets up in batches of at least SETUP_BATCH seconds:
#: one before the first op, and one after each round while set-up has
#: taken less than SETUP_SHARE of the time since.  setup_s is the median
#: of all set-ups, so it samples the host's speed across the run as the
#: ops do.
SETUP_BATCH = 0.2
SETUP_SHARE = 0.1

OUT_DIR = ".perfbench_out"

END_TO_END = {
    "op_ref": "ref",
    "iters_per_ref": "1/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    "operators.resolve.calls": "count",
    "operators.resolve.us": "us",
    "operators.forward.calls": "count",
    "operators.forward.us": "us",
    "operators.useful_ratio": "ratio",
    "operators.prepare.calls": "count",
    "operators.prepare.s": "s",
    "solvers.run.calls": "count",
    "solvers.run.self_s": "s",
    "solvers.self_us_per_iter": "us",
    "solvers.iterations": "count",
    "solvers.forward_evals": "count",
    "solvers.resolvent_evals": "count",
    "solvers.unconverged": "count",
    "certificates.certify.self_s": "s",
    "certificates.us_per_k": "us",
    "certificates.k_evaluated": "count",
    "certificates.forward.calls": "count",
    "certificates.omega_residual.calls": "count",
    "certificates.omega_residual.s": "s",
    "problems.make.s": "s",
    "problems.triple.s": "s",
    "dynamics.simulate.s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "cli.run.s": "s",
    "cli.sweep.s": "s",
    "cli.flow.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.import_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv=None):
    from bench_workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_splitkit(root):
    """Import splitkit (and its CLI) from ``root/src``, nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "splitkit", "__init__.py")):
        raise ImportError(f"no splitkit package below {src}")
    sys.path.insert(0, src)
    import splitkit
    import splitkit.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(splitkit.__file__))) \
            != os.path.abspath(src):
        raise ImportError(f"splitkit was imported from {splitkit.__file__}")
    return splitkit


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
    }


def timed(fn, i):
    """Call ``fn(i)``; return (wall seconds, output, error message)."""
    t0 = time.perf_counter()
    try:
        out = fn(i)
    except Exception:           # a failing op is counted, not fatal
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


def checked(wl, i, out, error):
    """The op's OpReport; an op that raised or whose check raised fails."""
    from bench_workloads import OpReport
    if error is None:
        try:
            return wl.check(i, out)
        except Exception:
            error = traceback.format_exc()
    return OpReport([f"op {i} raised: {error}"], 0)


def tail(values):
    """The highest decile with at least ten samples beyond it, as text."""
    deciles = int(10 * (1 - 10 / len(values)))
    if deciles < 5:
        return "(under 20 samples: no tail percentile)"
    value = statistics.quantiles(values, n=10)[deciles - 1]
    return f"p{10 * deciles} {value:.4f}"


class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, report):
        self.attempted += 1
        if report.errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(report.errors[:3])


def more(i, start, seconds, round_len):
    """Whether to start call ``i``: until ``seconds`` have passed, and then
    to the end of the round of ``round_len`` calls."""
    return i % round_len or time.perf_counter() - start < seconds


def per_op(values, wl):
    """Per-op value of each whole round of per-call ``values``."""
    return [sum(values[r:r + wl.round]) / wl.ops_per_round
            for r in range(0, len(values), wl.round)]


def set_up(wl, setups):
    """Repeat ``wl.setup()`` for at least SETUP_BATCH seconds, at least
    once, and append the wall time of each to ``setups``."""
    end = time.perf_counter() + SETUP_BATCH
    while True:
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        setups.append(t1 - t0)
        if t1 >= end:
            return


def run_untraced(wl, seconds, tally):
    from bench_reference import Reference
    setups = []
    set_up(wl, setups)
    wl.verify()
    reference = Reference()
    walls, norm, units, unit_refs, iterations = [], [], 0, 0.0, {}
    refs = [reference.seconds()]
    start, i = time.perf_counter(), 0
    while more(i, start, seconds, wl.round):
        wall, out, error = timed(wl.op, i)
        refs.append(reference.seconds())
        report = checked(wl, i, out, error)
        tally.add(report)
        host = (refs[-2] + refs[-1]) / 2
        walls.append(wall)
        norm.append(wall / host)
        units += report.units
        unit_refs += (wall if report.unit_wall is None
                      else report.unit_wall) / host
        iterations.update(report.extra.get("iterations", {}))
        i += 1
        if i % wl.round == 0 and sum(setups) < SETUP_SHARE * (
                time.perf_counter() - start):
            set_up(wl, setups)
    rounds = per_op(norm, wl)
    print(f"calls {len(walls)} in {len(rounds)} rounds; op median "
          f"{statistics.median(per_op(walls, wl)):.4f} s, "
          f"{statistics.median(rounds):.2f} ref; call median "
          f"{statistics.median(walls):.4f} s, {tail(walls)}; reference median "
          f"{statistics.median(refs):.5f} s, from {min(refs):.5f} to "
          f"{max(refs):.5f} s; {len(setups)} setups, {min(setups):.4f} to "
          f"{max(setups):.4f} s")
    if iterations:
        print("iterations per seed: " + json.dumps(iterations))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "op_ref": statistics.median(rounds),
        "iters_per_ref": units / unit_refs if unit_refs > 0 else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def import_seconds(root, repeats=3):
    """Wall time of ``import splitkit`` in a fresh interpreter.

    Measured from outside as the median wall of ``python -c "import
    splitkit"`` minus that of ``python -c pass``.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def wall(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           cwd=root, timeout=120)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return max(wall("import splitkit") - wall("pass"), 0.0)


def run_traced(wl, seconds, tally, sk, root, spans_path, env):
    import numpy as np
    from bench_reference import Reference
    from bench_trace import Tracer, aggregate, below_roots

    tracer = Tracer(sk)
    resolve_cost, span_cost = tracer.calibrate()
    resolve_id = tracer.name_id("operators.resolve")
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    setup_spans, setup_counts = tracer.take()
    wl.verify()
    chunks, offset = [setup_spans], len(setup_spans)

    # Walls in reference units: each call is divided by the mean of the
    # reference times taken just before and just after it.
    reference = Reference()
    totals, oracle, counts, extra = {}, {}, {}, {}
    untraced, traced, covered, n_spans = 0.0, 0.0, 0.0, 0
    n_calls, start = 0, time.perf_counter()
    ref = reference.seconds()
    while more(n_calls, start, seconds, wl.round):
        wall, out, error = timed(wl.op, n_calls)
        ref_mid = reference.seconds()
        tally.add(checked(wl, n_calls, out, error))
        untraced += wall / ((ref + ref_mid) / 2)

        tracer.install(wl.problems())
        try:
            wall, out, error = timed(tracer.wrap("bench.op", wl.op), n_calls)
        finally:
            tracer.uninstall()
        ref_end = reference.seconds()
        host, ref = (ref_mid + ref_end) / 2, ref_end
        report = checked(wl, n_calls, out, error)
        tally.add(report)
        traced += wall / host
        spans, op_counts = tracer.take()
        inner = spans["name"][spans["parent"] >= 0]
        n_resolve = int(np.count_nonzero(inner == resolve_id))
        wrappers = (resolve_cost * n_resolve
                    + span_cost * (len(inner) - n_resolve))
        covered += (below_roots(spans) - wrappers) / host
        n_spans += len(spans)
        stats, op_oracle = aggregate(tracer.names, spans)
        for name, vals in stats.items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += vals[k]
        for d, src in ((oracle, op_oracle), (counts, op_counts),
                       (extra, report.extra)):
            for key, val in src.items():
                if isinstance(val, (int, float)):
                    d[key] = d.get(key, 0) + val
        spans["parent"][spans["parent"] >= 0] += offset
        chunks.append(spans)
        offset += len(spans)
        n_calls += 1
    n_ops = n_calls * wl.ops_per_round / wl.round

    setup_stats, setup_oracle = aggregate(tracer.names, setup_spans)

    def per_unit(name, k):
        """Traced set-up total plus mean per traced op."""
        return (setup_stats.get(name, [0, 0.0, 0.0])[k]
                + totals.get(name, [0, 0.0, 0.0])[k] / n_ops)

    def count(key):
        return setup_counts.get(key, 0) + counts.get(key, 0) / n_ops

    def oracle_calls(caller, names=("operators.resolve", "operators.forward")):
        return sum(setup_oracle.get((n, caller), 0)
                   + oracle.get((n, caller), 0) / n_ops for n in names)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    calls, incl, self_s = 0, 1, 2
    iters = count("iterations")
    k_eval = count("k_evaluated")
    steps = count("flow_steps")
    evals = count("forward_evals") + count("resolvent_evals")
    metrics = {
        "operators.resolve.calls": per_unit("operators.resolve", calls),
        "operators.resolve.us": ratio(per_unit("operators.resolve", self_s),
                                      per_unit("operators.resolve", calls),
                                      1e6),
        "operators.forward.calls": per_unit("operators.forward", calls),
        "operators.forward.us": ratio(per_unit("operators.forward", self_s),
                                      per_unit("operators.forward", calls),
                                      1e6),
        "operators.useful_ratio": ratio(evals, oracle_calls("solvers.run")),
        "operators.prepare.calls": per_unit("operators.prepare", calls),
        "operators.prepare.s": per_unit("operators.prepare", incl),
        "solvers.run.calls": per_unit("solvers.run", calls),
        "solvers.run.self_s": per_unit("solvers.run", self_s),
        "solvers.self_us_per_iter": ratio(per_unit("solvers.run", self_s),
                                          iters, 1e6),
        "solvers.iterations": iters,
        "solvers.forward_evals": count("forward_evals"),
        "solvers.resolvent_evals": count("resolvent_evals"),
        "solvers.unconverged": count("unconverged"),
        "certificates.certify.self_s": per_unit("certificates.certify",
                                                self_s),
        "certificates.us_per_k": ratio(per_unit("certificates.certify",
                                                self_s), k_eval, 1e6),
        "certificates.k_evaluated": k_eval,
        "certificates.forward.calls": oracle_calls(
            "certificates.certify", ("operators.forward",)),
        "certificates.omega_residual.calls": per_unit(
            "certificates.omega_residual", calls),
        "certificates.omega_residual.s": per_unit(
            "certificates.omega_residual", incl),
        "problems.make.s": per_unit("problems.make", incl),
        "problems.triple.s": per_unit("problems.triple", incl),
        "dynamics.simulate.s": per_unit("dynamics.simulate", incl),
        "dynamics.steps": steps,
        "dynamics.us_per_step": ratio(per_unit("dynamics.simulate", incl),
                                      steps, 1e6),
        "cli.run.s": per_unit("cli.run", incl),
        "cli.sweep.s": per_unit("cli.sweep", incl),
        "cli.flow.s": per_unit("cli.flow", incl),
        "cli.self_s": sum(per_unit(n, self_s) for n in
                          ("cli.main", "cli.run", "cli.sweep", "cli.flow")),
        "cli.bytes_written": extra.get("bytes_written", 0) / n_ops,
        "cli.import_s": (import_seconds(root) if wl.name.startswith("cli")
                         else 0.0),
        "trace.coverage": covered / untraced,
        "trace.overhead": traced / untraced - 1.0,
    }
    np.savez_compressed(spans_path, names=np.array(tracer.names),
                        spans=np.concatenate(chunks),
                        environment=json.dumps(env))
    print(f"call pairs {n_calls}: untraced {untraced:.1f} ref, traced "
          f"{traced:.1f} ref; {n_spans} spans, wrapper cost "
          f"{1e6 * resolve_cost:.2f} us per resolve span and "
          f"{1e6 * span_cost:.2f} us per other span; spans written to "
          f"{spans_path}")
    return metrics


def main(argv=None):
    for var in THREAD_VARS:         # before numpy is first imported
        os.environ[var] = "1"
    os.environ["SPLITKIT_THREADS"] = "1"
    args = parse_args(argv)
    root = os.getcwd()
    try:
        sk = import_splitkit(root)
    except ImportError as exc:
        print(f"error: {exc}; run from the repository root", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    env = environment(root)
    print("environment: " + json.dumps(env, sort_keys=True))
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    wl = WORKLOADS[args.workload](sk, args.seed, workdir)
    tally = Tally()
    try:
        if args.trace:
            spans_path = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
            values = run_traced(wl, args.seconds, tally, sk, root,
                                spans_path, env)
            units = PER_LAYER
        else:
            values = run_untraced(wl, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
