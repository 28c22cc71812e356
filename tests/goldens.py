"""Golden CLI artifacts: the configs in ``tests/golden/``, the verbs run
on each, and the comparison that ``test_golden.py`` applies.

Run as a script to regenerate the artifacts and report, file by file,
which kept their bytes::

    PYTHONPATH=src python tests/goldens.py

Each verb writes into ``tests/golden/<case>/<verb>/``.  A comparison
holds file names, CSV headers, row counts and every text cell (statuses,
method names, ``nan``) exactly, and every number within the absolute
tolerance ``1e-13*(1 + |z_0|^2)`` of its case: near convergence a residual
or a certificate slack is a difference of O(1) vectors, so a moved last
bit is a large relative change but a tiny absolute one.  JSON values are
compared by type: booleans (the certificate gates), integers (iteration
counts and counters), strings and nulls exactly, floats within the same
tolerance.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from splitkit.cli import _initial_point, build_problem, main, parse_config

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Each case: its config file in ``tests/golden/`` and the verbs run on it,
#: each with its extra arguments.
CASES = {
    "affine": {"run": [], "certify": [], "sweep": ["--grid", "0.5,0.9"],
               "flow": []},
    "affine-methods": {"run": [], "flow": []},
    "saddle-20x30": {"run": [], "certify": [],
                     "sweep": ["--grid", "0.5,0.9"]},
}


def config_path(case):
    return os.path.join(HERE, case + ".cfg")


def tolerance(case):
    """``1e-13*(1 + |z_0|^2)`` for the case's start ``z_0``."""
    with open(config_path(case)) as fh:
        cfg = parse_config(fh.read())
    _, problem, _ = build_problem(cfg)
    z0 = _initial_point(cfg, problem.dim)
    return 1e-13 * (1.0 + float(np.dot(z0, z0)))


def generate(case, verb, out):
    """Run ``verb`` of ``case`` into the directory ``out``; returns the
    exit code (0, or 2 where a run stops before converging) and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([verb, "--config", config_path(case), "--out", out,
                     "--quiet", *CASES[case][verb]])
    return code, err.getvalue()


def _numbers_differ(a, b, tol):
    """Whether two text cells differ: they match as equal text, or as two
    finite numbers within ``tol`` of each other."""
    if a == b:
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return True
    return not (math.isfinite(x) and math.isfinite(y) and abs(x - y) <= tol)


def _json_differences(got, want, tol, where):
    if type(got) is not type(want):
        return [f"{where}: {got!r} is not {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} are not {sorted(want)}"]
        return [d for key in want
                for d in _json_differences(got[key], want[key], tol,
                                           f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries, not {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _json_differences(g, w, tol, f"{where}[{i}]")]
    if isinstance(want, float):
        same = (got == want or abs(got - want) <= tol
                or (math.isnan(got) and math.isnan(want)))
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} is not {want!r}"]


def _csv_differences(got, want, tol, name):
    got, want = got.splitlines(), want.splitlines()
    if got[:1] != want[:1]:
        return [f"{name}: header {got[:1]} is not {want[:1]}"]
    if len(got) != len(want):
        return [f"{name}: {len(got) - 1} rows, not {len(want) - 1}"]
    diffs = []
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        g, w = g.split(","), w.split(",")
        if len(g) != len(w) or any(_numbers_differ(a, b, tol)
                                   for a, b in zip(g, w)):
            diffs.append(f"{name} row {i}: {g} is not {w}")
    return diffs


def differences(got_dir, want_dir, tol):
    """What in the artifacts under ``got_dir`` does not match those under
    ``want_dir``, as messages; empty when they match."""
    got, want = sorted(os.listdir(got_dir)), sorted(os.listdir(want_dir))
    if got != want:
        return [f"files {got} are not {want}"]
    diffs = []
    for name in want:
        with open(os.path.join(got_dir, name)) as fh:
            g = fh.read()
        with open(os.path.join(want_dir, name)) as fh:
            w = fh.read()
        if name.endswith(".json"):
            diffs += _json_differences(json.loads(g), json.loads(w), tol,
                                       name)
        else:
            diffs += _csv_differences(g, w, tol, name)
    return diffs


def regenerate():
    """Write every case's artifacts afresh; print which files kept their
    bytes, which changed and which are new or gone."""
    for case, verbs in CASES.items():
        for verb in verbs:
            target = os.path.join(HERE, case, verb)
            with tempfile.TemporaryDirectory() as tmp:
                out = os.path.join(tmp, "out")
                code, err = generate(case, verb, out)
                if code not in (0, 2) or err:
                    sys.exit(f"{case} {verb}: exit code {code}: {err}")
                old = set(os.listdir(target) if os.path.isdir(target)
                          else ())
                for name in sorted(old | set(os.listdir(out))):
                    path, new = (os.path.join(target, name),
                                 os.path.join(out, name))
                    if not os.path.exists(new):
                        state = "gone"
                    elif name not in old:
                        state = "new"
                    else:
                        with open(path, "rb") as a, open(new, "rb") as b:
                            state = ("byte-identical" if a.read() == b.read()
                                     else "changed")
                    print(f"{state:15} {case}/{verb}/{name}")
                shutil.rmtree(target, ignore_errors=True)
                shutil.copytree(out, target)


if __name__ == "__main__":
    regenerate()
