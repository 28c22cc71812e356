"""The CLI's artifacts on the configs in ``tests/golden/`` match the
committed goldens there, by the comparison of :mod:`goldens`."""

import json
import os
import re
import shutil

import pytest

import goldens

_VERBS = [(case, verb) for case, verbs in goldens.CASES.items()
          for verb in verbs]


@pytest.mark.parametrize("case, verb", _VERBS)
def test_artifacts_match_the_goldens(tmp_path, case, verb):
    # file sets, headers, row counts, statuses, counts and gates exactly;
    # numbers within 1e-13*(1 + |z_0|^2)
    out = str(tmp_path / "out")
    code, err = goldens.generate(case, verb, out)
    assert code in (0, 2) and err == ""
    want = os.path.join(goldens.HERE, case, verb)
    assert goldens.differences(out, want, goldens.tolerance(case)) == []


def _copy(tmp_path, case, verb):
    out = tmp_path / "copy"
    shutil.copytree(os.path.join(goldens.HERE, case, verb), out)
    return out


def test_comparison_catches_a_changed_digit_a_dropped_row_and_a_gate(
        tmp_path):
    # each edit of a copy of the goldens is a difference; the copy itself
    # is none
    tol = goldens.tolerance("affine")
    want = os.path.join(goldens.HERE, "affine", "run")
    assert goldens.differences(str(_copy(tmp_path, "affine", "run")), want,
                               tol) == []
    csv, = (p for p in _copy(tmp_path / "a", "affine", "run").glob(
        "*__BFoRB__*.csv") if "certificate" not in p.name)
    lines = csv.read_text().splitlines(keepends=True)
    # the third significant digit of row 5's step norm
    k, step, rest = lines[5].split(",", 2)
    digit = re.search(r"[1-9]\.?\d(\d)", step).end() - 1
    lines[5] = ",".join([k, step[:digit] + str((int(step[digit]) + 1) % 10)
                         + step[digit + 1:], rest])
    csv.write_text("".join(lines))
    assert goldens.differences(str(csv.parent), want, tol)
    csv.write_text("".join(lines[:5] + lines[6:]))
    assert goldens.differences(str(csv.parent), want, tol)
    summary, = _copy(tmp_path / "b", "affine", "run").glob(
        "*BFoRB*__summary.json")
    data = json.loads(summary.read_text())
    data["certificate"]["lemma_ok"] = not data["certificate"]["lemma_ok"]
    summary.write_text(json.dumps(data))
    assert goldens.differences(str(summary.parent), want, tol)
