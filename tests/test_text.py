"""The block formatter of splitkit's files against ``%`` itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkit import make_affine_instance, make_saddle_instance, save_instance
from splitkit._text import _BLOCK, FMT, rows
from splitkit.cli import _write_csv
from splitkit.problems import _LAYOUT


def per_value(columns, sep=","):
    """The table as ``%`` writes it, one value at a time."""
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c)
              for c in columns]
    row = sep.join([FMT] * len(columns)) + "\n"
    return "".join(row % v for v in zip(*values)).encode()


def table(columns, sep=b","):
    return b"".join(rows(columns, sep))


def neighbours(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


EDGES = ([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
          5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 4503599627370495.5, -4503599627370495.5,
          9007199254740993.0, 0.5, 1.5, 2.5, 0.1, 1 / 3]
         # fixed and exponent notation switch at 1e-4 and at 1e17
         + neighbours(1e-5) + neighbours(1e-4) + neighbours(1e16)
         + neighbours(1e17)
         + [w for k in range(-40, 41) for v in (10.0**k, float(f"1e{k}"))
            for w in neighbours(v)]
         # decades that 17 digits round up to; exact halves of the 17th
         # digit, which round to even
         + [float(f"1e{k}") for k in (-305, -243, -176, -79, -70, -14)]
         + [1 + k * 2.0**-17 for k in range(1, 40, 2)]
         + [1e14 + k / 8 for k in range(1, 40, 2)]
         + [1e13 + k / 16 for k in range(1, 40, 2)]
         + list(np.arange(2**52 - 40, 2**52 + 40) + 0.5))


def test_edge_values_match_percent():
    x = np.array(EDGES)
    assert table([x]) == per_value([x])
    assert table([-x]) == per_value([-x])


@pytest.mark.parametrize("ncols", [1, 2, 3, 7])
def test_edge_values_in_columns_match_percent(ncols):
    x = np.resize(np.array(EDGES), (ncols, len(EDGES)))
    x[1:] = x[1:, ::-1]
    assert table(list(x)) == per_value(list(x))


def test_integer_and_list_columns_match_percent():
    n = 2 * _BLOCK + 5
    cols = [range(n), list(np.linspace(-3.0, 7.0, n)), np.arange(n) * 0.01,
            [10**k for k in range(n // 100)] * 100 + [0] * (n % 100)]
    assert table(cols) == per_value(cols)


def test_empty_tables():
    assert table([np.zeros(0), []]) == b""
    assert table([]) == b""


def test_separator_and_one_row():
    x = [[1.0], [0.25], [-2e-7]]
    assert (table(x, b" ") == per_value(x, " ")
            == b"1 0.25 -1.9999999999999999e-07\n")


def test_ragged_or_2d_columns_raise_before_any_output():
    with pytest.raises(ValueError, match="one length"):
        rows([np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError, match="1-D"):
        rows([np.zeros((2, 2))])


def test_write_csv_rejects_ragged_columns_and_writes_nothing(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        _write_csv(str(path), "k", range(3), phi=np.zeros(4), slack=None)
    assert not path.exists()
    _write_csv(str(path), "k", range(3), phi=[0.5, 1.0, 2.0], slack=None)
    assert path.read_bytes() == b"k,phi\n0,0.5\n1,1\n2,2\n"


def as_float(pattern):
    return np.array([pattern], np.uint64).view(np.float64)[0]


@st.composite
def column(draw, nrows):
    """One column of ``nrows`` values of one kind, seeded by hypothesis,
    with a few values hypothesis draws itself put in at random places."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bits", "exponents", "decimals", "keys"]))
    if kind == "bits":
        x = rng.integers(0, 2**64, nrows, dtype=np.uint64).view(np.float64)
    elif kind == "exponents":
        x = np.ldexp(rng.uniform(1.0, 2.0, nrows),
                     rng.integers(-1080, 1024, nrows))
    elif kind == "decimals":
        x = (rng.integers(-10**6, 10**6, nrows)
             / 10.0 ** rng.integers(0, 9, nrows))
    else:
        return range(nrows)
    pick = st.floats() | st.integers(0, 2**64 - 1).map(as_float)
    picks = draw(st.lists(pick, max_size=8))
    if nrows:
        x[rng.integers(0, nrows, len(picks))] = picks
    return x if draw(st.booleans()) else x.tolist()


@st.composite
def tables(draw):
    nrows = draw(st.integers(0, 3000))
    return draw(st.lists(column(nrows), min_size=1, max_size=7))


@settings(max_examples=40, deadline=None)
@given(tables())
def test_tables_match_percent(cols):
    assert table(cols) == per_value(cols)


def old_save_instance(inst):
    """The instance file as ``%`` wrote it, one value at a time."""
    kind = next(k for k, (cls, *_) in _LAYOUT.items() if isinstance(inst, cls))
    _, header, arrays = _LAYOUT[kind]
    lines = ["splitkit-instance v1", f"kind {kind}"]
    for name, least in header:
        value = getattr(inst, name)
        lines.append(f"{name} {value if least is not None else FMT % value}")
    for name, *_ in arrays:
        a = getattr(inst, name)
        lines.append(f"{'matrix' if a.ndim == 2 else 'vector'} {name} "
                     + " ".join(map(str, a.shape)))
        lines += (" ".join(FMT % v for v in row) for row in np.atleast_2d(a))
    lines.append("end\n")
    return "\n".join(lines).encode()


@pytest.mark.parametrize("make, args", [
    (make_affine_instance, (50, 3, 0.8)),
    (make_saddle_instance, (20, 30, 4, 0.5, 2.0))], ids=["affine", "saddle"])
def test_instance_files_keep_their_bytes(tmp_path, make, args):
    inst = make(*args)
    save_instance(inst, tmp_path / "inst.txt")
    assert (tmp_path / "inst.txt").read_bytes() == old_save_instance(inst)
