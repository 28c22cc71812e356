"""The text of every float in splitkit's files: ``FMT``, 17 significant
digits, which read back to the same bits, so a rerun reproduces each file
byte for byte.  :func:`rows` writes a table with the bytes of one ``%``
per value, from numpy passes over blocks of values."""

import functools

import numpy as np

FMT = "%.17g"

_BLOCK = 1024                           # rows per block: bounds memory
_E16 = 10**16
_SPLIT = 134217729.0                    # 2**27 + 1, Veltkamp's split
_PLACE = np.arange(18, dtype=np.uint8)[:, None]


@functools.cache
def _tables():
    """Per decimal exponent E in [-324, 308], at E + 324: the shift j with
    c = 10**(16-E) * 2**-j in [1, 2), c as hi + lo exactly from Python
    integers (hi also split in 26-bit halves), and the suffix (``e+XX``
    or nothing; ``inf`` and ``nan`` follow).  Then the four ASCII digits
    of each integer below 10**4 as a uint32, and the sign and ``0.000``
    before a value, at sign + 2 * zeros for 0 to 4 zeros."""
    scales, suffixes = [], []
    for E in range(-324, 309):
        k = 16 - E
        j = (10**k).bit_length() - 1 if k >= 0 else -(10**-k).bit_length()
        num, den = (10**k, 1 << j) if k >= 0 else (1 << -j, 10**-k)
        hi = num / den                              # correctly rounded
        a, b = hi.as_integer_ratio()
        scales.append((j, hi, (num * b - a * den) / (den * b)))
        suffixes.append(b"" if -4 <= E < 17 else b"e%+03d" % E)
    shifts, hi, lo = map(np.array, zip(*scales))
    t = hi * _SPLIT
    hh = t - (t - hi)
    quads = 48 + np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10

    def char_rows(texts, width):
        joined = b"".join(s.ljust(width, b"\0") for s in texts)
        return np.frombuffer(joined, np.uint8).reshape(-1, width).T.copy()

    signs = [sign + b"0.000"[:z + 1] * (z > 0)
             for z in range(5) for sign in (b"", b"-")]
    return (shifts, hi, hh, hi - hh, lo,
            char_rows(suffixes + [b"inf", b"nan"], 5),
            quads.astype(np.uint8).view(np.uint32).ravel(),
            char_rows(signs, 6))


def _chars(x):
    """``FMT % v`` of each value of the float64 array ``x``, one column of
    a ``(29, len(x))`` uint8 array with 0 in empty slots: the sign and
    the ``0.000`` of a small value (6), the digits with the point among them
    (18), and the exponent, ``inf`` or ``nan`` (5).

    A finite nonzero ``|v|`` times its decimal exponent E's c, by Dekker's
    product, is ``p = |v| * 10**(16-E)`` within 1e-12, rounded to the
    digits N.  Where N does not have 17 digits (E missed, or the rounding
    carried) or ``p`` lies within 1e-6 of a tie, the value takes ``%``."""
    shifts, hi, hh, hl, lo, suffix, quads, prefix = _tables()
    finite, isnan = np.isfinite(x), np.isnan(x)
    nonzero = finite & (x != 0.0)
    a = np.where(nonzero, np.abs(x), 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)      # 0 where a is 1
    i = E + 324
    xj = np.ldexp(a, shifts[i])                     # exact, subnormals too
    p = xj * hi[i]
    t = xj * _SPLIT
    xh = t - (t - xj)
    xl = xj - xh
    ch, cl = hh[i], hl[i]
    err = ((xh * ch - p) + xh * cl + xl * ch) + xl * cl + xj * lo[i]
    whole = np.floor(err)
    frac = err - whole
    N = p.astype(np.int64) + whole.astype(np.int64)
    bad = (N < _E16) | (np.abs(frac - 0.5) <= 1e-6)
    N += frac > 0.5
    bad = nonzero & (bad | (N >= 10 * _E16))
    N *= nonzero

    # One row per digit: d0, then four groups of four through `quads`.
    lead, N = np.divmod(N, _E16)
    hi8, lo8 = np.divmod(N, 10**8)
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = (48 + lead.astype(np.uint32)) << 24
    words[:, 1], words[:, 2] = (quads[g] for g in np.divmod(hi8, 10**4))
    words[:, 3], words[:, 4] = (quads[g] for g in np.divmod(lo8, 10**4))
    D = np.ascontiguousarray(words.view(np.uint8)[:, 3:].T)
    # n digits show, the point after the first `point` (none at 18): the
    # trailing zeros go, but not those before a fixed point.
    sig = np.max((D != 48).view(np.uint8) * (_PLACE[:17] + 1), axis=0)
    fixed = (E >= -4) & (E < 17)
    small = fixed & (E < 0)
    point = np.where(fixed & ~small, E + 1, 1).astype(np.uint8)
    n = np.maximum(sig, point) * finite
    point[small | (n <= point)] = 18
    C = np.empty((29, x.size), np.uint8)
    C[:6] = prefix.take((np.signbit(x) & ~isnan) + 2 * small * -E, axis=1)
    Z = np.zeros((19, x.size), np.uint8)
    np.multiply(D, (_PLACE[:17] < n).view(np.uint8), out=Z[1:18])
    np.multiply(Z[1:], (_PLACE < point).view(np.uint8), out=C[6:24])
    C[6:24] += Z[:-1] * (_PLACE > point).view(np.uint8)
    C[6:24] += (_PLACE == point).view(np.uint8) * np.uint8(46)
    C[24:] = suffix.take(np.where(finite, E + 324, 633 + isnan), axis=1)
    for k in np.flatnonzero(bad):
        text = (FMT % x[k]).encode()
        C[:, k] = 0
        C[:len(text), k] = np.frombuffer(text, np.uint8)
    return C


def rows(columns, sep=b","):
    """The bytes of a table, a block of rows at a time: row ``r`` is
    ``FMT % c[r]`` of each column ``c``, joined by ``sep``, then a
    newline.  Raises ``ValueError`` at once unless the columns are 1-D
    sequences of numbers of one length."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    if len({c.shape for c in cols}) > 1 or cols and cols[0].ndim != 1:
        raise ValueError("table columns must be 1-D and of one length, got "
                         f"shapes {[c.shape for c in cols]}")
    return (_block([c[r0:r0 + _BLOCK] for c in cols], sep)
            for r0 in range(0, cols[0].size if cols else 0, _BLOCK))


def _block(cols, sep):
    x = np.stack(cols, axis=1).ravel()
    out = np.empty((x.size, 30), np.uint8)
    out[:, :29] = _chars(x).T
    out[:, 29] = ord(sep)
    out[len(cols) - 1::len(cols), 29] = ord("\n")
    return out.tobytes().translate(None, b"\0")
