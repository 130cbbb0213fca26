"""Python's ``'%.17g' % x``, byte for byte, for float64 arrays in numpy.

``cells(x)`` gives each x = d.ddd 10^k a row of CELL_WIDTH uint8: the sign;
``0.`` and -k-1 zeros when -4 <= k < 0; the 17 significant digits with a
``.`` after the first (scientific notation, 1 <= |x| < 10) or, moved left,
after the k-th; ``e``, sign and 2 or 3 digits of k when k < -4 or k > 16.
Trailing zeros and unused bytes are NUL, which ``lines`` drops as it joins
columns of cells into CSV lines. |x| 10^(16-k) is a double-double product
(Dekker, Numer. Math. 18, 224 (1971)) with (hi, lo) pairs of 10^e, e in
-300..300, built from Python ints on first use: absolute error about 1e-14.
Its rounded digits come from a table of 4-digit groups, plain and
stripped. Zero, -0, nan and +-inf are fixed words. Python formats the cells
the kernel cannot be sure of: within 1e-9 of a rounding tie (exact ties
occur), |x| outside [1e-280, 1e280], or k off by one, so that the
significand leaves [10^16, 10^17) (floor(log10|x|) misses only within a few
ulps of a power of ten).
"""

import functools

import numpy as np

CELL_WIDTH = 29
_P16, _P17 = 10 ** 16, 10 ** 17
_WORDS = np.array([b"0", b"inf", b"nan", b"-0", b"-inf", b"nan"],   # isinf + 2 isnan + 3 signbit
                  f"S{CELL_WIDTH}").view(np.uint8).reshape(6, CELL_WIDTH)
_BEFORE = np.arange(16) < np.arange(17)[:, None]     # [k, j]: digit j + 1 is before the '.'


@functools.cache
def _tables():
    """By e + 300, e in -300..300: (hi, lo) of 10^e and the prefix and exponent
    bytes of k = e; then the 4-digit groups as uint32, plain, then stripped."""
    hi, lo, es = [], [], range(-300, 301)
    for e in es:
        num, den = 10 ** max(e, 0), 10 ** max(-e, 0)
        h = num / den                   # int true division rounds correctly
        p, q = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * q - p * den) / (den * q))
    powers = np.array([hi, lo])
    prefixes = np.array([b"0.000"[:1 - e] if -4 <= e < 0 else b"" for e in es], "S5")
    exponents = np.array([b"e%+03d" % e if e < -4 or e > 16 else b"" for e in es], "S5")
    g = np.arange(10000)
    d = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    d += ord("0")
    trailing = np.logical_and.accumulate(d[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    groups = np.concatenate([d, np.where(trailing, 0, d).astype(np.uint8)])
    return (powers, prefixes.view(np.uint8).reshape(-1, 5),
            exponents.view(np.uint8).reshape(-1, 5), groups.view(np.uint32).ravel())


def _scaled(a, k, powers):
    """floor(a 10^(16-k)) as int64 and the fraction left over."""
    hi, lo = powers[:, 316 - k]
    ca, ch = 134217729.0 * a, 134217729.0 * hi      # Dekker's split: 26-bit halves
    ah, hh = ca - (ca - a), ch - (ch - hi)
    al, hl = a - ah, hi - hh
    p = a * hi
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    f = np.floor(r)
    return p.astype(np.int64) + f.astype(np.int64), r - f


def cells(x):
    """The bytes of '%.17g' % v for each v in x, as (x.size, CELL_WIDTH) uint8."""
    x = np.asarray(x, dtype=np.float64).ravel()
    powers, prefixes, exponents, groups = _tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k, powers)
    slow = fast & ((n < _P16) | (n >= _P17) | (np.abs(frac - 0.5) < 1e-9))
    slow |= ~fast & np.isfinite(x) & (x != 0.0)
    n += frac > 0.5
    n, k = np.where(n == _P17, _P16, n), k + (n == _P17)
    # d0 and four groups of four digits; a group takes its stripped form
    # (index + 10,000) when every later group is zero
    hi = n // 10 ** 8              # int64 // is fast and % is not
    lo, d0 = n - hi * 10 ** 8, hi // 10 ** 8
    hi -= d0 * 10 ** 8
    g1, g3 = hi // 10000, lo // 10000
    g = [g1, hi - g1 * 10000, g3, lo - g3 * 10000]
    tail = np.ones(x.size, bool)
    for group in g[::-1]:
        zero = group == 0
        group += 10000 * tail
        tail &= zero
    out = np.zeros((x.size, CELL_WIDTH), np.uint8)
    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    out[:, 1:6] = prefixes.take(k + 300, axis=0)
    out[:, 6] = ord("0") + d0
    out[:, 8:24] = np.stack([groups[group] for group in g], axis=1).view(np.uint8)
    out[:, 24:] = exponents.take(k + 300, axis=0)
    sci = (k < -4) | (k > 16)
    out[:, 7] = ((sci | (k == 0)) & (out[:, 8] != 0)) * ord(".")
    # 10 <= |x| < 1e17: digits 1..k keep their zeros and move one byte left; then '.'
    i = np.flatnonzero(~sci & (k > 0))
    cell, kk, rows = out.take(i, axis=0), k[i], np.arange(i.size)
    before = _BEFORE.take(kk, axis=0)
    np.copyto(cell[:, 8:24], ord("0"), where=before & (cell[:, 8:24] == 0))
    dot = (kk < 16) & (cell[rows, 8 + np.minimum(kk, 15)] != 0)
    np.copyto(cell[:, 7:23], cell[:, 8:24], where=before)
    cell[rows, 7 + kk] = dot * np.uint8(ord("."))
    out[i] = cell
    v = x[~fast & ~slow]
    out[~fast & ~slow] = _WORDS[np.isinf(v) + 2 * np.isnan(v) + 3 * np.signbit(v)]
    text = [b"%.17g" % v for v in x[slow].tolist()]
    out[slow] = np.array(text, f"S{CELL_WIDTH}").view(np.uint8).reshape(-1, CELL_WIDTH)
    return out


def lines(columns):
    """CSV lines from cell columns: (..., width) uint8 arrays that broadcast
    against each other, joined by ',' and ended by '\\n', NULs dropped."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    buf = np.empty(shape + (sum(c.shape[-1] + 1 for c in columns),), np.uint8)
    at = 0
    for c in columns:
        buf[..., at:at + c.shape[-1]] = c
        at += c.shape[-1] + 1
        buf[..., at - 1] = ord(",")
    buf[..., -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")
