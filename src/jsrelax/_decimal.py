"""Exact decimal text of float64 arrays: the bytes of Python's "%.17g" and "%.6f".

Python's %-format rounds x * 10^p to the integer q, half to even (its dtoa is
correctly rounded), and prints q's digits.  Here that product is taken
exactly, as a two-double sum hi + lo with hi = fl(x * 10^p): 10^p is a double
for p <= 22, and Dekker's product splits both factors into 26-bit halves
whose products are exact.  So the rounding is decided from hi and lo with no
rounding error, in numpy float arithmetic, with no Python call per number
(Dekker 1971; for the conversion, Gay 1990 and Adams 2019).

  - "%.17g": p = 16 - X with X = floor(log10|x|), so that q has 17 digits.
    Then hi >= 2^53 is an even integer and q = hi + rint(lo).  np.log10 may
    be off by one next to a power of ten; one step that moves p back into
    10^16 <= q < 10^17 corrects it.  Kept for 1e-4 <= |x| < 1e17, where %g
    writes fixed-point digits (exponent -4 <= X <= 16).
  - "%.6f": p = 6.  Kept for |x| < 2^52 / 10^6, where hi's spacing is at most
    1/2: the fraction of hi decides the rounding, and where it is exactly 1/2,
    the sign of lo.

Every other number (zero and small numbers under %g, large ones, inf, NaN)
goes through the %-format one element at a time.

A number is written as a column of four-character words, with its sign,
digits and point at fixed places and every unused byte 0: leading zeros, the
trailing zeros %g strips, a point with nothing after it.  text() joins such
columns and drops the zero bytes, and returns ASCII bytes, which a writer
sends to a binary sink as they are.
"""

from __future__ import annotations

import numpy as np

__all__ = ["blocks", "cells", "text"]

# Numbers per cells() call in the writers.  At 2^13 the allocator reuses one
# call's temporaries (about 2 MB) in the next; at 2^14 glibc handed them back
# to the system after every call, and a 30000-node write_norm took four times
# the page faults and half again the time.
BLOCK = 8192

_VELTKAMP = 2.0 ** 27 + 1.0
_POW10 = (5 ** np.arange(21)).astype(np.float64) * 2.0 ** np.arange(21)  # exact: 5^20 < 2^53

_WORD = np.dtype("<u4")  # four characters, the first one in the low byte
_ZERO, _POINT, _MINUS = (ord(c) for c in "0.-")
_HEAD = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype=_WORD)  # the first i bytes
_TAIL = ~_HEAD[::-1]  # the last i bytes


def _quad_tables():
    """For 0..9999 written as four digits: the characters, the characters from
    the first nonzero digit on (none for 0), and the place 0..3 of the last
    nonzero digit (-99 for 0).  Built in bytes, with no temporary over 40 KB."""
    ten = np.arange(10, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits[..., 0] = ten[:, None, None, None]
    digits[..., 1] = ten[:, None, None]
    digits[..., 2] = ten[:, None]
    digits[..., 3] = ten
    digits = digits.reshape(10000, 4)
    nonzero = digits != 0
    length = np.logical_or.accumulate(nonzero, axis=1).sum(axis=1, dtype=np.uint8)
    last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1).sum(axis=1, dtype=np.int8) - 1
    return ((digits + np.uint8(_ZERO)).view(_WORD).ravel(), _TAIL.take(length),
            np.where(length > 0, last, np.int8(-99)))


_CHARS, _FROM_FIRST, _LAST = _quad_tables()
# %.17g's word j starts with digit _FIRST_DIGIT[j], and _UPTO[24 + i - f] keeps
# the bytes of a word that starts with digit f up to digit i
_FIRST_DIGIT = 4 * np.arange(5) - 3
_UPTO = _HEAD[np.clip(np.arange(49) - 23, 0, 4)]


def _halves(a):
    """Veltkamp's split a = hi + lo into two doubles of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _product(a: np.ndarray, p):
    """hi = fl(a * 10^p) and lo with hi + lo = a * 10^p exactly, for 0 <= p <= 20."""
    hi = a * _POW10.take(p)
    ah, al = _halves(a)
    bh, bl = _POW10_HI.take(p), _POW10_LO.take(p)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _quads(q: np.ndarray, out: np.ndarray) -> None:
    """The last 4 * len(out) decimal digits of each q >= 0, four to a row of out."""
    for j in range(len(out) - 1, 0, -1):
        rest = q // 10000
        np.subtract(q, rest * 10000, out=out[j])
        q = rest
    out[0] = q


def _g17(x: np.ndarray, out: np.ndarray) -> None:
    """Words of "%.17g" for 1e-4 <= |x| < 1e17, into out of shape (11, len(x)).

    q's 17 digits d0..d16 come as five words "000d0", "d1..d4", .., "d13..d16".
    Words 0-4 keep d0..dX (the integer part) and the sign in the first byte;
    word 5 holds "0" for X < 0 and the point; words 6-10 keep the digits after
    dX up to the last nonzero one, and for X < 0 the zeros before d0.
    """
    a = np.abs(x)
    p = 16 - np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _product(a, p)
    q = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    off = np.flatnonzero((q < 10 ** 16) | (q >= 10 ** 17))
    if off.size:
        p[off] += np.where(q[off] < 10 ** 16, 1, -1)
        hi, lo = _product(a[off], p[off])
        q[off] = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exp = 16 - p
    quads = np.empty((5, x.size), dtype=np.intp)
    _quads(q, quads)  # word j holds the digits 4j - 3 .. 4j, with d0 > 0
    last = (_LAST.take(quads) + _FIRST_DIGIT[:, None]).max(axis=0)  # the last nonzero digit
    upto_exp = _UPTO.take(24 + exp - _FIRST_DIGIT[:, None])
    upto_last = _UPTO.take(24 + last - _FIRST_DIGIT[:, None])
    chars = _CHARS.take(quads)
    np.bitwise_and(chars, upto_exp, out=out[:5])
    out[0] = (out[0] & _TAIL[1]) | np.signbit(x) * _MINUS
    out[5] = (exp < 0) * (_ZERO << 16) | (last > exp) * (_POINT << 24)
    np.bitwise_and(chars & upto_last, ~upto_exp, out=out[6:])


def _f6(x: np.ndarray, out: np.ndarray) -> None:
    """Words of "%.6f" for |x| < 2^52 / 10^6, into out of shape (5, len(x)).

    q is split into its integer part I < 10^10, digits i0..i9, and six
    decimals f0..f5, written as the words "__i0i1", "i2..i5", "i6..i9",
    "_.f0f1" and "f2..f5" (_ a 0 byte).  The words of I lose their leading
    zeros (never i9), and the sign takes the first byte, always one of them.
    """
    a = np.abs(x)
    hi = a * 1e6
    whole = np.floor(hi)
    frac = hi - whole
    q = whole.astype(np.int64)
    q += frac > 0.5
    # frac is a multiple of hi's spacing, at most 1/2 here, and the exact
    # product lies within half a spacing of hi: it rounds as hi does unless
    # frac is 1/2, where Dekker's lo decides
    tie = np.flatnonzero(frac == 0.5)
    lo = _product(a[tie], 6)[1]
    q[tie] += (lo > 0) | ((lo == 0) & (q[tie] % 2 == 1))
    i = q // 10 ** 6
    quads = np.empty((5, x.size), dtype=np.intp)
    _quads(i, quads[:3])
    _quads(q - i * 10 ** 6, quads[3:])
    chars = _CHARS.take(quads)
    kept = _FROM_FIRST.take(quads[:3])
    kept[1] |= (quads[0] != 0) * _TAIL[4]
    kept[2] |= ((quads[0] | quads[1]) != 0) * _TAIL[4] | _TAIL[1]
    np.bitwise_and(chars[:3], kept, out=out[:3])
    out[0] = out[0] | np.signbit(x) * _MINUS
    out[3] = (chars[3] & _TAIL[2]) | (_POINT << 8)
    out[4] = chars[4]


# format -> (word writer, its words per number, kernel range lo <= |x| < hi)
_FORMATS = {
    "%.17g": (_g17, 11, 1e-4, 1e17),
    "%.6f": (_f6, 5, 0.0, 2.0 ** 52 / 10 ** 6),
}


def _words(text: bytes, count: int) -> np.ndarray:
    """text padded with 0 bytes to count words."""
    return np.frombuffer(text.ljust(4 * count, b"\0"), dtype=_WORD)


def cells(x: np.ndarray, fmt: str, suffix: bytes) -> np.ndarray:
    """(k, len(x)) words: column j is fmt % x[j], then suffix, with 0 bytes between.

    fmt is "%.17g" or "%.6f".  Numbers outside the kernel's range are
    %-formatted one by one.
    """
    write, words, lo, hi = _FORMATS[fmt]
    x = np.array(x, dtype=np.float64)
    mag = np.abs(x)
    rest = np.flatnonzero(~((mag >= lo) & (mag < hi)))  # NaN lands here too
    texts = [(fmt % v).encode() for v in x[rest].tolist()]
    x[rest] = 1.0  # in range; these columns are overwritten below
    width = max([words, *(-(-len(t) // 4) for t in texts)])
    tail = -(-len(suffix) // 4)
    out = np.zeros((width + tail, x.size), dtype=_WORD)
    write(x, out[:words])
    out[width:] = _words(suffix, tail)[:, None]
    for j, t in zip(rest.tolist(), texts):
        out[:width, j] = _words(t, width)
    return out


def blocks(n: int):
    """Slices of at most BLOCK numbers covering range(n)."""
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


def text(*columns: np.ndarray) -> bytes:
    """Column j of every cells array in turn, for each j, as ASCII bytes without the 0 bytes."""
    # a row of zero words is dropped before the bytewise pass that drops the rest
    words = np.concatenate([c[np.bitwise_or.reduce(c, axis=1) != 0] for c in columns])
    # in pieces of at most 64 KiB, which the allocator reuses: a fresh buffer
    # of a megabyte costs a page fault per 4 KiB written
    step = max(1, 16384 // max(1, len(words)))
    return b"".join(
        words[:, i:i + step].T.tobytes().translate(None, b"\0")
        for i in range(0, words.shape[1], step)
    )
