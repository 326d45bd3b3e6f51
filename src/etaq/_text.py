"""CSV text of float64 and integer columns, a block of rows at a time, and
the float lists of the gap JSON, a block of values at a time.

A CSV float's text is exactly ``'%.17g' % v``, an integer's ``str(v)``, and
a JSON list value's ``repr(v)``, or json's NaN, Infinity and -Infinity.

The 17-digit significand of |v| is |v| * 10^(16 - e) rounded half to even,
taken from a double-double product (Dekker's TwoProduct, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
with 10^(16 - e) as an exact (hi, lo) pair.  The decimal exponent
e = floor(log10|v|) is only an estimate: a product outside [10^16, 10^17)
shows that it was wrong.  Where 10^(16 - e) is exact (0 <= 16 - e <= 22)
the product is exact, and a tie goes to the even significand.  repr's
shortest digits are the product's nearest 15-digit rounding, else its
nearest 16-digit one, whichever first lies within half the binary spacing
of v, else the 17-digit significand (Steele and White, and Gay, "Correctly
rounded binary-decimal and decimal-binary conversions", 1990; `_shortest`).
Python writes the values this cannot decide:
- non-finite ones, and magnitudes outside [_MIN_ABS, _MAX_ABS], which
  covers the subnormal and the huge ones;
- those whose product falls outside [10^16, 10^17 - 1);
- those whose product lies within 2^-20 of a half-integer where
  10^(16 - e) is inexact, since they could be ties;
- for repr, those with e >= 16, exact powers of two, distances within 2^-20
  of the half spacing or of a 16-digit tie, and roundings to 10^17.
Python also writes a CSV block of fewer than FEW_VALUES values, one value
at a time.

Each row is one line of a uint64 matrix, and each value a fixed slot of
8-byte words in it, NUL where its text leaves it empty; one ``translate``
deletes every NUL.  An integer column's slots take as many words as its
longest text and separator need, and numpy's cast of int64 to a NUL-padded
bytes dtype writes them.  A float takes 4 words: its sign at byte 0, the
"0.000" prefix at bytes 1-5, its 17 digits from byte 7 with the point, the
"e+XX" suffix at bytes 25-29, and in a CSV the "," or newline after it at
byte 31.  Its digits, from a table of 4-digit groups with zero digits NUL,
two groups to a word, move up one byte past the point: d + (d & moved) *
255 per word, the top byte carried into the next.  A table row keyed by
(exponent, sign, digits kept) gives the sign, the prefix, the point, "0"
at each zero digit kept, and in JSON a fifth word, the list's separator.
A float column or JSON block of zeros only is a lookup by sign.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

# rows per block: at the surface's 4 columns, a block's matrix, texts and
# work arrays take about 0.8 MB; at 2^12 rows, more of them are new pages
# in a fresh process, and its writes were slower
BLOCK_ROWS = 2**11
_FLOAT_WORDS = 4
_MIN_ABS = 1e-290  # 10^(16 - e) and its halves stay normal doubles
_MAX_ABS = 1e290   # the Veltkamp split of |v| does not overflow
_E_MIN = -300      # the exponent tables cover every e of a value in range
_E_SPAN = 600
_E_LOW, _E_HIGH = -5, 17  # the layout's exponents, all scientific beyond them
_HALF_BAND = 2.0**-20  # this close to 1/2, an inexact product goes to Python
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitting constant
# below this many values in a CSV block, Python's % and str take less time
# than the numpy calls and the first build of the tables
FEW_VALUES = 2048
# the last word of a slot, with the separator after its value
_COMMA, _NEWLINE = np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"\n", np.uint64)
# what follows each value of a json list
_JSON_SEP = ",\n    "
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """uint8 rows of a multiple of 8 bytes, as uint64 words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


@lru_cache(maxsize=None)
def _tables() -> dict:
    """The tables of both formats, built on first use."""
    g = np.arange(10_000, dtype=np.int16)
    digits = np.stack([g // 10**j % 10 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    digits |= (digits > 0) * np.uint8(48)  # a group of 4 digits, its zero digits NUL
    group = digits.view(np.uint32).astype(np.uint64).ravel()
    # by e clipped to [-5, 17], the digit the point follows: e in fixed
    # notation (0 <= e <= 16), 0 in scientific, none (-1) for -4 <= e < 0
    x = np.arange(_E_LOW, _E_HIGH + 1)
    point = np.where((x >= 0) & (x <= 16), x, np.where((x >= -4) & (x < 0), -1, 0))
    # by e: the bytes of words 1 and 2 whose digits follow the point, the
    # suffix in word 3 where scientific, and e's first layout row, less 126
    e = np.arange(_E_MIN, _E_MIN + _E_SPAN)
    c = np.clip(e, _E_LOW, _E_HIGH) - _E_LOW
    by_e = np.zeros((_E_SPAN, 4, 8), np.uint8)
    by_e[:, :2] = ((point[c, None] >= 0) & (np.arange(16) >= point[c, None])).reshape(-1, 2, 8)
    by_e[:, :2] *= 255
    by_e[:, 2, 1:6] = np.array([b"e%+03d" % k if k < -4 or k > 16 else b""
                                for k in e.tolist()], "S5")[:, None].view(np.uint8)
    return {"groups": (group, group << 32), "point": point[:, None, None],
            "by_e": _words(by_e).reshape(_E_SPAN, 4), "row": c * 36 - 126}


@lru_cache(maxsize=None)
def _layout(text) -> np.ndarray:
    """(e clipped to [-5, 17], sign, digits kept) -> a `text` slot without
    its nonzero digits and suffix: the sign, the "0.000" prefix, "0" at each
    digit kept, the point, and the text after the value in a fifth word.
    Digit i sits at byte 7 + i, or 8 + i past the point.  In fixed notation
    a value keeps its digits up to the point, and repr one more where
    e < 16, for its ".0"."""
    _, after_point, _, follow = text
    point = _tables()["point"]
    c = np.arange(_E_LOW, _E_HIGH + 1)[:, None, None]
    kept = np.arange(18)[:, None]
    fixed = (c >= 0) & (c < 17 - after_point)
    keep = np.where(fixed, np.maximum(kept, c + 1 + after_point), kept)
    point = np.where(keep > point + 1, point, -1)  # none where no digit follows
    i = np.arange(17)
    slots = np.zeros((len(c), 2, 18, 8 * _FLOAT_WORDS + (len(follow) + 7) // 8 * 8), np.uint8)
    at = 7 + i + ((i > point) & (point >= 0))
    np.put_along_axis(slots, at[:, None], np.where(i < keep, 48, 0)[:, None], axis=-1)
    # the point, or digit 0's "0" again where there is none
    np.put_along_axis(slots, 8 + point[:, None], np.where(point >= 0, ord("."), 48)[:, None], -1)
    slots[:, 1, :, 0] = ord("-")
    for x in range(-4, 0):
        slots[x - _E_LOW, :, :, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
    slots[..., 8 * _FLOAT_WORDS:8 * _FLOAT_WORDS + len(follow)] = np.frombuffer(follow, np.uint8)
    return _words(slots).reshape(len(c) * 36, -1)


@lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as hi + lo, hi the nearest double and lo the nearest double to
    the rest (0 where 10^k is exact), with hi split into two halves of at
    most 26 bits."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        scale = 10**-k
        hi = 1 / scale  # int true division rounds correctly
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    mant, exp = math.frexp(hi)
    big = mant * _SPLIT
    h1 = math.ldexp(big - (big - mant), exp)
    return hi, h1, hi - h1, lo


def _python_words(texts: list[str], words: int) -> np.ndarray:
    """Slots of `words` words holding the given texts."""
    return np.array(texts, dtype=f"S{8 * words}").view(np.uint64).reshape(len(texts), words)


def _product(v: np.ndarray):
    """(whole, half, e, a, hi, decided): |v| * 10^(16 - e) = whole + 1/2 +
    half, with whole an int64 (0 for a zero) and -1/2 <= half < 1/2, to
    within 2^-40, and exactly where 10^(16 - e) is exact; `a` is |v| where
    it is in range (1.0 elsewhere) and `hi` the double nearest 10^(16 - e).
    `decided` is where e is right and the rounding of whole + 1/2 + half to
    an integer is sure."""
    with np.errstate(all="ignore"):
        a = np.abs(v)
        zero = a == 0.0
        fast = (a >= _MIN_ABS) & (a <= _MAX_ABS)
        a = np.where(fast, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        e_max = int(e.max(initial=0))
        powers = np.array([_pow10(16 - x) for x in range(e_max, int(e.min(initial=0)) - 1, -1)])
        hi, h1, h2, lo = np.moveaxis(powers.take(e_max - e, axis=0), -1, 0)
        a1 = a * _SPLIT
        a1 -= a1 - a
        a2 = a - a1
        p = a * hi  # an integer, since it is at least 2^53
        half = (((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2 + a * lo
        floor = np.floor(half)
        half -= floor
        half -= 0.5
        whole = p.astype(np.int64) + floor.astype(np.int64)
        # the product must lie in [10^16, 10^17 - 1) before rounding, which
        # may reach 10^16; a tie is decided here where 10^(16 - e) is exact
        sure = (fast & ((whole - 10**16).view(np.uint64) < 9 * 10**16 - 1)
                & ((np.abs(half) >= _HALF_BAND) | (lo == 0.0)))
    whole *= sure  # 0 for a zero, and in the tables' range where Python writes
    return whole, half, e, a, hi, sure | zero


def _round_half_even(whole: np.ndarray, half: np.ndarray) -> np.ndarray:
    """whole + 1/2 + half rounded to an integer, half to even, in place.
    Near 0, half is a multiple of 2^-54, so an odd `whole` rounds up where
    half >= 0 and an even one where half > 0."""
    whole += half > (whole & 1) * -(2.0**-60)
    return whole


def _significands(v: np.ndarray):
    """(sig, e, decided): |v| = sig * 10^(e - 16) rounded half to even, with
    sig a 17-digit int64 (0 for a zero), and whether that is sure."""
    whole, half, e, _, _, decided = _product(v)
    return _round_half_even(whole, half), e, decided


def _shortest(v: np.ndarray):
    """(sig, e, decided): repr's digits of v as a 17-digit int64 sig, padded
    with zeros (0 for a zero), and whether that is sure.

    Let P = |v| * 10^(16 - e) and H half the binary spacing of v, scaled the
    same way: a decimal within H of P reads back as v.  Since 2H < 2^-52 *
    10^17 < 100, at most one multiple of 100 lies that close, so repr has at
    most 15 digits exactly when P's nearest multiple of 100 does; otherwise
    at most 16 when its nearest multiple of 10 does, the nearest being the
    closest to v of those; otherwise repr is P rounded to 17 digits.  Python
    decides a value with e >= 16, where repr writes an exponent; an exact
    power of two, whose interval below is half as wide; a distance within
    2^-20 of H or a 16-digit tie; and a rounding that carries to 10^17."""
    whole, half, e, a, hi, decided = _product(v)
    with np.errstate(all="ignore"):
        h = np.spacing(a * 0.5) * hi  # H, exact but for hi's rounding
        r = whole % 100
        y = r + (half + 0.5)  # P mod 100
        c15 = np.round(y, -2)
        c16 = np.round(y, -1)
        d15 = np.abs(y - c15)
        d16 = np.abs(y - c16)
        in15 = d15 < h
        in16 = d16 < h
        sure = ((np.abs(d15 - h) >= _HALF_BAND) & (np.abs(d16 - h) >= _HALF_BAND)
                & (d16 <= 5.0 - _HALF_BAND))
    short = np.where(in15, c15, c16).astype(np.int64)
    short += whole - r
    sig = np.where(in15 | in16, short, _round_half_even(whole, half))
    power_of_two = (v.view(np.uint64) << np.uint64(12) == 0) & (sig != 0)
    decided &= sure & ~power_of_two & (e < 16) & (sig < 10**17)
    return sig, e, decided


def _json_float(x: float) -> str:
    """json's text of a float: repr, or NaN, Infinity and -Infinity."""
    text = repr(x)
    return _JSON_NONFINITE.get(text, text)


# a float text: its digits, the digits its fixed notation keeps past the
# point, Python's text of one value, and the text after each value
_G17 = (_significands, 0, "%.17g".__mod__, b"")
_REPR = (_shortest, 1, _json_float, _JSON_SEP.encode())


def _float_slots(v: np.ndarray, sep, text=_G17) -> np.ndarray:
    """The slots of shape v.shape + (words,) of the `text` ('%.17g' by
    default) of each value of `v`, with `sep` (broadcast against `v`) in the
    last byte of each value's fourth word."""
    t = _tables()
    digits, _, python_text, _ = text
    sig, e, decided = digits(v)
    top = sig // 10**8
    low = (sig - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    first = top // 10**8
    mid = top - first * 10**8
    q1 = mid // 10**4
    q3 = low // 10**4
    lo, hi = t["groups"]
    d1 = lo.take(q1) | hi.take(mid - q1 * 10**4)
    d2 = lo.take(q3) | hi.take(low - q3 * 10**4)
    # the float d2 * 2^64 + d1 + 1 has the exponent 8 * (kept - 2) + 5 (0
    # for kept = 1), since a digit word's top nonzero byte is "1".."9", so
    # its top 9 bits are 126 + kept
    kept = (d2.astype(np.float64) * 2.0**64 + (d1.astype(np.float64) + 1.0)).view(np.int64)
    ei = e - _E_MIN
    slots = _layout(text).take(t["row"].take(ei) + np.signbit(v) * 18 + (kept >> 55), axis=0)
    by_e = t["by_e"].take(ei, axis=0)
    # the digits past the point move up a byte: d + (d & moved) * 255
    m1 = d1 & by_e[..., 0]
    m2 = d2 & by_e[..., 1]
    slots[..., 0] |= first.astype(np.uint64) << 56
    slots[..., 1] |= d1 + m1 * 255
    slots[..., 2] |= d2 + m2 * 255 + (m1 >> 56)
    slots[..., 3] |= m2 >> 56 | by_e[..., 2] | sep
    if not decided.all():
        slow = ~decided
        words = _python_words([python_text(x) for x in v[slow].tolist()], _FLOAT_WORDS)
        words[:, -1] |= np.broadcast_to(sep, v.shape)[slow]
        slots[slow, :_FLOAT_WORDS] = words
    return slots


def _zero_slots(v: np.ndarray, sep, text=_G17) -> np.ndarray:
    """The slots of values that are all zeros, by a lookup by sign: as
    many words as Python's text of -0.0, the text after it and `sep` need."""
    slots = _zero_table(text).take(np.signbit(v), axis=0)
    slots[..., -1] |= sep
    return slots


@lru_cache(maxsize=None)
def _zero_table(text) -> np.ndarray:
    """The slots of +0.0 and -0.0."""
    _, _, python_text, follow = text
    zeros = [python_text(x).encode() + follow for x in (0.0, -0.0)]
    return _python_words(zeros, (len(zeros[1]) + 8) // 8)


def _int_slots(v: np.ndarray, sep: np.uint64) -> np.ndarray:
    """The slots of str of each integer of `v`, then `sep`: as many words
    as the longest text and its separator need."""
    v = v.astype(np.int64)
    longest = max(len(str(v.min(initial=0))), len(str(v.max(initial=0))))
    words = (longest + 8) // 8
    out = v.astype(f"S{8 * words}").view(np.uint64).reshape(len(v), words)
    out[:, -1] |= sep
    return out


def _int_column(values: np.ndarray, index, sep: np.uint64) -> np.ndarray:
    """The slots of a (values, index) integer column: each value is written
    once, unless there are more values than rows."""
    if index is not None and len(values) > len(index):
        values, index = values[index], None
    out = _int_slots(values, sep)
    return out if index is None else out.take(index, axis=0)


def csv_rows(columns) -> str:
    """The CSV lines of equal-length columns.  A column is a float64 array,
    written as '%.17g'; an integer array, written as str, or a bool array,
    as 1 or 0; or a pair (values, index) of an integer array and the
    positions to take from it, for a column that repeats a few values.
    Python formats the lines one value at a time when they hold fewer than
    FEW_VALUES values."""
    columns = [c if isinstance(c, tuple) else (np.asarray(c), None) for c in columns]
    if sum(len(values if index is None else index) for values, index in columns) >= FEW_VALUES:
        return _rows(columns).translate(None, b"\0").decode("ascii")
    line = ",".join("%.17g" if values.dtype.kind == "f" else "%d" for values, _ in columns)
    flat = [(values if index is None else values[index]).tolist() for values, index in columns]
    return "".join(line % row + "\n" for row in zip(*flat))


def _rows(columns) -> bytearray:
    """The bytes of the row matrix of csv_rows' (values, index) columns."""
    seps = np.full(len(columns), _COMMA)
    seps[-1] = _NEWLINE
    # a float column of zeros only, as every S at y = 0, is a lookup by sign
    slots = [_int_column(values, index, sep) if values.dtype.kind != "f"
             else _zero_slots(values, sep) if (values == 0.0).all() else None
             for (values, index), sep in zip(columns, seps)]
    parts = []
    for is_float, run in groupby(range(len(columns)), lambda k: slots[k] is None):
        run = list(run)
        if is_float:  # one pass over a run of float columns, since each
            # numpy call costs as much as a few hundred values
            parts.append(_float_slots(np.stack([columns[k][0] for k in run], axis=1),
                                      seps[run]).reshape(-1, _FLOAT_WORDS * len(run)))
        else:
            parts += [slots[k] for k in run]
    shape = (len(parts[0]), sum(part.shape[1] for part in parts))
    rows = bytearray(8 * shape[0] * shape[1])
    np.concatenate(parts, axis=1, out=np.frombuffer(rows, np.uint64).reshape(shape))
    return rows


def write_json_list(fh, values: np.ndarray) -> None:
    """Write `values` as json.dump(indent=2) writes a list of floats that is
    a top-level dict's value: each value's repr, or json's name for a
    non-finite one, BLOCK_ROWS values at a time."""
    if not len(values):
        fh.write("[]")
        return
    fh.write("[\n    ")
    for start in range(0, len(values), BLOCK_ROWS):
        text = _json_block(values[start:start + BLOCK_ROWS])
        fh.write(text if start + BLOCK_ROWS < len(values) else text[:-len(_JSON_SEP)])
    fh.write("\n  ]")


def _json_block(v: np.ndarray) -> str:
    """The json text of each value of `v`, each followed by _JSON_SEP."""
    # a block of zeros only, as every A_sin at y = 0, is a lookup by sign
    slots = (_zero_slots if (v == 0.0).all() else _float_slots)(v, np.uint64(0), _REPR)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(fh, header: str, rows: int, columns) -> None:
    """Write `header`, then the CSV lines of rows 0..rows-1, BLOCK_ROWS at a
    time; `columns(start, stop)` gives the columns of rows start..stop-1."""
    fh.write(header)
    for start in range(0, rows, BLOCK_ROWS):
        fh.write(csv_rows(columns(start, min(start + BLOCK_ROWS, rows))))


def write_columns(fh, header: str, *columns) -> None:
    """Write `header`, then the CSV lines of equal-length columns."""
    write_csv(fh, header, len(columns[0]),
              lambda start, stop: [c[start:stop] for c in columns])
