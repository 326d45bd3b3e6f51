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
8-byte words in it.  An integer column's slots take as many words as its
longest text and separator need, and numpy's cast of int64 to a NUL-padded
bytes dtype writes them.  A float takes 6 words.  Its digits come from
tables of 4-digit groups, each digit followed by a NUL byte where a decimal
point may go, and its zero digits are NUL: a mask keyed by (digits kept,
point position) writes back the zeros kept and the point; a second key
table gives repr's ".0" in fixed notation.  Tables keyed by the exponent
give the sign, the "0.000" prefix and the "e+XX" suffix.  The last byte of
each CSV slot holds the "," or newline that follows the value; a JSON
value's slot has a seventh word, its separator.  A JSON block of zeros only
is a lookup by sign.  One ``bytes.translate`` then deletes every NUL.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

# rows per block: at the surface's 4 columns, a block's matrix, texts and
# work arrays take about 1 MB
BLOCK_ROWS = 2**11
_FLOAT_WORDS = 6
_MIN_ABS = 1e-290  # 10^(16 - e) and its halves stay normal doubles
_MAX_ABS = 1e290   # the Veltkamp split of |v| does not overflow
_E_MIN = -300      # the exponent tables cover every e of a value in range
_E_SPAN = 600
_HALF_BAND = 2.0**-20  # this close to 1/2, an inexact product goes to Python
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitting constant
# below this many values in a CSV block, Python's % and str take less time
# than the numpy calls and the first build of the tables
FEW_VALUES = 2048
# the last word of a slot, with the separator after its value
_COMMA, _NEWLINE = np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"\n", np.uint64)
# what follows each value of a json list, and the slot word that holds it
_JSON_SEP = ",\n    "
_JSON_SEP_WORD = np.frombuffer(_JSON_SEP.encode() + b"\0\0", np.uint64)[0]
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """uint8 rows of a multiple of 8 bytes, as uint64 words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


@lru_cache(maxsize=None)
def _tables() -> dict:
    """The lookup tables, built on first use."""
    g = np.arange(10_000, dtype=np.int16)
    digits = np.empty((10_000, 4), np.uint8)
    for j in range(4):
        digits[:, j] = g // 10 ** (3 - j) % 10
    # a float's group of 4 digits, each followed by a NUL byte, with its
    # zero digits NUL too
    spaced = np.zeros((10_000, 8), np.uint8)
    spaced[:, ::2] = digits
    spaced[:, ::2] |= np.where(digits > 0, 48, 0).astype(np.uint8)
    # digits kept up to the last nonzero digit of a group, when it is group
    # j = 0..3 of the 16 digits after a float's first, which is always kept
    trailing_zeros = (g % 10 == 0).astype(np.int8) + (g % 100 == 0) + (g % 1000 == 0)
    kept = [np.where(g > 0, 4 * j + 5 - trailing_zeros, 1).astype(np.int8) for j in range(4)]

    # a float's masks over its words 0..4, keyed by keep * 17 + point + 1:
    # "0" at each of the keep digits kept and "." after digit `point` (-1:
    # none); digit i sits at byte 6 + 2i and its point slot at 7 + 2i
    i = np.arange(17)
    fill = np.zeros((18, 17, 40), np.uint8)
    fill[:, :, 6 + 2 * i] = np.where(i < np.arange(18)[:, None], 48, 0)[:, None, :]
    fill[:, 1 + i[:16], 7 + 2 * i[:16]] = ord(".")
    fill = _words(fill).reshape(18 * 17, 5)

    # (exponent, digits kept) -> mask key: the point follows digit e in
    # fixed notation (0 <= e <= 16), digit 0 in scientific, and sits in the
    # "0.000" prefix for -4 <= e < 0; it is left out where no digit follows.
    # repr keeps one digit after the point in fixed notation, where its
    # exponent is below 16.
    e = np.arange(_E_MIN, _E_MIN + _E_SPAN, dtype=np.int16)[:, None]
    kept_digits = np.arange(18, dtype=np.int16)
    fixed = (e >= 0) & (e <= 16)

    def key(keep):
        point = np.where(fixed, e, np.where((e >= -4) & (e < 0), -1, 0))
        point = np.where(keep > point + 1, point, -1)
        return (keep * 17 + point + 1).ravel()

    # "e+XX" or "e-XXX" where scientific, and "-" then "0." and up to 3
    # zeros for -4 <= e < 0
    x = e[:, 0].astype(np.int64)
    suffix = np.zeros((_E_SPAN, 8), np.uint8)
    suffix[:, :2] = np.where(x < 0, ord("-"), ord("+"))[:, None]
    suffix[:, 0] = ord("e")
    mag = np.abs(x)
    three = mag >= 100
    row = np.arange(_E_SPAN)
    suffix[three, 2] = 48 + mag[three] // 100
    suffix[row, 2 + three] = 48 + mag // 10 % 10
    suffix[row, 3 + three] = 48 + mag % 10
    suffix[(x >= -4) & (x <= 16)] = 0
    sign_prefix = np.zeros((_E_SPAN, 2, 8), np.uint8)
    for x in range(-4, 0):
        sign_prefix[x - _E_MIN, :, 1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
    sign_prefix[:, 1, 0] = ord("-")
    # ORed onto the mask's "0"; row 10 serves a rounding to 10^17, which
    # Python writes
    first = np.zeros((11, 8), np.uint8)
    first[:, 6] = np.arange(11)
    return {
        "spaced": _words(spaced).ravel(),
        "kept": kept,
        "fill": [np.ascontiguousarray(fill[:, j]) for j in range(5)],
        "key": key(np.where(fixed, np.maximum(kept_digits, e + 1), kept_digits)),
        "repr_key": key(np.where(fixed & (e < 16), np.maximum(kept_digits, e + 2), kept_digits)),
        "json_zero": np.array(["0.0" + _JSON_SEP, "-0.0" + _JSON_SEP],
                              "S16").view(np.uint64).reshape(2, 2),
        "sign_prefix": _words(sign_prefix).ravel(),
        "suffix": _words(suffix).ravel(),
        "first": _words(first).ravel(),
    }


@lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float, float, float, float]:
    """10^k as hi + lo, hi the nearest double and lo the nearest double to
    the rest, with hi split into two halves of at most 26 bits; then the
    half band, 0 where 10^k is exact so that a tie is decided here."""
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
    return hi, h1, hi - h1, lo, 0.0 if lo == 0.0 else _HALF_BAND


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
        at = e_max - e
        hi, h1, h2, lo, band = (np.ascontiguousarray(col).take(at) for col in powers.T)
        big = a * _SPLIT
        a1 = big - (big - a)
        a2 = a - a1
        p = a * hi  # an integer, since it is at least 2^53
        rest = (((a1 * h1 - p) + a1 * h2) + a2 * h1) + a2 * h2 + a * lo
        floor = np.floor(rest)
        half = rest - floor - 0.5
        whole = p.astype(np.int64) + floor.astype(np.int64)
        # the product must lie in [10^16, 10^17 - 1) before rounding, which
        # may reach 10^16
        sure = (fast & ((whole - 10**16).view(np.uint64) < 9 * 10**16 - 1)
                & (np.abs(half) >= band))
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


# a float text: its digits, its mask keys and Python's text of one value
_G17 = (_significands, "key", "%.17g".__mod__)
_REPR = (_shortest, "repr_key", _json_float)


def _float_slots(v: np.ndarray, out: np.ndarray, sep, text=_G17) -> None:
    """Write the `text` ('%.17g' by default) of each value of `v`, then
    `sep` (broadcast against `v`), into the 6-word slots `out` of shape
    v.shape + (6,)."""
    t = _tables()
    digits, key_table, python_text = text
    sig, e, decided = digits(v)
    top = sig // 10**8
    low = (sig - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    q1 = top // 10**4
    q3 = low // 10**4
    first = q1 // 10**4
    groups = (q1 - first * 10**4, top - q1 * 10**4, q3, low - q3 * 10**4)
    kept = [table.take(g) for table, g in zip(t["kept"], groups)]
    kept = np.maximum(np.maximum(kept[0], kept[1]), np.maximum(kept[2], kept[3]))
    ei = e - _E_MIN
    key = t[key_table].take(ei * 18 + kept).astype(np.intp)
    fill = t["fill"]
    out[..., 0] = (t["sign_prefix"].take(2 * ei + np.signbit(v)) | t["first"].take(first)
                   | fill[0].take(key))
    for j, g in enumerate(groups, 1):
        out[..., j] = t["spaced"].take(g) | fill[j].take(key)
    out[..., 5] = t["suffix"].take(ei) | sep
    if not decided.all():
        slow = np.nonzero(~decided)
        words = _python_words([python_text(x) for x in v[slow].tolist()], _FLOAT_WORDS)
        words[:, -1] |= np.broadcast_to(sep, v.shape)[slow]
        out[slow] = words


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
    written as '%.17g'; an integer or bool array, written as str; or a pair
    (values, index) of an integer array and the positions to take from it,
    for a column that repeats a few values.  Python formats the lines one
    value at a time when they hold fewer than FEW_VALUES values."""
    columns = [c if isinstance(c, tuple) else (np.asarray(c), None) for c in columns]
    if sum(len(values if index is None else index) for values, index in columns) >= FEW_VALUES:
        return _rows(columns).tobytes().translate(None, b"\0").decode("ascii")
    line = ",".join("%.17g" if values.dtype.kind == "f" else "%d" for values, _ in columns)
    flat = [(values if index is None else values[index]).tolist() for values, index in columns]
    return "".join(line % row + "\n" for row in zip(*flat))


def _rows(columns) -> np.ndarray:
    """The uint64 row matrix of csv_rows' (values, index) columns, NUL-padded."""
    seps = np.full(len(columns), _COMMA)
    seps[-1] = _NEWLINE
    ints = [None if values.dtype.kind == "f" else _int_column(values, index, sep)
            for (values, index), sep in zip(columns, seps)]
    starts = np.cumsum([0, *(_FLOAT_WORDS if out is None else out.shape[1] for out in ints)])
    values, index = columns[0]
    rows = np.zeros((len(values if index is None else index), starts[-1]), np.uint64)
    for is_float, run in groupby(range(len(columns)), lambda k: ints[k] is None):
        run = list(run)
        if is_float:  # one pass over a run of float columns, since each
            # numpy call costs as much as a few hundred values
            out = rows[:, starts[run[0]]:starts[run[-1] + 1]]
            _float_slots(np.stack([columns[k][0] for k in run]),
                         out.reshape(len(rows), len(run), _FLOAT_WORDS).transpose(1, 0, 2),
                         seps[run, None])
            continue
        for k in run:
            rows[:, starts[k]:starts[k + 1]] = ints[k]
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
    t = _tables()
    if (v == 0.0).all():  # as every A_sin at y = 0
        slots = t["json_zero"].take(np.signbit(v), axis=0)
    else:
        slots = np.empty((len(v), _FLOAT_WORDS + 1), np.uint64)
        _float_slots(v, slots[:, :_FLOAT_WORDS], np.uint64(0), _REPR)
        slots[:, _FLOAT_WORDS] = _JSON_SEP_WORD
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
