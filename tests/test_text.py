"""The CSV text writer against Python's own '%.17g' and str, and the JSON
list writer against json's own text of a list of floats."""

import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaq import _text
from etaq.limits import SumSurface, c_s_surface, commutativity_gap
from etaq.qset import QOrdering
from etaq.series import StripPoint

from conftest import needs_avx512, run_without_avx512


def python_csv(*columns) -> str:
    """The CSV lines of the columns, one Python float or int at a time."""
    return "".join(
        ",".join("%.17g" % x if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in zip(*(c.tolist() for c in columns)))


def numpy_csv(*columns) -> str:
    """csv_rows through the numpy path, whatever the number of values."""
    few, _text.FEW_VALUES = _text.FEW_VALUES, 0
    try:
        return _text.csv_rows(columns)
    finally:
        _text.FEW_VALUES = few


def python_json(values) -> str:
    """The text json.dump(indent=2) gives a list of floats that is a
    top-level dict's value."""
    return json.dumps({"A": values.tolist()}, indent=2)[len('{\n  "A": '):-len("\n}")]


def json_text(values) -> str:
    """write_json_list's text of the values."""
    fh = io.StringIO()
    _text.write_json_list(fh, values)
    return fh.getvalue()


def tie_sample() -> np.ndarray:
    """Values whose product |v| * 10^k is a half-integer, for k = 1..22 where
    10^k is exact: v = N / 2^(k + 1) with N odd and 10^(16 - k) <= v."""
    rng = np.random.default_rng(7)
    values = []
    for k in range(1, 23):
        lo = 10 ** (16 - k) * 2 ** (k + 1)
        hi = min(10 ** (17 - k) * 2 ** (k + 1), 2**53)
        odd = [n | 1 for n in rng.integers(lo, hi, 40).tolist()]
        values += [n / 2 ** (k + 1) for n in odd]
    return np.array(values)


def layout_sample() -> np.ndarray:
    """Values at every place a float slot puts the point, the prefix or the
    suffix: exponents -7..19, around the switches at -5, -4, 16 and 17, each
    with 1, 2, 8, 9, 16 and 17 significant digits, and the longest texts of
    both formats."""
    values = [float(f"{digits[0]}.{digits[1:]}e{e}") for e in range(-7, 20)
              for digits in ("3", "35", "31415926", "314159265", "3141592653589793",
                             "31415926535897932", "99999999999999999")]
    values += [1.2345678901234567e-100, 1.2345678901234567e100,  # 24 bytes with a sign
               0.00012345678901234567, 1234567890123456.7, 12345678901234567.0,
               1e-5, 1e-4, 1e16, 1e17, 0.5, 5e-5, 2.0**-20]
    return np.array(values + [-x for x in values])


def sample(seed: int = 0) -> np.ndarray:
    """Values where a 17-digit writer is easy to get wrong, and ordinary ones."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    subnormals = rng.integers(1, 2**52, 1_000, dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308, 1e-290, 1e290,
                         0.1, 0.5, 1.0, 3.0, 9.999999999999999e15, 1e16, 1e17, 123456789.0,
                         1e15, 9.999999999999998e15, 1e-4, 9.999999999999999e-05, 1e-05,
                         8 + 2**-16, 5 * 2**-23])  # ties at 16 digits
    ordinary = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 30, 20_000)
    ties = tie_sample()
    return np.concatenate([bits.view(np.float64), near, -near, subnormals, -subnormals,
                           specials, -specials, ordinary, ties, -ties, layout_sample()])


def test_float_text_is_percent_17g():
    v = sample()
    assert numpy_csv(v) == python_csv(v)


def test_json_float_text_is_repr():
    v = sample()
    assert json_text(v) == python_json(v)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_text_over_more_bit_patterns(seed):
    v = np.random.default_rng(seed).integers(
        0, 2**64 - 1, 50_000, dtype=np.uint64, endpoint=True).view(np.float64)
    assert numpy_csv(v) == python_csv(v)
    assert json_text(v) == python_json(v)


def test_exact_ties_round_to_the_even_significand():
    v = tie_sample()
    sig, e, decided = _text._significands(v)
    ties = [Fraction(x) * 10 ** (16 - int(k)) for x, k in zip(v.tolist(), e.tolist())]
    assert sum(t.denominator == 2 for t in ties) == len(v)
    assert decided.all()  # exact at 0 <= 16 - e <= 22: none go to Python
    assert (sig % 2 == 0).all()
    assert numpy_csv(v) == python_csv(v)


def test_both_the_vector_and_the_python_path_run(monkeypatch):
    texts = []
    python_words = _text._python_words
    monkeypatch.setattr(_text, "_python_words",
                        lambda t, words: (texts.extend(t), python_words(t, words))[1])
    v = sample()
    decided = _text._significands(v)[2]
    assert numpy_csv(v) == python_csv(v)
    assert len(texts) == np.count_nonzero(~decided)
    assert 0 < len(texts) < 0.5 * len(v)
    assert {"nan", "inf", "-inf", "4.9406564584124654e-324"} <= set(texts)
    texts.clear()
    ordinary = np.random.default_rng(4).standard_normal(10_000)
    assert numpy_csv(ordinary) == python_csv(ordinary)
    assert len(texts) <= 1
    texts.clear()
    decided = _text._shortest(v)[2]
    assert json_text(v) == python_json(v)
    assert len(texts) == np.count_nonzero(~decided)
    assert 0 < len(texts) < 0.6 * len(v)  # with every e >= 16 of the bit patterns
    assert {"NaN", "Infinity", "-Infinity", "5e-324", "1e+16", "1.0", "0.5"} <= set(texts)
    texts.clear()
    assert json_text(ordinary) == python_json(ordinary)
    assert len(texts) <= 1


@pytest.mark.parametrize("estimate", [lambda x: np.nextafter(x, -np.inf),
                                      lambda x: x - 0.5, lambda x: x + 0.5],
                         ids=["a-step-low", "half-a-decade-low", "half-a-decade-high"])
def test_a_wrong_exponent_estimate_changes_no_text(estimate, monkeypatch):
    """log10's last bit depends on the SIMD dispatch, and the exponent is
    only an estimate.  A step low puts the values at powers of ten a decade
    low, where a product of 10^17 or a rounding that carries to it goes to
    Python; half a decade off does so for about half of all values, whose
    product then falls outside [10^16, 10^17).  The text stays the same.  A
    zero's exponent is log10(1.0) = 0, exact at every dispatch, so zeros are
    left out."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: estimate(log10(a)))
    v = sample()
    v = v[v != 0.0]
    assert numpy_csv(v) == python_csv(v)
    assert json_text(v) == python_json(v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_hypothesis_floats(values):
    v = np.array(values, dtype=float)
    assert numpy_csv(v) == python_csv(v)
    assert json_text(v) == python_json(v)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40), st.data())
def test_hypothesis_integers(values, data):
    v = np.array(values, dtype=np.int64)
    assert numpy_csv(v) == python_csv(v)
    index = np.array(data.draw(st.lists(st.integers(0, len(v) - 1), max_size=80)), dtype=np.intp)
    want = python_csv(v[index])
    assert numpy_csv((v, index)) == _text.csv_rows([(v, index)]) == want


def test_mixed_columns_in_any_order():
    rng = np.random.default_rng(5)
    n = 3_000
    ints = rng.integers(0, 10**6, n)
    big = rng.integers(-2**63, 2**63 - 1, n)
    floats = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n) for _ in range(3)]
    columns = [ints, floats[0], big, floats[1], floats[2], ints]
    assert numpy_csv(*columns) == python_csv(*columns)
    # float columns of zeros only, +0.0, -0.0 and both, next to other floats
    zeros = [np.zeros(n), -np.zeros(n), np.where(rng.random(n) < 0.5, 0.0, -0.0)]
    for columns in ([ints, floats[0], *zeros], [*zeros, floats[1], ints],
                    [zeros[2], floats[2], zeros[1], big, zeros[0]]):
        assert numpy_csv(*columns) == python_csv(*columns)


def test_indexed_integer_columns():
    values = np.array([7, 130, 10**13, -4])
    index = np.array([0, 3, 3, 1, 2, 0, 1])
    floats = np.linspace(-1.0, 1.0, len(index))
    want = python_csv(values[index], floats)
    for write in (numpy_csv, lambda *columns: _text.csv_rows(columns)):
        assert write((values, index), floats) == want
        assert write((values, index[:2]), floats[:2]) == python_csv(values[index[:2]], floats[:2])
    wide = np.array([10**15, -2**63, 2**63 - 1, 0])  # 3-word slots
    flags = np.array([True, False])
    columns = [(wide, index), floats, (flags, index % 2)]
    want = python_csv(wide[index], floats, (index % 2 == 0).astype(np.int64))
    for write in (numpy_csv, lambda *columns: _text.csv_rows(columns)):
        assert write(*columns) == want


def test_bools_write_as_digits():
    columns = [np.array([True, False]), np.array([0.5, 2.0])]
    assert numpy_csv(*columns) == _text.csv_rows(columns) == "1,0.5\n0,2\n"


def test_few_values_take_the_python_path(monkeypatch):
    monkeypatch.setattr(_text, "_rows", None)  # the numpy path would fail
    v = sample()[:_text.FEW_VALUES // 2 - 1]
    n = np.arange(len(v))
    assert _text.csv_rows([n, v]) == python_csv(n, v)


def test_no_rows_is_no_text():
    assert numpy_csv(np.zeros(0), np.zeros(0, dtype=np.int64)) == ""
    fh = io.StringIO()
    _text.write_columns(fh, "a,b\n", np.zeros(0), np.zeros(0, dtype=np.int64))
    assert fh.getvalue() == "a,b\n"


def test_blocks_join_to_the_whole(monkeypatch):
    monkeypatch.setattr(_text, "BLOCK_ROWS", 1500)  # the last block has few values
    v = sample()[:10_000]
    n = np.arange(len(v))
    fh = io.StringIO()
    _text.write_columns(fh, "n,v\n", n, v)
    assert fh.getvalue() == "n,v\n" + python_csv(n, v)


@pytest.mark.parametrize("length", [0, 1, _text.BLOCK_ROWS - 1, _text.BLOCK_ROWS,
                                    _text.BLOCK_ROWS + 1, 4 * _text.BLOCK_ROWS - 1])
def test_json_blocks_join_to_the_whole(length):
    """Blocks of +0.0, of -0.0, of both and of other values, cut anywhere:
    an odd length is taken from the end."""
    rng = np.random.default_rng(length)
    block = _text.BLOCK_ROWS
    v = np.concatenate([np.zeros(block), -np.zeros(block),
                        np.where(rng.random(block) < 0.5, 0.0, -0.0),
                        rng.standard_normal(block)])
    v = v[len(v) - length:] if length % 2 else v[:length]
    assert json_text(v) == python_json(v)


@pytest.mark.parametrize("p, bound", [(StripPoint(2.0, 0.0), 300_000),
                                      (StripPoint(0.5, 14.134725141734693), 10_000)])
def test_benchmark_reports_take_the_vector_path(p, bound, monkeypatch):
    """The gap reports of the benchmark's largest job and at its zeros: all
    their nonzero values go through the numpy slots, and next to none to
    Python; the zeros of A_sin at y = 0 take the lookup by sign."""
    rep = commutativity_gap(p, QOrdering.by_value(bound), None, 0)
    texts, vector = [], []
    python_words, float_slots = _text._python_words, _text._float_slots
    monkeypatch.setattr(_text, "_python_words",
                        lambda t, words: (texts.extend(t), python_words(t, words))[1])
    monkeypatch.setattr(_text, "_float_slots",
                        lambda v, *args: (vector.append(len(v)), float_slots(v, *args))[1])
    for values in (rep.A.real, rep.A.imag):
        assert json_text(values) == python_json(values)
    assert sum(vector) == np.count_nonzero(rep.A.real) + np.count_nonzero(rep.A.imag)
    assert len(texts) <= 4


@pytest.mark.parametrize("p, ordering, n_axis, h_axis", [
    (StripPoint(0.5, 14.134725141734693), QOrdering.by_value(10_000),
     range(1, 20_000, 200), range(1, 65)),
    (StripPoint(0.75, 3.0), QOrdering.seeded_shuffle(5, 256),
     range(1, 2_000, 10), range(1, 1_201, 10)),
    (StripPoint(2.0, 0.0), QOrdering.by_factor_count(10_000), range(1, 2_000, 5),
     range(1, 401, 4))], ids=["surface1", "surface2", "surface3"])
def test_benchmark_surfaces_take_the_vector_path(p, ordering, n_axis, h_axis, monkeypatch):
    """The surfaces of the benchmark's three jobs, the last two with fewer
    n: no value goes to Python, and at y = 0 every S takes the lookup by
    sign.  A last block of fewer than FEW_VALUES values is Python's."""
    surf = c_s_surface(p, ordering, n_axis, h_axis)
    n, h = np.meshgrid(surf.n_axis, surf.h_axis, indexing="ij")
    want = "n,h,C,S\n" + python_csv(n.ravel(), h.ravel(), surf.C.ravel(), surf.S.ravel())
    fh = io.StringIO()
    surf.write_csv(fh)  # the zero lookup's table, built once
    assert fh.getvalue() == want
    texts, vector, zeros = [], [], []
    python_words, float_slots, zero_slots = (_text._python_words, _text._float_slots,
                                             _text._zero_slots)
    monkeypatch.setattr(_text, "_python_words",
                        lambda t, words: (texts.extend(t), python_words(t, words))[1])
    monkeypatch.setattr(_text, "_float_slots",
                        lambda v, *args: (vector.append(v.size), float_slots(v, *args))[1])
    monkeypatch.setattr(_text, "_zero_slots",
                        lambda v, *args: (zeros.append(v.size), zero_slots(v, *args))[1])
    fh = io.StringIO()
    surf.write_csv(fh)
    assert fh.getvalue() == want
    tail = surf.C.size % _text.BLOCK_ROWS
    rows = surf.C.size - (tail if 4 * tail < _text.FEW_VALUES else 0)
    assert texts == []
    assert sum(vector) + sum(zeros) == 2 * rows
    assert sum(zeros) == (rows if p.y == 0.0 else 0)


class _Sink:
    """A file that keeps only the count of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


# work memory of the surface writer: a few blocks of BLOCK_ROWS rows, at
# about 0.5 kB a row, whatever the surface's size
WRITER_PEAK_BYTES = 2 * 2**20


@pytest.mark.parametrize("rows", [1000, 4000])
def test_surface_writer_memory_is_bounded(rows):
    """At the 120-column shape of the benchmark's largest surface, the
    writer's peak traced memory stays under one bound as rows grow."""
    rng = np.random.default_rng(rows)
    h_axis = tuple(range(1, 1201, 10))
    cs = rng.standard_normal((rows, len(h_axis))) + 1j * rng.standard_normal((rows, len(h_axis)))
    surf = SumSurface(n_axis=tuple(range(1, 10 * rows, 10)), h_axis=h_axis,
                      C=cs.real, S=cs.imag)
    surf.write_csv(_Sink())  # tables and exponent pairs, built once
    sink = _Sink()
    tracemalloc.start()
    try:
        surf.write_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 30 * rows * len(h_axis)
    assert peak < WRITER_PEAK_BYTES


# work memory of the JSON list writer: a few blocks of BLOCK_ROWS values, at
# about 0.25 kB a value, whatever the list's length
JSON_WRITER_PEAK_BYTES = 2**20


@pytest.mark.parametrize("length", [40_000, 120_000])
def test_json_writer_memory_is_bounded(length):
    """The writer's peak traced memory stays under one bound as the list
    grows, at the benchmark's largest list and at a third of it."""
    v = np.random.default_rng(length).standard_normal(length)
    _text.write_json_list(_Sink(), v)  # tables and exponent pairs, built once
    sink = _Sink()
    tracemalloc.start()
    try:
        _text.write_json_list(sink, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 20 * length
    assert peak < JSON_WRITER_PEAK_BYTES


def test_surface_writer_formats_each_n_and_h_once_per_block(monkeypatch):
    """The surface passes n and h as (values, index) pairs, so a block
    formats its own n values and the h axis, not an integer per cell."""
    h_axis = tuple(range(1, 1201, 10))
    rows = 1000
    cs = np.zeros((rows, len(h_axis)))
    surf = SumSurface(n_axis=tuple(range(1, 10 * rows, 10)), h_axis=h_axis, C=cs, S=cs)
    blocks = []
    csv_rows, int_slots = _text.csv_rows, _text._int_slots
    monkeypatch.setattr(_text, "csv_rows", lambda columns: (blocks.append(0), csv_rows(columns))[1])

    def counted(v, sep):
        blocks[-1] += len(v)
        return int_slots(v, sep)

    monkeypatch.setattr(_text, "_int_slots", counted)
    surf.write_csv(_Sink())
    cells = rows * len(h_axis)
    starts = range(0, cells, _text.BLOCK_ROWS)
    assert len(blocks) == len(starts)
    for start, formatted in zip(starts, blocks):
        stop = min(start + _text.BLOCK_ROWS, cells)
        n_values = (stop - 1) // len(h_axis) - start // len(h_axis) + 1
        assert 0 < formatted <= n_values + len(h_axis)


DISPATCH_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import CPU_FEATURES
from test_text import json_text, numpy_csv, python_csv, python_json, sample
assert not CPU_FEATURES["X86_V4"]
for seed in range(3):
    v = sample(seed)
    assert numpy_csv(v) == python_csv(v), seed
    assert json_text(v) == python_json(v), seed
print("ok")
"""


@needs_avx512
def test_text_does_not_depend_on_the_simd_dispatch():
    """log10 gives other last bits without AVX-512; the CSV and JSON text
    stays the same."""
    run_without_avx512(DISPATCH_SCRIPT)
