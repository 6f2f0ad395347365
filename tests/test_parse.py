"""The numpy tokenizer against the line-by-line parser that states the format.

`oracles.parse_dataset` reads the file as text and parses it line by line,
checking each token against the grammar before `int()` or `float()` reads
it. `data.parse_dataset` must return an equal dataset with the same dtypes,
or raise the oracle's error, message and line, with the file's path in
front. The oracle's `UnicodeDecodeError` is the new parser's "line N: not
valid UTF-8". Canonical tokens are read by numpy alone: `token_conversions`
records the few that `data` converts one by one.
"""

import contextlib
import importlib.util
import io
import itertools
import pathlib
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from ogeec import data
from ogeec.data import DatasetFormatError, _assemble, format_dataset, generate_synthetic

# piece sizes: a few bytes, the default, and 512 KiB, the default before
# pieces shrank, which holds every file here in one piece
WHOLE = 512 << 10
CHUNKS = [1, 7, 64, data._CHUNK, WHOLE]
FIELDS = {
    "features.indptr": lambda ds: ds.features.indptr,
    "features.indices": lambda ds: ds.features.indices,
    "features.data": lambda ds: ds.features.data,
    "labels.indptr": lambda ds: ds.labels.indptr,
    "labels.indices": lambda ds: ds.labels.indices,
    "label_frequencies": lambda ds: ds.label_frequencies,
}


def _line_of(raw: bytes, at: int) -> int:
    """1-based line of byte `at`, with line ends as text mode reads them."""
    text = raw[:at].decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1


def _outcome(parse, path):
    try:
        return parse(path)
    except Exception as exc:  # compared below, type and message
        return exc


def check_equivalent(path, raw: bytes, chunk: int) -> None:
    path.write_bytes(raw)
    # a header naming a huge L makes both parsers allocate its frequencies
    head = raw.split(b"\n", 1)[0].split()
    if len(head) == 3 and head[2].isdigit() and int(head[2]) > 10**6:
        return
    want = _outcome(oracles.parse_dataset, path)
    with mock.patch.object(data, "_CHUNK", chunk):
        got = _outcome(data.parse_dataset, path)
    if isinstance(want, UnicodeDecodeError):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = _line_of(raw, exc.start)
        want = DatasetFormatError(f"line {line}: not valid UTF-8")
    if isinstance(want, data.SparseDataset):
        assert isinstance(got, data.SparseDataset), got
        assert (got.n, got.d, got.L) == (want.n, want.d, want.L)
        for name, field in FIELDS.items():
            a, b = field(got), field(want)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
            if a.dtype.kind == "f":  # -0.0 and 0.0 are equal; their bits are not
                assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name
        return
    assert type(got) is type(want), (got, want)
    prefix = f"{path}: " if isinstance(want, DatasetFormatError) else ""
    assert str(got) == prefix + str(want)


def _float32s(draw, fast: bool):
    if fast:
        # "%.9g" of these has at most 9 digits and a decimal exponent of at
        # least -22; above 22 the digits times 10**(e - 22) stay below 10**7,
        # so their text is inside the exact path
        lo, hi = float(np.float32(1e-12)), float(np.float32(1e29))
        mag = draw(st.floats(lo, hi, width=32) | st.just(0.0))
        return -mag if draw(st.booleans()) else mag
    return draw(st.floats(width=32, allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw, fast: bool = False):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 10**draw(st.integers(1, 7))))
    L = draw(st.integers(1, 50))
    feature_rows, label_rows = [], []
    for _ in range(n):
        idx = sorted(draw(st.sets(st.integers(0, d - 1), max_size=min(d, 6))))
        vals = [_float32s(draw, fast) for _ in idx]
        labs = sorted(draw(st.sets(st.integers(0, L - 1), max_size=5)))
        feature_rows.append(
            (np.array(idx, dtype=np.int64), np.array(vals, dtype=np.float32))
        )
        label_rows.append(np.array(labs, dtype=np.int64))
    return _assemble(feature_rows, label_rows, d, L)


SETTINGS = settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow]
)


@SETTINGS
@given(ds=datasets(), chunk=st.sampled_from(CHUNKS))
def test_formatted_datasets_parse_as_before(tmp_path_factory, ds, chunk):
    path = tmp_path_factory.mktemp("fmt") / "ds.txt"
    check_equivalent(path, format_dataset(ds).encode(), chunk)


# bytes a mutation inserts or writes over: the grammar's own, and those that
# take a line off the canonical path
MUTANTS = [
    b"\r", b"\t", b"_", b"+", b"-", b"e", b"E", b".", b",", b":", b" ", b"\n",
    *(bytes([c]) for c in b"0123456789"), "é".encode(), b"\xff",
]


@st.composite
def mutated_text(draw):
    raw = bytearray(format_dataset(draw(datasets())).encode())
    body = raw.index(b"\n") + 1  # the header stays, its L small
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(body, len(raw)))
        new = draw(st.sampled_from(MUTANTS))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert" or at == len(raw):
            raw[at:at] = new
        elif op == "replace":
            raw[at : at + 1] = new
        else:
            del raw[at]
    return bytes(raw)


@SETTINGS
@given(raw=mutated_text(), chunk=st.sampled_from(CHUNKS))
def test_mutated_lines_parse_or_fail_as_before(tmp_path_factory, raw, chunk):
    check_equivalent(tmp_path_factory.mktemp("mut") / "ds.txt", raw, chunk)


@SETTINGS
@given(
    head=st.sampled_from([b"", b"2 5 3\n", b"1 20 4\n"]),
    tail=st.binary(max_size=120),
    chunk=st.sampled_from(CHUNKS),
)
def test_arbitrary_bytes_parse_or_fail_as_before(tmp_path_factory, head, tail, chunk):
    check_equivalent(tmp_path_factory.mktemp("any") / "ds.txt", head + tail, chunk)


EDGE_VALUES = [
    # significant digits around the exact path's 2**53 mantissa bound
    "9007199254740991", "9007199254740992", "9007199254740993",
    "900719925474099.3", "0.9007199254740993", "1234567890123456",
    "0.12345678901234567", "1.2345678901234567e-5", "123456789012345678",
    # mantissas past 2**53 where rounding M first, then dividing, lands on
    # the other side of a float32 midpoint
    "1.0000000596046449", "0.75000002980232245",
    "1234567890123456789", "0.000000000000000000001",
    # exponents around +-22
    "1e22", "1e23", "1e-22", "1e-23", "9e22", "4.5e-23", "1.5e+22", "2E-22",
    "12e21", "0.1e23", "1e0000000000000000005",
    # exponents above 22 moved into the mantissa, up to and just past 2**53
    "3.44618e+28", "90071992547409e24", "900719925474099e24", "9e37", "1e38",
    "1e39", "-4e38", "10e40", "-0e999999999999999999", "1e999999999999999999",
    # float32 range: subnormals, the largest finite value and just past it
    "1e-45", "1.4e-45", "7e-46", "1.17549435e-38", "4.9e-324",
    "3.4028235e38", "3.4028234e38", "3.40282347e+38", "-3.4028234e38",
    # signs, zeros and the grammar's short forms
    "-0", "-0.0", "+0", "0e5", "-0e-30", "+1.5", "1.", ".5", "-.5", "1.e5",
    "00012.5000", "1E5", "1e+05",
    # not values
    "", ".", "-", "+-1", "1e", "1e+", "e5", "1.5.5", "1e5e5", "1e5.5",
    "nan", "inf", "1_0", "0x10",
    # float() alone reads these; outside the grammar (nan and inf fail as
    # non-finite values)
    "-Infinity", "+NaN", "\u0663", "1\t", "\u20071",
]


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize("chunk", CHUNKS)
def test_edge_values_parse_as_before(tmp_path, value, chunk):
    raw = f"2 4 3\n1 0:{value} 3:1\n0,2 2:{value}\n".encode()
    check_equivalent(tmp_path / "ds.txt", raw, chunk)


EDGE_LINES = [
    "0 0:1 0:2", "0 3:1 1:2", "2,0,2,1 1:1", "0 00:1 3:1", " 0:1", "", "  ",
    "0 ", "0,1", "1 2:1  0:1 ", "3 0:1", "0 4:1", "0,,1 0:1", ",0 0:1", "0, 1:1",
    "0:1", "0 1", "0 :1", "0 1:", "0 1:2:3", "0 1:2,3", "+1 1:1", "0 +1:1",
    "0 1_0:1", "0 1:1\r", "0 -1:1", "0 1.0:1", "0 1e0:1", "007 1:1",
    # outside the grammar: non-ASCII digits, a tab, a sign in a label list,
    # nan at an index out of range, and a token past a 19-digit index
    "\u0663 1:1", "0 \u0663:1", "0 1:1\t", "0,+1 1:1", "0 9:nan", "0 0000000000000000001:1 x",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_edge_lines_parse_or_fail_as_before(tmp_path, line):
    raw = f"2 4 3\n1 0:1 3:1\n{line}\n".encode()
    for chunk in CHUNKS:
        check_equivalent(tmp_path / "ds.txt", raw, chunk)


@pytest.mark.parametrize(
    "raw",
    [
        b"2 4 3\r\n0 1:1\r\n1 2:1\r\n",
        b"2 4 3\r0 1:1\r1 2:1",
        b"2 4 3\n0 1:1\r\r\n",
        b"1 4 3\n0 1:1\n\n",
        b"1 4 3\n0 1:1",
        b"\n",
        b"",
        b"\xef\xbb\xbf1 4 3\n0 1:1\n",
        b"1 4 3\n0 1:1\n\xff",
        b"x 4 3\n0 1:1\r\xff\n",
        b"1 4 3\n0 1:\xc3\xa9\n",
        b"1 4 3\n0 1:1\xe2\x82\n",
        b"1 4 \xd9\xa3\n0 1:1\n",
        b"1 4 3\n0\t1:1\n",
        b"1_0 4 3\n0 1:1\n",
        b"+1 4 3\n0 1:1\n",
        b"1\x0b4\t3 \r\n0 1:1\r\n",
    ],
)
def test_line_ends_encodings_and_headers_as_before(tmp_path, raw):
    for chunk in CHUNKS:
        check_equivalent(tmp_path / "ds.txt", raw, chunk)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"x", b"0 1:1", b" "]), max_size=60),
    st.sampled_from(CHUNKS),
)
def test_line_ends_counts_as_the_bytes_expression(parts, chunk):
    """The pieces read CRLF, CR and LF ends as LF at any piece size: they
    join to the text-mode form, and their count of LF is the count of CRLF,
    CR and LF ends that `bytes.count` gives."""
    raw = b"".join(parts)
    expect = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    with mock.patch.object(data, "_CHUNK", chunk):
        pieces = list(data._pieces(io.BytesIO(raw)))
    assert b"".join(pieces) == raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    assert sum(piece.count(b"\n") for piece in pieces) == expect


def test_invalid_utf8_names_file_and_line_before_the_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 4 2 9\n0 0:1\n1 1:\xff\n")
    with pytest.raises(DatasetFormatError) as err:
        data.parse_dataset(path)
    assert str(err.value) == f"{path}: line 3: not valid UTF-8"


@contextlib.contextmanager
def token_conversions():
    """The tokens that `data` converts alone, by `int()` or `float()` of their
    bytes, in order."""
    calls = []

    def counted(convert):
        def call(x, *args):
            if isinstance(x, bytes):
                calls.append(x)
            return convert(x, *args)

        return call

    with mock.patch.multiple(data, create=True, int=counted(int), float=counted(float)):
        yield calls


@pytest.mark.parametrize("chunk", CHUNKS)
def test_generated_corpora_take_the_fast_path(tmp_path, chunk):
    ds = generate_synthetic(
        n=300, d=50_000, L=40, sparsity=20, labels_per_sample=3, clusters=6, seed=1
    )
    path = tmp_path / "ds.txt"
    data.write_dataset(ds, path)
    with mock.patch.object(data, "_CHUNK", chunk), token_conversions() as calls:
        assert oracles.same_dataset(ds, data.parse_dataset(path))
    assert calls == []


def test_benchmark_corpora_take_the_fast_path(tmp_path, monkeypatch):
    corpus_py = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", corpus_py)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # for its dataclass
    spec.loader.exec_module(corpus)
    shape = corpus.Shape(
        n_train=200, n_test=50, d=782_585, L=983, nnz=30, labels=8, clusters=5
    )
    for text in corpus.generate(shape, "wide", 0):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        with token_conversions() as calls:
            assert oracles.same_dataset(data.parse_dataset(path), oracles.parse_dataset(path))
        assert calls == []


@settings(deadline=None, max_examples=100)
@given(ds=datasets(fast=True))
def test_formatted_values_in_range_take_the_fast_path(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("fast") / "ds.txt"
    data.write_dataset(ds, path)
    with token_conversions() as calls:
        assert oracles.same_dataset(ds, data.parse_dataset(path))
    assert calls == []


@pytest.mark.parametrize(
    "value", ["3.44618e+28", "1e23", "-9.99999e+28", "1e29", "90071992547409e24", "0e99"]
)
def test_exponents_above_22_take_the_fast_path(tmp_path, value):
    raw = f"1 4 3\n1 0:{value} 3:1\n".encode()
    path = tmp_path / "ds.txt"
    path.write_bytes(raw)
    with token_conversions() as calls:
        assert oracles.same_dataset(data.parse_dataset(path), oracles.parse_dataset(path))
    assert calls == []


def _lines_400():
    ds = generate_synthetic(
        n=400, d=1000, L=20, sparsity=10, labels_per_sample=2, clusters=4, seed=2
    )
    return ds, format_dataset(ds).split("\n")


def test_a_bad_line_fails_at_its_line_with_no_token_converted(tmp_path):
    _, lines = _lines_400()
    lines[300] = lines[300].replace(":", ":\t", 1)  # a tab: outside the grammar
    path = tmp_path / "ds.txt"
    with token_conversions() as calls:
        check_equivalent(path, "\n".join(lines).encode(), 4096)
        with pytest.raises(DatasetFormatError, match=r": line 301: bad feature pair '\d+:\\t"):
            data.parse_dataset(path)
    assert calls == []


def test_only_tokens_outside_the_exact_path_are_converted_alone(tmp_path):
    """A 19-digit value and an exponent of 19 digits are each read by one
    `float()` of their own bytes; every other token of the file by numpy."""
    _, lines = _lines_400()
    long_tokens = [b"1234567890123456789", b"1e0000000000000000005"]
    for at, token in zip((100, 250), long_tokens):
        lines[at] = re.sub(":[^ ]*", f":{token.decode()}", lines[at], count=1)
    with token_conversions() as calls:
        check_equivalent(tmp_path / "ds.txt", "\n".join(lines).encode(), 4096)
    assert calls == long_tokens


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("ends", [[b"\r"], [b"\r", b"\r\n", b"\n", b"\r\n"]], ids=["cr", "mixed"])
def test_cr_line_ends_parse_as_lf_in_bounded_pieces(tmp_path, monkeypatch, chunk, ends):
    """A block is cut after a CR too, unless the CR is its last byte (a CRLF
    may follow: the block reads one byte more), so a file whose lines end in
    CR is read in pieces of at most _CHUNK + 1 bytes plus one line, and
    parses as its LF form."""
    ds, lines = _lines_400()
    lines.pop()  # the empty string after the last line end
    path = tmp_path / "ds.txt"
    path.write_bytes(b"".join(line.encode() + end for line, end in zip(lines, itertools.cycle(ends))))
    sizes, pieces = [], data._pieces

    def measured(f):
        for piece in pieces(f):
            sizes.append(len(piece))
            yield piece

    monkeypatch.setattr(data, "_pieces", measured)
    with mock.patch.object(data, "_CHUNK", chunk):
        assert oracles.same_dataset(data.parse_dataset(path), ds)
    assert len(sizes) > len(lines) // 2
    assert max(sizes) <= chunk + 1 + max(map(len, lines)) + 2
