"""Tests for TO_CHAR-style rendering and the escaped line format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpoolError
from repro.storage.codec import (
    decode_block,
    encode_block,
    escape_line,
    render_column,
    render_distinct_sorted,
    render_value,
    unescape_line,
)


class TestRenderValue:
    def test_strings_pass_through(self):
        assert render_value("abc") == "abc"

    def test_ints(self):
        assert render_value(144) == "144"
        assert render_value(-7) == "-7"

    def test_integral_float_drops_fraction(self):
        assert render_value(1.0) == "1"
        assert render_value(-3.0) == "-3"

    def test_fractional_float(self):
        assert render_value(1.5) == "1.5"

    def test_float_round_trip_shortest(self):
        assert render_value(0.1) == "0.1"

    def test_nan_and_inf(self):
        assert render_value(float("nan")) == "nan"
        assert render_value(float("inf")) == "inf"

    def test_to_char_cross_type_equality(self):
        # The heart of the paper's value semantics: 144 == "144".
        assert render_value(144) == render_value("144")

    def test_bytes_as_hex(self):
        assert render_value(b"\x01\xff") == "01ff"

    def test_none_rejected(self):
        with pytest.raises(SpoolError):
            render_value(None)

    def test_bool_rejected(self):
        with pytest.raises(SpoolError):
            render_value(True)

    def test_unknown_type_rejected(self):
        with pytest.raises(SpoolError):
            render_value(object())


#: Floats whose rendering is easy to get wrong: NaN, the infinities, the
#: signed zero, integral values beyond 2**53 and at the top of the range,
#: and the smallest subnormal.
SPECIAL_FLOATS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    1e16,
    1e22,
    5e-324,
    2.0**53 + 2,
    -(2.0**53) - 2,
    1.7976931348623157e308,
    0.1,
    -2.5,
]


class TestRenderColumn:
    """``render_column`` is ``render_value`` per value, type by type."""

    def test_float_specials(self):
        assert list(render_column("FLOAT", SPECIAL_FLOATS)) == [
            render_value(x) for x in SPECIAL_FLOATS
        ]

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(allow_nan=True, allow_infinity=True)))
    def test_float_matches_render_value(self, xs):
        assert list(render_column("FLOAT", xs)) == [render_value(x) for x in xs]

    @pytest.mark.parametrize(
        ("dtype", "values"),
        [
            ("INTEGER", [0, -7, 10**30]),
            ("VARCHAR", ["", "a\nb", "é"]),
            ("DATE", ["2006-04-03"]),
            ("CLOB", ["long text"]),
            ("BLOB", [b"", b"\x01\xff"]),
        ],
    )
    def test_other_types(self, dtype, values):
        assert list(render_column(dtype, values)) == [
            render_value(v) for v in values
        ]


class TestEscaping:
    @pytest.mark.parametrize(
        "text",
        ["plain", "", "tab\tok", "new\nline", "carriage\rreturn",
         "back\\slash", "\\n literal", "mix\\\n\r\\r"],
    )
    def test_roundtrip(self, text):
        assert unescape_line(escape_line(text)) == text

    def test_escaped_has_no_newlines(self):
        assert "\n" not in escape_line("a\nb")
        assert "\r" not in escape_line("a\rb")

    def test_unescape_rejects_dangling(self):
        with pytest.raises(SpoolError):
            unescape_line("abc\\")

    def test_unescape_rejects_unknown_escape(self):
        with pytest.raises(SpoolError):
            unescape_line("ab\\x")


class TestBlockCodec:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [""],
            ["plain"],
            ["a", "b", "c"],
            ["new\nline", "back\\slash", "carriage\rreturn"],
            ["nul\x00byte", "tab\tok", "ünïcode", "0"],
            ["", "", ""],  # repeated empties survive the count framing
        ],
    )
    def test_roundtrip(self, values):
        assert decode_block(encode_block(values), len(values)) == values

    def test_payload_of_plain_values_is_join(self):
        # The fast path: no escapes, decode is one split, byte-transparent.
        assert encode_block(["a", "b"]) == b"a\nb"

    def test_escaped_values_have_no_raw_separators(self):
        payload = encode_block(["x\ny", "z"])
        assert payload.count(b"\n") == 1  # only the separator survives

    def test_count_mismatch_rejected(self):
        payload = encode_block(["a", "b"])
        with pytest.raises(SpoolError, match="promises 3 values"):
            decode_block(payload, 3)

    def test_zero_count_with_payload_rejected(self):
        with pytest.raises(SpoolError, match="zero-value block"):
            decode_block(b"junk", 0)

    def test_zero_count_empty_payload(self):
        assert decode_block(b"", 0) == []

    def test_large_block_roundtrip(self):
        values = [f"value-{i:05d}" for i in range(5000)]
        assert decode_block(encode_block(values), 5000) == values


class TestRenderDistinctSorted:
    def test_dedupes_and_sorts(self):
        out = render_distinct_sorted([3, 1, 2, 1, "1"])
        # "1" and 1 collapse; lexicographic order.
        assert out == ["1", "2", "3"]

    def test_lexicographic_not_numeric(self):
        out = render_distinct_sorted([9, 10, 100])
        assert out == ["10", "100", "9"]

    def test_empty(self):
        assert render_distinct_sorted([]) == []
