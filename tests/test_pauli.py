import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladsim import (
    PauliParseError,
    PauliSumExpr,
    materialize,
    parse_pauli_sum,
    serialize_pauli_sum,
)
from lindbladsim.pauli import PAULI_MATRICES, _tokenize


def naive_matrix(terms, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, word in terms:
        op = np.array([[1.0 + 0j]])
        for ch in word:
            op = np.kron(op, PAULI_MATRICES[ch])
        out += coeff * op
    return out


def test_parse_two_term_sum():
    expr = parse_pauli_sum("0.5*XX + 1.0*ZI", 2)
    assert expr.n == 2
    assert expr.terms == ((0.5, "XX"), (1.0, "ZI"))
    assert len(expr.terms) == 2


def test_parse_cancellation_leaves_empty_sum():
    expr = parse_pauli_sum("XX - XX", 2)
    assert expr.terms == ()
    np.testing.assert_array_equal(materialize(expr), np.zeros((4, 4)))


def test_parse_merges_like_words():
    expr = parse_pauli_sum("0.25*ZZ + XI + 0.75*ZZ", 2)
    assert expr.terms == ((1.0, "XI"), (1.0, "ZZ"))


def test_parse_leading_sign_and_bare_words():
    assert parse_pauli_sum("-XX", 2).terms == ((-1.0, "XX"),)
    assert parse_pauli_sum("+0.5*XY", 2).terms == ((0.5, "XY"),)
    assert parse_pauli_sum("Z", 1).terms == ((1.0, "Z"),)


def test_parse_exponent_coefficients():
    expr = parse_pauli_sum("1e-3*XX + 2.5e2*ZZ", 2)
    assert expr.terms == ((0.001, "XX"), (250.0, "ZZ"))


def test_parse_whitespace_insensitive():
    a = parse_pauli_sum("0.5*XX+1.0*ZI", 2)
    b = parse_pauli_sum("  0.5 * XX  +  1.0 * ZI ", 2)
    assert a == b


def test_wrong_word_length_reports_position():
    with pytest.raises(PauliParseError) as info:
        parse_pauli_sum("1.5*XYZ", 2)
    assert info.value.position == 4

    with pytest.raises(PauliParseError) as info:
        parse_pauli_sum("XX + XYZ", 2)
    assert info.value.position == 5


def test_error_positions():
    cases = [
        ("", 0),
        ("   ", 0),
        ("0.5*XX +", 8),
        ("0.5 XX", 4),
        ("0.5*", 4),
        ("XX + + XX", 5),
        ("a*XX", 0),
        ("XX ZZ", 3),
    ]
    for text, at in cases:
        with pytest.raises(PauliParseError) as info:
            parse_pauli_sum(text, 2)
        assert info.value.position == at, text


def test_rejects_bad_qubit_count():
    with pytest.raises(PauliParseError):
        parse_pauli_sum("XX", 0)


def test_materialize_zi():
    expr = parse_pauli_sum("ZI", 2)
    np.testing.assert_array_equal(materialize(expr), np.diag([1, 1, -1, -1]))


def test_materialize_flip_sum_on_ground_state():
    expr = parse_pauli_sum("XI + IX", 2)
    e00 = np.zeros(4)
    e00[0] = 1.0
    out = materialize(expr) @ e00
    np.testing.assert_allclose(out, [0.0, 1.0, 1.0, 0.0], atol=1e-15)


def test_materialize_matches_naive_oracle():
    rng = np.random.default_rng(0)
    letters = "IXYZ"
    for n in (1, 2, 3):
        words = set()
        while len(words) < 4:
            words.add("".join(rng.choice(list(letters), size=n)))
        terms = [(float(rng.normal()), w) for w in sorted(words)]
        parts = [f"{terms[0][0]}*{terms[0][1]}"]
        for c, w in terms[1:]:
            parts.append(f"+ {c}*{w}" if c >= 0 else f"- {abs(c)}*{w}")
        text = " ".join(parts)
        got = materialize(parse_pauli_sum(text, n))
        np.testing.assert_allclose(got, naive_matrix(terms, n), atol=1e-14)
        assert np.abs(got - got.conj().T).max() <= 1e-14


def test_serialize_examples():
    assert serialize_pauli_sum(parse_pauli_sum("XX - XX", 2)) == "0*II"
    assert serialize_pauli_sum(parse_pauli_sum("-0.5*XY + ZI", 2)) == "-0.5*XY + 1.0*ZI"


word_st = st.text(alphabet="IXYZ", min_size=2, max_size=2)
coeff_st = st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0.0)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(word_st, coeff_st, min_size=0, max_size=6))
def test_serialize_parse_round_trip(table):
    expr = PauliSumExpr(n=2, terms=tuple((c, w) for w, c in sorted(table.items())))
    assert parse_pauli_sum(serialize_pauli_sum(expr), 2) == expr


def _reference_tokenize(text):
    # the character-by-character scanner that pauli._tokenize replaced
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in "IXYZ":
            start = i
            while i < n and text[i] in "IXYZ":
                i += 1
            tokens.append(("word", text[start:i], start))
            continue
        if c in "0123456789.":
            start = i
            while i < n and text[i] in "0123456789.":
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            try:
                value = float(lit)
            except ValueError:
                raise PauliParseError(f"malformed number {lit!r}", start)
            if not math.isfinite(value):
                raise PauliParseError(f"non-finite coefficient {lit!r}", start)
            tokens.append(("num", value, start))
            continue
        raise PauliParseError(f"unexpected character {c!r}", i)
    return tokens


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except PauliParseError as ex:
        return ("error", str(ex), ex.position)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="IXYZ+-*.0123456789eE\t\n\xa0　٣１²", max_size=24))
def test_tokenize_matches_the_reference_scanner(text):
    # a superscript two is a digit to str.isdigit but not to float or \d, so
    # after an exponent marker the two scanners reject it with different messages
    got, want = _scan(_tokenize, text), _scan(_reference_tokenize, text)
    if "²" in text:
        assert got[0] == want[0] == "error"
    else:
        assert got == want


def _reference_parse(text, n):
    # the recursive-descent parser (a nested term parser with end-of-input
    # checks) that the one flat loop of parse_pauli_sum replaced
    if n < 1:
        raise PauliParseError("qubit count must be >= 1", 0)
    if not text or text.isspace():
        raise PauliParseError("empty expression", 0)
    tokens = _tokenize(text)
    pos = 0
    collected = {}

    def term_error_at():
        return tokens[pos][2] if pos < len(tokens) else len(text)

    def parse_term(sign):
        nonlocal pos
        if pos >= len(tokens):
            raise PauliParseError("empty term", term_error_at())
        kind, value, at = tokens[pos]
        coeff = 1.0
        if kind == "num":
            coeff = value
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "*":
                raise PauliParseError("expected '*' after coefficient", term_error_at())
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "word":
                raise PauliParseError("expected Pauli word", term_error_at())
            kind, value, at = tokens[pos]
        if kind != "word":
            raise PauliParseError("empty term", at)
        if len(value) != n:
            raise PauliParseError(f"word {value!r} has length {len(value)}, expected {n}", at)
        pos += 1
        collected[value] = collected.get(value, 0.0) + sign * coeff

    sign = 1.0
    if tokens and tokens[0][0] in "+-":
        sign = -1.0 if tokens[0][0] == "-" else 1.0
        pos = 1
    parse_term(sign)
    while pos < len(tokens):
        kind, _, at = tokens[pos]
        if kind not in "+-":
            raise PauliParseError("expected '+' or '-' between terms", at)
        pos += 1
        parse_term(-1.0 if kind == "-" else 1.0)
    terms = tuple((c, w) for w, c in sorted(collected.items()) if c != 0.0)
    return PauliSumExpr(n=n, terms=terms)


def _parse(parse, text, n):
    try:
        return parse(text, n)
    except PauliParseError as ex:
        return ("error", str(ex), ex.position)


_PIECES = ["I", "X", "Y", "Z", "XX", "ZI", "IXY", "+", "-", "*", "0.5", "2", "1e-3",
           "2.5E+2", "3.", ".", "e", " ", "\t", "\n", "\xa0", "　"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12), st.integers(1, 3))
def test_parse_matches_the_reference_parser(pieces, n):
    text = "".join(pieces)
    assert _parse(parse_pauli_sum, text, n) == _parse(_reference_parse, text, n)
