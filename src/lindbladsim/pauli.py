"""Pauli-sum expressions: parsing, canonical form, and materialization.

Grammar (whitespace insensitive):

    expr  := ['+'|'-'] term (('+'|'-') term)*
    term  := [coeff '*'] word
    coeff := decimal, optionally with an exponent part
    word  := [IXYZ]{n}

Canonical form merges like words, drops exact zeros, and sorts words
lexicographically. Coefficients are real, so materialized operators are
Hermitian by construction.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import PauliParseError

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# One token after optional whitespace. bad takes only a non-space character, so
# trailing whitespace matches nothing and no character is skipped.
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*])|(?P<word>[IXYZ]+)"
                    r"|(?P<num>[0-9.]+(?:[eE][+-]?\d+)?)|(?P<bad>\S))")


@dataclass(frozen=True)
class PauliSumExpr:
    """Canonical list of (real coefficient, Pauli word) over n qubits."""

    n: int
    terms: tuple


def _tokenize(text: str):
    """Full token list with positions; raises on any bad character."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        lit, at = match.group(kind), match.start(kind)
        if kind == "bad":
            raise PauliParseError(f"unexpected character {lit!r}", at)
        if kind == "num":
            try:
                value = float(lit)
            except ValueError:
                raise PauliParseError(f"malformed number {lit!r}", at)
            if not math.isfinite(value):
                raise PauliParseError(f"non-finite coefficient {lit!r}", at)
            tokens.append(("num", value, at))
        else:
            tokens.append((lit if kind == "op" else kind, lit, at))
    return tokens


def parse_pauli_sum(text: str, n: int) -> PauliSumExpr:
    """Parse into canonical form: like words merged, zeros dropped, sorted."""
    if n < 1:
        raise PauliParseError("qubit count must be >= 1", 0)
    if not text or text.isspace():
        raise PauliParseError("empty expression", 0)
    tokens = _tokenize(text) + [("end", "", len(text))]
    pos, sign, collected = 0, 1.0, {}
    if tokens[0][0] in "+-":
        sign, pos = (-1.0 if tokens[0][0] == "-" else 1.0), 1
    while True:
        # a term at tokens[pos]: [coeff '*'] word
        kind, value, at = tokens[pos]
        coeff = 1.0
        if kind == "num":
            coeff = value
            if tokens[pos + 1][0] != "*":
                raise PauliParseError("expected '*' after coefficient", tokens[pos + 1][2])
            pos += 2
            kind, value, at = tokens[pos]
            if kind != "word":
                raise PauliParseError("expected Pauli word", at)
        if kind != "word":
            raise PauliParseError("empty term", at)
        if len(value) != n:
            raise PauliParseError(
                f"word {value!r} has length {len(value)}, expected {n}", at)
        collected[value] = collected.get(value, 0.0) + sign * coeff
        kind, _, at = tokens[pos + 1]
        if kind == "end":
            break
        if kind not in "+-":
            raise PauliParseError("expected '+' or '-' between terms", at)
        sign, pos = (-1.0 if kind == "-" else 1.0), pos + 2

    terms = tuple((c, w) for w, c in sorted(collected.items()) if c != 0.0)
    return PauliSumExpr(n=n, terms=terms)


def materialize(expr: PauliSumExpr) -> np.ndarray:
    """Dense matrix Σ c · P_1 ⊗ ... ⊗ P_n, leftmost letter outermost."""
    d = 2 ** expr.n
    out = np.zeros((d, d), dtype=complex)
    for coeff, word in expr.terms:
        op = np.array([[1.0 + 0j]])
        for ch in word:
            op = np.kron(op, PAULI_MATRICES[ch])
        out += coeff * op
    return out


def serialize_pauli_sum(expr: PauliSumExpr) -> str:
    """Canonical text; parse(serialize(e)) recovers e exactly."""
    if not expr.terms:
        return "0*" + "I" * expr.n
    parts = []
    for i, (coeff, word) in enumerate(expr.terms):
        mag = repr(abs(coeff))
        if coeff < 0:
            parts.append(("- " if i else "-") + f"{mag}*{word}")
        else:
            parts.append(("+ " if i else "") + f"{mag}*{word}")
    return " ".join(parts)
