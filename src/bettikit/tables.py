"""Exact sparse betti tables and degree sequences.

A betti table is stored as a dictionary mapping a cell (p, q) to a positive
rational entry; absent cells are zero.  The column index p is the homological
step and the row index q is the weight, so the entry at (p, q) lives in
internal degree p + q.  Keeping the table sparse and zero-free makes equality
testing a plain dictionary comparison.

All arithmetic is exact: entries are `fractions.Fraction` values and nothing
in this package ever rounds.

Two serialization formats are supported:

  text    one line per nonzero row, ``q: v0 v1 v2 ...`` with "." for a zero
          cell and rationals written "a/b"; a row label appears at most once
  json    ``{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"}, ...]}``
          sorted by (p, q), numerator/denominator as decimal strings; a cell
          is listed at most once, a listing of 0 included

Every integer read from outside input, here, in ideal files and on the
command line, has one syntax, INTEGER: an optional sign, then ASCII digits
0-9.  `integer` reads one and `rational` reads INTEGER or INTEGER/DIGITS;
a numeral longer than Python converts (`sys.get_int_max_str_digits()`, 4300
digits by default) is malformed input like any other, reported where it
stands.  `ParseError` reports malformed input and `load` reads a file,
naming it in any error.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Mapping, Union

Cell = tuple[int, int]
RationalLike = Union[Fraction, int]

DIGITS = "[0-9]+"
INTEGER = "[+-]?" + DIGITS
_INTEGER_RE = re.compile(INTEGER)
_ENTRY_RE = re.compile(f"{INTEGER}(?:/{DIGITS})?")
_TOKEN_RE = re.compile(r"\S+")


class ParseError(ValueError):
    """Malformed input, with where it was found: the file, line and column, as known."""

    def __init__(self, message: str, line: int | None = None, column: int = 1,
                 path: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.path = path
        if path is None:
            where = None if line is None else f"line {line}, column {column}"
        else:
            where = path if line is None else f"{path}:{line}:{column}"
        super().__init__(message if where is None else f"{where}: {message}")


def integer(text: str, what: str = "integer", line: int | None = None, column: int = 1) -> int:
    """The integer `text` spells in the INTEGER syntax; a ParseError naming `what` otherwise."""
    if not _INTEGER_RE.fullmatch(text):
        raise ParseError(f"bad {what} {text!r}", line, column)
    try:
        return int(text)
    except ValueError:  # more digits than Python converts
        digits = len(text.lstrip("+-"))
        raise ParseError(f"{what} has {digits} digits, more than the "
                         f"{sys.get_int_max_str_digits()} allowed", line, column) from None


def rational(text: str, what: str, line: int | None = None, column: int = 1) -> Fraction:
    """The rational `text` spells, INTEGER or INTEGER/DIGITS; a ParseError naming `what` otherwise."""
    if not _ENTRY_RE.fullmatch(text):
        raise ParseError(f"bad {what} {text!r}", line, column)
    numerator, _, denominator = text.partition("/")
    den = integer(denominator or "1", what, line, column)
    if not den:
        raise ParseError(f"zero denominator in {text!r}", line, column)
    return Fraction(integer(numerator, what, line, column), den)


def load(path: str, parse):
    """`parse` applied to the text of the file at `path`.

    A ValueError it raises comes back as a ParseError naming `path`, at the
    line and column of the original where it has them.  OSError passes through.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except ValueError as exc:
        raise ParseError(getattr(exc, "message", str(exc)), getattr(exc, "line", None),
                         getattr(exc, "column", 1), path) from None


def _json_int(item: dict, key: str, index: int) -> int:
    """The int at item[key]: a JSON integer, or a string of one as `to_json_dict` writes."""
    if key not in item:
        raise ValueError(f"entry {index} of the JSON table has no {key!r}")
    value = item[key]
    if isinstance(value, str) and _INTEGER_RE.fullmatch(value):
        return integer(value, f"entry {index} of the JSON table: {key!r}")
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"entry {index} of the JSON table: {key!r} is {value!r}, not an integer")


class BettiTable:
    """Immutable sparse table of nonnegative rationals indexed by (p, q)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Cell, RationalLike]):
        self._entries: dict[Cell, Fraction] = {}
        for (p, q), value in entries.items():
            if not (isinstance(p, int) and isinstance(q, int)) or p < 0 or q < 0:
                raise ValueError(f"cell indices must be nonnegative integers, got ({p}, {q})")
            if not isinstance(value, (Fraction, int)):
                raise TypeError(f"table entries must be rational, got {type(value).__name__}")
            if value.numerator < 0:
                raise ValueError(f"negative entry at cell (p={p}, q={q}) (value {value})")
            if value:
                self._entries[(p, q)] = value if isinstance(value, Fraction) else Fraction(value)

    @property
    def entries(self) -> Mapping[Cell, Fraction]:
        return MappingProxyType(self._entries)

    def entry(self, p: int, q: int) -> Fraction:
        return self._entries.get((p, q), Fraction(0))

    def is_zero(self) -> bool:
        return not self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        cells = ", ".join(f"({p},{q}): {v}" for (p, q), v in sorted(self._entries.items()))
        return f"BettiTable({{{cells}}})"

    def projective_dimension(self) -> int:
        """Largest column index with a nonzero entry; -1 for the zero table."""
        return max((p for p, _ in self._entries), default=-1)

    def regularity(self) -> int:
        """Largest row index with a nonzero entry; -1 for the zero table."""
        return max((q for _, q in self._entries), default=-1)

    def rows(self) -> list[int]:
        return sorted({q for _, q in self._entries})

    def hilbert_numerator(self) -> list[int]:
        """Coefficients of sum over cells of (-1)^p * entry * t^(p+q).

        Requires every entry to be an integer.  Returns the dense coefficient
        list [c_0, c_1, ...] with trailing zeros trimmed; the zero table gives [].
        """
        coeffs: list[int] = []
        for (p, q), value in self._entries.items():
            if value.denominator != 1:
                raise ValueError(f"non-integer entry {value} at (p={p}, q={q})")
            coeffs += [0] * (p + q + 1 - len(coeffs))
            coeffs[p + q] += -value.numerator if p % 2 else value.numerator
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return coeffs

    def cleared(self) -> tuple["BettiTable", int]:
        """Integer-cleared view: (table * m, m) with m the lcm of denominators."""
        m = lcm(*(v.denominator for v in self._entries.values()))
        return BettiTable({cell: v * m for cell, v in self._entries.items()}), m

    # text format

    def to_text(self) -> str:
        lines = []
        for q in self.rows():
            width = max(p for p, qq in self._entries if qq == q)
            cells = []
            for p in range(width + 1):
                value = self._entries.get((p, q))
                cells.append("." if value is None else str(value))
            lines.append(f"{q}: " + " ".join(cells))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "BettiTable":
        entries: dict[Cell, Fraction] = {}
        rows: set[int] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, _ = line.partition(":")
            if not sep:
                raise ParseError(f"expected 'q: entries', got {line!r}", lineno)
            label_column = len(raw) - len(raw.lstrip()) + 1
            q = integer(head.strip(), "row label", lineno, label_column)
            if q < 0:
                raise ParseError(f"negative row label {q}", lineno, label_column)
            if q in rows:
                raise ParseError(f"duplicate row {q}", lineno, label_column)
            rows.add(q)
            for p, match in enumerate(_TOKEN_RE.finditer(raw, raw.index(":") + 1)):
                token, column = match[0], match.start() + 1
                if token == ".":
                    continue
                value = rational(token, "entry token", lineno, column)
                if value < 0:
                    raise ParseError(f"negative entry at cell (p={p}, q={q}) (value {value})",
                                     lineno, column)
                entries[(p, q)] = value
        return cls(entries)

    # json format

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"p": p, "q": q, "num": str(v.numerator), "den": str(v.denominator)}
                for (p, q), v in sorted(self._entries.items())
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BettiTable":
        if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
            raise ValueError("table JSON must be an object with an 'entries' list")
        entries: dict[Cell, Fraction] = {}
        for index, item in enumerate(payload["entries"]):
            if not isinstance(item, dict):
                raise ValueError(f"entry {index} of the JSON table is not an object")
            p, q, num, den = (_json_int(item, key, index) for key in ("p", "q", "num", "den"))
            if den == 0:
                raise ValueError(f"zero denominator at cell (p={p}, q={q}) in JSON table")
            if (p, q) in entries:
                raise ValueError(f"duplicate cell (p={p}, q={q}) in JSON table")
            entries[(p, q)] = Fraction(num, den)
        return cls(entries)

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        return cls.from_json_dict(json.loads(text, parse_int=lambda digits: integer(
            digits, "JSON integer")))


@dataclass(frozen=True)
class DegreeSequence:
    """Strictly increasing integer tuple (d_0, ..., d_l) of a pure resolution.

    The length of the sequence is l, the number of entries minus one.  A
    single-entry sequence (length 0) is the degree sequence of a free module.
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        if not self.degrees:
            raise ValueError("degree sequence must be nonempty")
        if any(not isinstance(d, int) for d in self.degrees):
            raise ValueError("degrees must be integers")
        for i in range(1, len(self.degrees)):
            if self.degrees[i] <= self.degrees[i - 1]:
                raise ValueError(
                    f"degree sequence must be strictly increasing, got {self.degrees}")

    @property
    def length(self) -> int:
        return len(self.degrees) - 1

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self):
        return iter(self.degrees)

    def __getitem__(self, index: int) -> int:
        return self.degrees[index]

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.degrees)

    @classmethod
    def parse(cls, text: str) -> "DegreeSequence":
        tokens = text.split(",")
        if any(not t.strip() for t in tokens):
            raise ValueError(f"empty entry in degree sequence {text!r}")
        return cls(tuple(integer(t, "degree") for t in tokens))
