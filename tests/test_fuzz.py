"""Fuzzed table and ideal text: a clean exit code or a documented error, never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from bettikit.cli import main
from bettikit.fixtures import FIXTURES, load_text
from bettikit.polyring import IdealParseError, parse_ideal
from bettikit.tables import BettiTable

TABLE_TEXTS = [load_text(entry.filename) for entry in FIXTURES if not entry.is_ideal()]
TABLE_TEXTS.append(BettiTable.from_text(TABLE_TEXTS[0]).to_json())
IDEAL_TEXTS = [load_text(entry.filename) for entry in FIXTURES if entry.is_ideal()]

# the characters the two formats are made of, plus anything else now and then
FORMAT_CHARS = st.sampled_from(list(' \n\t.:/-+*^#,"{}[]0123456789pqnumdenxvarsfieldgfrational'))
CHARS = st.one_of(FORMAT_CHARS, FORMAT_CHARS, FORMAT_CHARS, st.characters())


@st.composite
def edited(draw, texts):
    """One of `texts` with one to four characters inserted, deleted or replaced."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:at] + draw(CHARS) + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(CHARS) + text[at + 1:]
    return text


def run_quietly(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(text=edited(TABLE_TEXTS))
def test_fuzzed_table_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.table"
    path.write_text(text, encoding="utf-8")
    assert run_quietly(["decompose", str(path)]) in (0, 1, 2, 64)
    assert run_quietly(["check", str(path), "--codim", "2"]) in (0, 1, 2, 64)


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(text=edited(IDEAL_TEXTS))
def test_fuzzed_ideal_parses_or_raises_value_error(text):
    try:
        parse_ideal(text)
    except (IdealParseError, ValueError):
        pass
