"""Fuzzed table and ideal text: a clean exit code or a documented error, never a traceback."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from bettikit.cli import main
from bettikit.fixtures import FIXTURES, fixture_path, load_text
from bettikit.polyring import parse_ideal
from bettikit.tables import BettiTable

TABLE_FILES = [entry.filename for entry in FIXTURES if not entry.is_ideal()]
TABLE_TEXTS = [load_text(filename) for filename in TABLE_FILES]
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
    except ValueError:
        pass


WELL_FORMED = st.integers(-2, 3).map(str)
# numerals int() reads but the integer syntax (a sign, then ASCII digits) rejects
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(chr(0x660 + i) for i in range(10)))
MALFORMED = st.one_of(WELL_FORMED.map(lambda n: n + "_0"),
                      WELL_FORMED.map(lambda n: n.translate(ARABIC_INDIC_DIGITS)),
                      st.sampled_from(["\uff13", "\u00b2"]),
                      WELL_FORMED.map(lambda n: f" {n}"), WELL_FORMED.map(lambda n: f"{n}\t"))
NUMBERS = st.one_of(WELL_FORMED, WELL_FORMED, MALFORMED)


@st.composite
def numeric_flag_argv(draw):
    """A `check`, `decompose` or `betti` command line with numeric flags, mostly
    from -2 to 3 and now and then malformed, and whether any is malformed."""
    numerals = []

    def number():
        numerals.append(draw(NUMBERS))
        return numerals[-1]

    command = draw(st.sampled_from(("check", "decompose", "betti")))
    if command == "betti":
        argv = ["betti", fixture_path("twisted_cubic.ideal"), "--qmax", number()]
    else:
        argv = [command, fixture_path(draw(st.sampled_from(TABLE_FILES)))]
        if command == "check" or draw(st.booleans()):
            argv += ["--codim", number()]
    if command == "check" and draw(st.booleans()):
        argv += ["--ndm", f"{number()},{number()}"]
    if command == "check" and draw(st.booleans()):
        argv.append("--next-to-max")
    return argv, any(not n.isascii() or not n.lstrip("-").isdigit() for n in numerals)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=numeric_flag_argv())
def test_cli_numeric_flags_exit_cleanly(case):
    argv, malformed = case
    try:
        code = run_quietly(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 64 if malformed else code in (0, 1, 2, 64)
