import random
from fractions import Fraction

import pytest

from bettikit.tables import BettiTable, DegreeSequence, ParseError


def table(cells):
    return BettiTable(cells)


def test_constructor_drops_zeros_and_rejects_negatives():
    assert table({(0, 0): 0, (1, 1): 2}) == table({(1, 1): 2})
    bools = table({(0, 0): True, (1, 1): False})
    assert bools.entries == {(0, 0): 1} and type(bools.entry(0, 0)) is Fraction
    with pytest.raises(ValueError, match=r"negative entry at cell \(p=0, q=0\) \(value -1\)"):
        table({(0, 0): -1})
    with pytest.raises(TypeError, match="table entries must be rational, got float"):
        table({(0, 0): 1.5})


def test_dimensions():
    t = table({(0, 0): 1, (1, 2): 7, (4, 2): 1})
    assert t.projective_dimension() == 4
    assert t.regularity() == 2
    assert table({}).projective_dimension() == -1


def test_hilbert_numerator_unit():
    assert table({(0, 0): 1}).hilbert_numerator() == [1]
    assert table({}).hilbert_numerator() == []


def test_hilbert_numerator_twisted_cubic():
    t = table({(0, 0): 1, (1, 1): 3, (2, 1): 2})
    assert t.hilbert_numerator() == [1, 0, -3, 2]


def test_hilbert_numerator_projected_veronese():
    t = table({(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1})
    assert t.hilbert_numerator() == [1, 0, 0, -7, 10, -5, 1]


def test_hilbert_numerator_needs_integers():
    with pytest.raises(ValueError):
        table({(0, 0): Fraction(1, 2)}).hilbert_numerator()


def test_equality_hash_and_truth():
    assert hash(table({(0, 0): 1, (1, 1): 3})) == hash(table({(1, 1): Fraction(3), (0, 0): 1}))
    assert (table({(0, 0): 1}) == 1) is False
    assert not table({})
    assert table({(0, 0): 1})


def random_table(rng):
    cells = {}
    for _ in range(rng.randint(0, 8)):
        cell = (rng.randint(0, 5), rng.randint(0, 5))
        cells[cell] = Fraction(rng.randint(1, 40), rng.randint(1, 12))
    return BettiTable(cells)


def test_text_round_trip_projected_veronese():
    text = "0: 1\n2: . 7 10 5 1"
    t = BettiTable.from_text(text)
    assert t == table({(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1})
    assert BettiTable.from_text(t.to_text()) == t
    assert t.to_text() == "0: 1\n2: . 7 10 5 1\n"


def test_text_rationals_and_gaps():
    t = table({(0, 1): Fraction(7, 3), (2, 1): 5})
    assert t.to_text() == "1: 7/3 . 5\n"
    assert BettiTable.from_text(t.to_text()) == t


def test_text_negative_entry():
    with pytest.raises(ParseError) as info:
        BettiTable.from_text("0: 1\n1: -2")
    assert (info.value.line, info.value.column) == (2, 4)
    assert info.value.message == "negative entry at cell (p=0, q=1) (value -2)"


def test_text_parse_errors():
    with pytest.raises(ParseError):
        BettiTable.from_text("not a table")
    with pytest.raises(ParseError):
        BettiTable.from_text("0: 1 x")
    with pytest.raises(ParseError):
        BettiTable.from_text("-1: 3")


def test_text_negative_row_label_is_located_at_the_label():
    for text, line, column in (("-1: . 2", 1, 1), ("0: 1\n  -1: . 2", 2, 3)):
        with pytest.raises(ParseError) as info:
            BettiTable.from_text(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert info.value.message == "negative row label -1"


def test_text_zero_denominator():
    with pytest.raises(ParseError) as info:
        BettiTable.from_text("0: 1\n1: . 1/0")
    assert (info.value.line, info.value.column) == (2, 6)
    assert "zero denominator" in info.value.message


def test_text_duplicate_cell():
    with pytest.raises(ParseError) as info:
        BettiTable.from_text("0: 1\n0: 2")
    assert "duplicate row 0" in str(info.value)
    # a repeated label is an error at the label, even where no cell repeats
    for text in ("0: 1\n2: . 7\n  2: . . 10 5 1", "0: 1\n2: .\n  2: 5"):
        with pytest.raises(ParseError) as info:
            BettiTable.from_text(text)
        assert (info.value.line, info.value.column) == (3, 3)
        assert info.value.message == "duplicate row 2"


def test_json_round_trip():
    rng = random.Random(6)
    for _ in range(50):
        t = random_table(rng)
        assert BettiTable.from_json(t.to_json()) == t
        assert BettiTable.from_text(t.to_text()) == t
    canonical = table({(0, 0): 1, (1, 2): Fraction(7, 2)}).to_json()
    assert BettiTable.from_json(canonical).to_json() == canonical


def test_json_duplicate_cell_rejected():
    payload = '{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"},' \
              ' {"p": 0, "q": 0, "num": "2", "den": "1"}]}'
    with pytest.raises(ValueError):
        BettiTable.from_json(payload)
    # a cell is listed at most once, even where its first listing is 0
    payload = '{"entries": [{"p": 1, "q": 1, "num": "0", "den": "1"},' \
              ' {"p": 0, "q": 0, "num": "1", "den": "1"},' \
              ' {"p": 1, "q": 1, "num": "3", "den": "1"}]}'
    with pytest.raises(ValueError, match=r"^duplicate cell \(p=1, q=1\) in JSON table$"):
        BettiTable.from_json(payload)


def test_json_zero_denominator_rejected():
    payload = '{"entries": [{"p": 1, "q": 1, "num": "1", "den": "0"}]}'
    with pytest.raises(ValueError, match="zero denominator"):
        BettiTable.from_json(payload)


MALFORMED_JSON = {
    "missing-key": ('{"entries": [{"p": 0, "q": 0}]}', "entry 0 .* no 'num'"),
    "entry-not-object": ('{"entries": [1]}', "entry 0 .* not an object"),
    "entries-not-list": ('{"entries": 5}', "'entries' list"),
    "payload-not-object": ('[1, 2]', "'entries' list"),
    "float-index": ('{"entries": [{"p": 1.5, "q": 0, "num": "1", "den": "1"}]}',
                    "'p' is 1.5, not an integer"),
    "bool-index": ('{"entries": [{"p": 0, "q": true, "num": "1", "den": "1"}]}',
                   "'q' is True, not an integer"),
    "float-numerator": ('{"entries": [{"p": 0, "q": 0, "num": 2.0, "den": "1"}]}',
                        "'num' is 2.0, not an integer"),
    "word-denominator": ('{"entries": [{"p": 0, "q": 0, "num": "1", "den": "two"}]}',
                         "'den' is 'two', not an integer"),
    "second-entry": ('{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"}, {"p": 1}]}',
                     "entry 1 .* no 'q'"),
    "negative-entry": ('{"entries": [{"p": 1, "q": 1, "num": "-2", "den": "3"}]}',
                       r"^negative entry at cell \(p=1, q=1\) \(value -2/3\)$"),
    "negative-index": ('{"entries": [{"p": -1, "q": 0, "num": "1", "den": "1"}]}',
                       r"^cell indices must be nonnegative integers, got \(-1, 0\)$"),
}


@pytest.mark.parametrize("payload, message", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_json_malformed_entry_rejected(payload, message):
    with pytest.raises(ValueError, match=message):
        BettiTable.from_json(payload)


def test_json_integers_as_numbers_or_strings():
    payload = '{"entries": [{"p": "1", "q": 2, "num": 3, "den": "2"}]}'
    assert BettiTable.from_json(payload) == table({(1, 2): Fraction(3, 2)})


def test_cleared():
    t = table({(0, 0): 1, (1, 1): Fraction(10, 3), (3, 2): Fraction(8, 3)})
    cleared, scale = t.cleared()
    assert scale == 3
    assert cleared == table({(0, 0): 3, (1, 1): 10, (3, 2): 8})
    assert table({}).cleared() == (table({}), 1)


def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence((0, 0))
    with pytest.raises(ValueError):
        DegreeSequence((3, 1))
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError, match="degrees must be integers"):
        DegreeSequence((0, 1.5))
    d = DegreeSequence((0, 3, 4, 5))
    assert d.length == 3
    assert list(d) == [0, 3, 4, 5]
    assert d[2] == 4


def test_degree_sequence_parse_and_str():
    d = DegreeSequence.parse("0,3,4,5")
    assert d == DegreeSequence((0, 3, 4, 5))
    assert str(d) == "0,3,4,5"
    with pytest.raises(ValueError):
        DegreeSequence.parse("0,a,2")
    for text in ("0,,3", "0,3,", ",0,3", " , "):
        with pytest.raises(ValueError, match="empty entry"):
            DegreeSequence.parse(text)
