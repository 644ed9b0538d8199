import json

import pytest

from motsign import (
    DuplicateKeyError,
    GroupTableRow,
    ParseError,
    check_conjecture,
    load_sample_table,
    parse_table,
    render_table,
)


def _gw_class(a: int, b: int) -> tuple[int, int]:
    """Oracle for the degree-(0,0) real-motivic coefficients: send
    a + b*eps to (rank, signature) in the Grothendieck-Witt ring of the
    reals, where eps is minus the class of the form <-1>."""
    return (a - b, a + b)


def test_gw_oracle_one_minus_eps_is_nonzero():
    # 1 - eps has rank 2 and signature 0: nonzero, so the bundled row
    # ("one", eps_nonzero=1) is honest
    assert _gw_class(1, -1) == (2, 0)
    assert _gw_class(1, -1) != (0, 0)
    # sanity: eps itself realizes as (-1, 1) and squares to 1
    assert _gw_class(0, 1) == (-1, 1)


def test_parse_csv_examples():
    rows = parse_table("eta,1,1,0,relations\n", "csv")
    assert rows == [GroupTableRow("eta", 1, 1, False, "relations")]
    rows = parse_table("rho,-1,-1,0,relations\n", "csv")
    assert rows[0].eps_nonzero is False
    rows = parse_table("one,0,0,1,gw\n", "csv")
    assert rows == [GroupTableRow("one", 0, 0, True, "gw")]


def test_parse_csv_reports_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_table("eta,1,1,0,relations\nbad,row\n", "csv")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_table("eta,1,one,0,relations\n", "csv")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_table("eta,1,1,yes,relations\n", "csv")


def test_parse_rejects_duplicates():
    text = "eta,1,1,0,relations\neta,1,1,1,other\n"
    with pytest.raises(DuplicateKeyError):
        parse_table(text, "csv")
    # same name in a different bidegree is fine
    parse_table("eta,1,1,0,relations\neta,2,1,0,relations\n", "csv")


def test_parse_json():
    text = '[{"name": "eta", "stem": 1, "weight": 1, "eps_nonzero": false, "source": "relations"}]'
    rows = parse_table(text, "json")
    assert rows == [GroupTableRow("eta", 1, 1, False, "relations")]
    with pytest.raises(ParseError):
        parse_table('{"name": "eta"}', "json")
    with pytest.raises(ParseError):
        parse_table('[{"name": "eta", "stem": 1}]', "json")
    with pytest.raises(ParseError):
        parse_table("[not json", "json")


def test_json_rows_follow_the_csv_rules():
    def row(name="a", stem=1, weight=1, eps_nonzero=0, source="s"):
        return json.dumps([{"name": name, "stem": stem, "weight": weight, "eps_nonzero": eps_nonzero, "source": source}])

    for flag, value in ((0, False), (1, True), (False, False), (True, True)):
        assert parse_table(row(eps_nonzero=flag), "json") == [GroupTableRow("a", 1, 1, value, "s")]
    # each value must have the type a CSV row is read as
    for bad in (row(eps_nonzero="0"), row(eps_nonzero="1"), row(eps_nonzero=2), row(eps_nonzero=1.0),
                row(eps_nonzero=None), row(weight=1.7), row(stem="1"), row(stem=True), row(weight=None),
                row(name=None), row(source=["s"])):
        with pytest.raises(ParseError):
            parse_table(bad, "json")
    with pytest.raises(ParseError):
        parse_table("a,1,1.7,1,s\n", "csv")


def test_round_trips_are_byte_stable():
    rows = load_sample_table()
    for fmt in ("csv", "json"):
        text = render_table(rows, fmt)
        assert parse_table(text, fmt) == rows
        assert render_table(parse_table(text, fmt), fmt) == text


def test_check_conjecture_on_sample():
    rows = load_sample_table()
    assert check_conjecture(rows) == []


def test_check_conjecture_detects_planted_row():
    rows = load_sample_table()
    planted = GroupTableRow("x", 3, 1, True, "synthetic")
    violations = check_conjecture(rows + [planted])
    assert violations == [planted]


def test_check_conjecture_empty_table():
    assert check_conjecture([]) == []


def test_check_conjecture_monotone():
    rows = load_sample_table() + [
        GroupTableRow("x", 3, 1, True, "synthetic"),
        GroupTableRow("y", -2, 5, True, "synthetic"),
        GroupTableRow("z", -2, 4, True, "synthetic"),
    ]
    full = set(check_conjecture(rows))
    for cut in range(len(rows)):
        sub = rows[:cut] + rows[cut + 1 :]
        assert set(check_conjecture(sub)) <= full


def test_violations_sorted_by_stem_weight_name():
    rows = [
        GroupTableRow("b", 5, 3, True, "s"),
        GroupTableRow("a", 5, 3, True, "s"),
        GroupTableRow("c", -1, 1, True, "s"),
        GroupTableRow("d", 5, 1, True, "s"),
    ]
    ordered = check_conjecture(rows)
    assert [(r.stem, r.weight, r.name) for r in ordered] == [(-1, 1, "c"), (5, 1, "d"), (5, 3, "a"), (5, 3, "b")]


def test_unknown_format_rejected():
    with pytest.raises(ParseError):
        parse_table("", "tsv")
    with pytest.raises(ParseError):
        render_table([], "tsv")
