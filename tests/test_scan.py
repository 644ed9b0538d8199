import csv
import io
import json
import random

import pytest

from motsign import (
    DuplicateKeyError,
    GroupTableRow,
    MotsignError,
    ParseError,
    check_conjecture,
    load_sample_table,
    parse_table,
    render_table,
    scan_table,
)
from motsign import scan


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
    # the file line a row starts on, past quoted fields that hold newlines
    for text, line in [('a,1,2,0,"x\ny"\nbad\n', 3), ('"a\r\nb\nc",1,2,3,s\n', 1), ('a,1,2,0,"x\n\ny"\n\nb,1,x,0,s\n', 5)]:
        for fn in (parse_table, scan_table):
            with pytest.raises(ParseError) as info:
                fn(text, "csv")
            assert info.value.line == line, text


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


def test_hostile_tables_are_parse_errors():
    # past the JSON decoder's recursion limit, and a field past the csv module's size limit
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_table("[" * 200_000, "json")
    with pytest.raises(ParseError, match=r"field larger than field limit .*\(line 2\)"):
        parse_table("a,1,2,0,s\n" + "x" * 200_000 + ",1,2,0,s\n", "csv")


# ---------- the one-pass scanner against a two-pass reference ----------


def _reference_parse(text: str, fmt: str) -> list[GroupTableRow]:
    """Independent two-pass reader: every row validated and built first,
    duplicate keys checked after, so a malformed row anywhere wins."""
    rows = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        while True:
            line_no = reader.line_num + 1  # the line the next record starts on
            record = next(reader, None)
            if record is None:
                break
            if not record:
                continue
            if len(record) != 5:
                raise ParseError(
                    f"expected 5 columns ('name', 'stem', 'weight', 'eps_nonzero', 'source'), got {len(record)}",
                    line=line_no,
                )
            name, stem, weight, flag, source = (field.strip() for field in record)
            try:
                stem_val, weight_val = int(stem), int(weight)
            except ValueError:
                raise ParseError(f"stem and weight must be integers, got {stem!r}, {weight!r}", line=line_no) from None
            if flag not in ("0", "1"):
                raise ParseError(f"eps_nonzero must be 0 or 1, got {flag!r}", line=line_no)
            rows.append(GroupTableRow(name, stem_val, weight_val, flag == "1", source))
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
        if not isinstance(doc, list):
            raise ParseError("expected a JSON array of row objects")
        for idx, entry in enumerate(doc):
            if not isinstance(entry, dict):
                raise ParseError(f"row {idx} is not an object")
            fields = ("name", "stem", "weight", "eps_nonzero", "source")
            missing = [key for key in fields if key not in entry]
            if missing:
                raise ParseError(f"row {idx} missing field {missing[0]!r}")
            name, stem, weight, flag, source = (entry[key] for key in fields)
            if not isinstance(name, str) or not isinstance(source, str):
                raise ParseError(f"row {idx}: name and source must be strings, got {name!r}, {source!r}")
            if type(stem) is not int or type(weight) is not int:
                raise ParseError(f"row {idx}: stem and weight must be integers, got {stem!r}, {weight!r}")
            if type(flag) not in (int, bool) or flag not in (0, 1):
                raise ParseError(f"row {idx}: eps_nonzero must be 0, 1, false or true, got {flag!r}")
            rows.append(GroupTableRow(name, stem, weight, bool(flag), source))
    seen = set()
    for row in rows:
        key = (row.stem, row.weight, row.name)
        if key in seen:
            raise DuplicateKeyError(f"duplicate row key (stem={row.stem}, weight={row.weight}, name={row.name!r})")
        seen.add(key)
    return rows


def _csv_table(rng: random.Random) -> str:
    bad = rng.random() < 0.5  # half the tables hold malformed rows
    names = ["a", "b", "x,y", ' q"uote', "r\ns"] if rng.random() < 0.5 else None  # a quoted newline too
    lines = []
    for i in range(rng.randint(0, 25)):
        name = rng.choice(names) if names else f"r{i}"
        fields = [name, str(rng.randint(-2, 2)), str(rng.randint(-2, 2)), rng.choice("01"), rng.choice(["s", "a,b", ""])]
        if rng.random() < 0.3:
            fields = [f" {field} " if rng.random() < 0.5 else field for field in fields]
        if bad and rng.random() < 0.1:
            slot, value = rng.choice([(1, "x"), (2, "1.7"), (2, ""), (3, "2"), (3, "yes"), (3, " "), (1, "0x1")])
            fields[slot] = value
        if bad and rng.random() < 0.05:
            fields = fields[: rng.randint(1, 4)] if rng.random() < 0.5 else fields + ["extra"]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(fields)  # "\n" in a field is quoted, as it is in lineterminator
        lines.append(out.getvalue()[:-1])
        if rng.random() < 0.1:
            lines.append("")
    if bad and lines and rng.random() < 0.3:  # a duplicate, then a malformed row after it
        lines += [lines[rng.randrange(len(lines))], "late,1,1.7,0,s"]
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def _json_table(rng: random.Random) -> str:
    bad = rng.random() < 0.5
    if bad and rng.random() < 0.05:
        return rng.choice(['{"name": "a"}', "[1", "", "null", '[{"name": "a",}]'])
    names = ["a", "b", "c"] if rng.random() < 0.5 else None
    doc = []
    for i in range(rng.randint(0, 25)):
        entry = {
            "name": rng.choice(names) if names else f"r{i}",
            "stem": rng.randint(-2, 2),
            "weight": rng.randint(-2, 2),
            "eps_nonzero": rng.choice([0, 1, False, True]),
            "source": "s",
        }
        if bad and rng.random() < 0.1:
            key, value = rng.choice([("stem", True), ("weight", 1.7), ("weight", "1"), ("eps_nonzero", 2),
                                     ("eps_nonzero", "1"), ("eps_nonzero", 1.0), ("name", None), ("source", 3)])
            entry[key] = value
        if bad and rng.random() < 0.03:
            del entry[rng.choice(list(entry))]
        doc.append(entry if not (bad and rng.random() < 0.02) else [entry])
    if bad and doc and rng.random() < 0.3:  # a duplicate, then a malformed row after it
        doc += [doc[rng.randrange(len(doc))], {"name": "late"}]
    return json.dumps(doc)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MotsignError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _scan_by_rows(parse, text, fmt):
    rows = parse(text, fmt)
    return len(rows), check_conjecture(rows)


def test_scan_table_matches_two_pass_parse():
    rng = random.Random(1717)
    kinds = {"ok": 0, "ParseError": 0, "DuplicateKeyError": 0, "duplicate then malformed": 0}
    for _ in range(1000):
        for fmt, text in (("csv", _csv_table(rng)), ("json", _json_table(rng))):
            reference = _outcome(_scan_by_rows, _reference_parse, text, fmt)
            assert _outcome(scan_table, text, fmt) == _outcome(_scan_by_rows, parse_table, text, fmt) == reference, (
                fmt, text)
            if isinstance(reference[0], type):
                kinds[reference[0].__name__] += 1
            else:
                kinds["ok"] += 1
                assert parse_table(text, fmt) == _reference_parse(text, fmt)
            kinds["duplicate then malformed"] += "late" in text
    assert min(kinds.values()) >= 200, kinds


def test_duplicate_key_yields_to_a_later_malformed_row():
    for text, fmt in (
        ("a,1,1,0,s\na,1,1,1,t\nb,1,1.7,0,s\n", "csv"),
        (json.dumps([{"name": "a", "stem": 1, "weight": 1, "eps_nonzero": 0, "source": "s"}] * 2 + [{}]), "json"),
    ):
        for fn in (parse_table, scan_table):
            with pytest.raises(ParseError) as info:
                fn(text, fmt)
            assert info.value.line == (3 if fmt == "csv" else None)
    with pytest.raises(DuplicateKeyError, match=r"stem=1, weight=1, name='a'"):
        scan_table("a,1,1,0,s\nb,2,2,0,s\na,1,1,1,t\nb,2,2,0,s\n", "csv")


def test_scan_table_builds_a_row_only_per_violation(monkeypatch):
    built = []

    class CountingRow(GroupTableRow):
        def __init__(self, *fields):
            built.append(fields)
            super().__init__(*fields)

    monkeypatch.setattr(scan, "GroupTableRow", CountingRow)
    text = "".join(f"r{i},{i % 9},{i % 5},{int(i % 3 == 0)},s\n" for i in range(300))
    rows, violations = scan_table(text, "csv")
    assert rows == 300 and len(violations) == 40
    assert len(built) == len(violations)
    assert [(v.stem, v.weight, v.name) for v in violations] == sorted((v.stem, v.weight, v.name) for v in violations)
    built.clear()
    assert len(parse_table(text, "csv")) == len(built) == 300
