"""Scanner for the weight-parity pattern in tabulated bigraded homotopy
group data.

Each row records, for a named element of some (stem, weight), whether
multiplication by 1 - eps is nonzero there; that flag is ingested, never
computed, since deciding it needs chart data this tool does not own.  The
scanner lists the rows where the flag is set and the weight is odd.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Iterator

from .errors import DuplicateKeyError, ParseError

__all__ = [
    "GroupTableRow",
    "parse_table",
    "scan_table",
    "render_table",
    "check_conjecture",
    "load_sample_table",
]

_CSV_COLUMNS = ("name", "stem", "weight", "eps_nonzero", "source")


@dataclass(frozen=True)
class GroupTableRow:
    name: str
    stem: int
    weight: int
    eps_nonzero: bool
    source: str


def _records(text: str, format: str) -> Iterator[tuple[str, int, int, bool, str]]:
    """Validated (name, stem, weight, eps_nonzero, source) tuples of a CSV
    table or a JSON array of row objects, in table order.  The first
    repeated (stem, weight, name) key is raised only once the whole table
    has parsed, so a malformed row anywhere in the table wins over it."""
    if format == "csv":
        entries = enumerate(reader := csv.reader(io.StringIO(text)), start=1)
    elif format == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
        except RecursionError:
            raise ParseError("JSON nests too deeply") from None
        if not isinstance(doc, list):
            raise ParseError("expected a JSON array of row objects")
        entries = enumerate(doc)
    else:
        raise ParseError(f"unknown table format: {format!r}")
    is_csv = format == "csv"
    seen: set[tuple[int, int, str]] = set()
    repeated = None
    try:
        for idx, entry in entries:
            if is_csv:  # idx counts records; an error names the record's first line
                if not entry:
                    continue
                if len(entry) != len(_CSV_COLUMNS):
                    raise ParseError(
                        f"expected {len(_CSV_COLUMNS)} columns {_CSV_COLUMNS}, got {len(entry)}",
                        line=_first_line(reader, entry),
                    )
                name, stem_text, weight_text, flag, source = map(str.strip, entry)
                try:
                    stem, weight = int(stem_text), int(weight_text)
                except ValueError:
                    raise ParseError(
                        f"stem and weight must be integers, got {stem_text!r}, {weight_text!r}",
                        line=_first_line(reader, entry),
                    ) from None
                if flag not in ("0", "1"):
                    raise ParseError(f"eps_nonzero must be 0 or 1, got {flag!r}", line=_first_line(reader, entry))
                eps_nonzero = flag == "1"
            else:
                if not isinstance(entry, dict):
                    raise ParseError(f"row {idx} is not an object")
                try:
                    name, stem, weight, flag, source = (entry[field] for field in _CSV_COLUMNS)
                except KeyError as missing:
                    raise ParseError(f"row {idx} missing field {missing}") from None
                # the CSV rules: bool is an int subclass, so true/false pass the
                # eps_nonzero test and fail the stem/weight one
                if not isinstance(name, str) or not isinstance(source, str):
                    raise ParseError(f"row {idx}: name and source must be strings, got {name!r}, {source!r}")
                if type(stem) is not int or type(weight) is not int:
                    raise ParseError(f"row {idx}: stem and weight must be integers, got {stem!r}, {weight!r}")
                if not isinstance(flag, int) or flag not in (0, 1):
                    raise ParseError(f"row {idx}: eps_nonzero must be 0, 1, false or true, got {flag!r}")
                eps_nonzero = bool(flag)
            key = (stem, weight, name)
            if key in seen:
                repeated = repeated or key
            seen.add(key)
            yield name, stem, weight, eps_nonzero, source
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    if repeated:
        stem, weight, name = repeated
        raise DuplicateKeyError(f"duplicate row key (stem={stem}, weight={weight}, name={name!r})")


def _first_line(reader, record: list[str]) -> int:
    """The file line a CSV record starts on: the reader has read through
    its last line, and each newline inside a quoted field is one line more."""
    return reader.line_num - sum(field.count("\n") for field in record)


def parse_table(text: str, format: str = "csv") -> list[GroupTableRow]:
    """Parse CSV (columns name, stem, weight, eps_nonzero, source) or a
    JSON array of row objects; rejects malformed and duplicate rows."""
    return [GroupTableRow(*record) for record in _records(text, format)]


def scan_table(text: str, format: str = "csv") -> tuple[int, list[GroupTableRow]]:
    """The row count and check_conjecture of a table, as parse_table would
    give them, with a GroupTableRow built only for each violating row."""
    count = 0
    violations = []
    for count, record in enumerate(_records(text, format), start=1):
        if record[3] and record[2] % 2:
            violations.append(GroupTableRow(*record))
    return count, check_conjecture(violations)


def render_table(rows: list[GroupTableRow], format: str = "csv") -> str:
    """Deterministic rendering; parse_table(render_table(rows)) == rows."""
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in rows:
            writer.writerow([row.name, row.stem, row.weight, int(row.eps_nonzero), row.source])
        return buffer.getvalue()
    if format == "json":
        return json.dumps([asdict(row) for row in rows], indent=2, sort_keys=True) + "\n"
    raise ParseError(f"unknown table format: {format!r}")


def check_conjecture(rows: list[GroupTableRow]) -> list[GroupTableRow]:
    """Rows with eps_nonzero set in odd weight, sorted by stem, weight,
    name; an empty list means the pattern holds on this table."""
    violations = [row for row in rows if row.eps_nonzero and row.weight % 2 != 0]
    violations.sort(key=lambda row: (row.stem, row.weight, row.name))
    return violations


def load_sample_table() -> list[GroupTableRow]:
    """The small bundled real-motivic sample table."""
    text = resources.files("motsign.data").joinpath("sample_r_motivic.csv").read_text()
    return parse_table(text, "csv")
