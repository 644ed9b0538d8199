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

from .errors import DuplicateKeyError, ParseError

__all__ = [
    "GroupTableRow",
    "parse_table",
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


def _check_duplicates(rows: list[GroupTableRow]) -> None:
    seen: set[tuple[int, int, str]] = set()
    for row in rows:
        key = (row.stem, row.weight, row.name)
        if key in seen:
            raise DuplicateKeyError(
                f"duplicate row key (stem={row.stem}, weight={row.weight}, name={row.name!r})"
            )
        seen.add(key)


def _parse_csv(text: str) -> list[GroupTableRow]:
    rows = []
    reader = csv.reader(io.StringIO(text))
    for line_no, record in enumerate(reader, start=1):
        if not record:
            continue
        if len(record) != len(_CSV_COLUMNS):
            raise ParseError(
                f"expected {len(_CSV_COLUMNS)} columns {_CSV_COLUMNS}, got {len(record)}",
                line=line_no,
            )
        name, stem, weight, eps_nonzero, source = (field.strip() for field in record)
        try:
            stem_val = int(stem)
            weight_val = int(weight)
        except ValueError:
            raise ParseError(f"stem and weight must be integers, got {stem!r}, {weight!r}", line=line_no) from None
        if eps_nonzero not in ("0", "1"):
            raise ParseError(f"eps_nonzero must be 0 or 1, got {eps_nonzero!r}", line=line_no)
        rows.append(GroupTableRow(name, stem_val, weight_val, eps_nonzero == "1", source))
    return rows


def _parse_json(text: str) -> list[GroupTableRow]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, list):
        raise ParseError("expected a JSON array of row objects")
    rows = []
    for idx, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ParseError(f"row {idx} is not an object")
        try:
            name, stem, weight, eps_nonzero, source = (entry[key] for key in _CSV_COLUMNS)
        except KeyError as missing:
            raise ParseError(f"row {idx} missing field {missing}") from None
        # the CSV rules: bool is an int subclass, so true/false pass the
        # eps_nonzero test and fail the stem/weight one
        if not isinstance(name, str) or not isinstance(source, str):
            raise ParseError(f"row {idx}: name and source must be strings, got {name!r}, {source!r}")
        if type(stem) is not int or type(weight) is not int:
            raise ParseError(f"row {idx}: stem and weight must be integers, got {stem!r}, {weight!r}")
        if not isinstance(eps_nonzero, int) or eps_nonzero not in (0, 1):
            raise ParseError(f"row {idx}: eps_nonzero must be 0, 1, false or true, got {eps_nonzero!r}")
        rows.append(GroupTableRow(name, stem, weight, bool(eps_nonzero), source))
    return rows


def parse_table(text: str, format: str = "csv") -> list[GroupTableRow]:
    """Parse CSV (columns name, stem, weight, eps_nonzero, source) or a
    JSON array of row objects; rejects malformed and duplicate rows."""
    if format == "csv":
        rows = _parse_csv(text)
    elif format == "json":
        rows = _parse_json(text)
    else:
        raise ParseError(f"unknown table format: {format!r}")
    _check_duplicates(rows)
    return rows


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
