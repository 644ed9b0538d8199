"""Command-line front end.

Each command computes one JSON-ready record; `--json` prints the record
and the plain text is rendered from it, so the two cannot disagree.
The parser needs `realize` (for the model names); the commands that use
`algebra`, `catalog` or `scan` import them, so a command loads only the
modules its record needs.

Exit codes: 0 success, 1 usage error, 2 input error, 3 scan violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from . import realize
from .cocycles import (
    check_cocycle_identity,
    cochain_to_json,
    cocycle_from_json,
    cocycle_to_json,
    count_classes,
    is_coboundary,
    unit_twist,
    UnitSubgroup,
)
from .conventions import (
    PRESET_NAMES,
    Convention,
    convention,
    convention_from_json,
    commutation_unit,
    mode_to_json,
    twist_ratio,
)
from .errors import MotsignError, ParseError
from .units import CoefMode, parse_bidegree, parse_unit

if TYPE_CHECKING:
    from .algebra import Presentation

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # input errors and uses 1 for usage
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_MODE = (
    # None marks an absent flag, so that a convention file's own mode is
    # replaced only when --mode or --modulus is given
    ("--mode", dict(choices=("generic", "+1", "-1"),
                    help="image of eps in the coefficients (default generic)")),
    ("--modulus", dict(type=int, help="coefficient modulus, 0 = none")),
)
_FROM_TO = (("--from", dict(dest="conv_from", required=True)), ("--to", dict(dest="conv_to", required=True)))


def _leaf(sub, name: str, help: str, *args: tuple[str, dict], source: str | None = None) -> None:
    """Add one subcommand: the required --u/--file group when `source`
    gives the --u help, then `args` as (flag, options) in usage order,
    then --json."""
    parser = sub.add_parser(name, help=help)
    if source is not None:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--u", help=source)
        group.add_argument("--file", help="JSON cocycle file")
    for flag, options in args:
        parser.add_argument(flag, **options)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="motsign",
        description="Exact arithmetic for multiplications and sign conventions on bigraded homotopy rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _leaf(sub, "commute", "commutation unit for a pair of bidegrees",
          ("--convention", dict(default="reference", help="preset name, u=..., or a JSON file")), *_MODE,
          ("--deg-a", dict(required=True, help="first bidegree, as p,q")),
          ("--deg-b", dict(required=True, help="second bidegree, as p,q")))

    cocycle = sub.add_parser("cocycle", help="cocycle identity, coboundary class, twist ratio")
    action = cocycle.add_subparsers(dest="action", required=True)
    _leaf(action, "check", "test the cocycle identity on a grid",
          ("--grid", dict(type=int, default=4, help="check on [-N, N] (default 4)")),
          source="unit twist to check (1, -1, eps, -eps)")
    _leaf(action, "class", "decide coboundary-ness, with witness", source="unit twist to classify")
    _leaf(action, "ratio", "twist ratio of two conventions", *_FROM_TO, *_MODE)

    _leaf(sub, "classes", "count coboundary classes over a unit subgroup",
          ("--units", dict(required=True, help="trivial, minus-one, eps, minus-eps, or full")))
    _leaf(sub, "eval", "normal form of an expression", ("--convention", dict(default="reference")), *_MODE,
          ("--pres", dict(default="catalog", help="presentation JSON file, catalog, or catalog-tau")),
          ("expr", dict(help="expression over generators, eps, integers, *, +, -")))
    _leaf(sub, "transport", "compare an expression under two conventions",
          ("--pres", dict(default="catalog")), *_FROM_TO, *_MODE, ("expr", {}))
    _leaf(sub, "realize", "ring-homomorphism decisions for realization models",
          ("--model", dict(required=True, choices=realize.MODEL_NAMES)),
          ("--convention", dict(help="restrict to one convention; default all four presets")),
          ("--grid", dict(type=int, default=4)))
    _leaf(sub, "sensitivity", "convention sensitivity of the catalog pairs",
          ("--with-tau", dict(action="store_true", help="include tau and tau0")))
    _leaf(sub, "scan", "scan a group table for odd-weight eps-nonzero rows",
          ("--table", dict(required=True, help="CSV/JSON file, or 'sample' for the bundled table")),
          ("--format", dict(default="auto", choices=("auto", "csv", "json"))))
    return parser


def _mode(args: argparse.Namespace) -> CoefMode | None:
    """The flags' whole mode, an absent flag read as generic or 0; None
    when neither --mode nor --modulus is given."""
    if args.mode is None and args.modulus is None:
        return None
    return CoefMode(args.mode or "generic", args.modulus or 0)


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise ParseError("JSON nests too deeply") from None


def _resolve_convention(token: str, mode: CoefMode | None) -> Convention:
    # presets and aliases win, so a file named like a preset never shadows it
    try:
        return convention(token, mode or CoefMode())
    except ParseError:
        if not (os.path.exists(token) or token.endswith(".json")):
            raise
    conv = convention_from_json(_read_json(token))
    if mode is not None and conv.mode != mode:
        conv = Convention(conv.name, conv.twist, mode)
    return conv


def _resolve_presentation(token: str) -> Presentation:
    from . import catalog
    from .algebra import presentation_from_json

    if token == "catalog":
        return catalog.universal_presentation(include_tau=False)
    if token in ("catalog-tau", "catalog+tau"):
        return catalog.universal_presentation(include_tau=True)
    return presentation_from_json(_read_json(token))


def _cocycle_from_args(args: argparse.Namespace):
    if args.u is not None:
        return unit_twist(parse_unit(args.u))
    return cocycle_from_json(_read_json(args.file))


def _grid(args: argparse.Namespace) -> range:
    # the decisions are exact over parity classes, so [-N, N] must hold
    # an odd and an even entry; [0, 0] would decide the even class only
    if args.grid < 1:
        raise MotsignError(f"--grid must be at least 1, got {args.grid}: [-N, N] needs both parities")
    return range(-args.grid, args.grid + 1)


# ---------- one record per command ----------


def _cmd_commute(args: argparse.Namespace) -> dict:
    conv = _resolve_convention(args.convention, _mode(args))
    deg_a = parse_bidegree(args.deg_a)
    deg_b = parse_bidegree(args.deg_b)
    return {
        "command": "commute",
        "convention": conv.name,
        "mode": mode_to_json(conv.mode),
        "deg_a": [deg_a.p, deg_a.q],
        "deg_b": [deg_b.p, deg_b.q],
        "unit": str(commutation_unit(conv, deg_a, deg_b)),
    }


def _cmd_cocycle_check(args: argparse.Namespace) -> dict:
    alpha = _cocycle_from_args(args)
    result = check_cocycle_identity(alpha, _grid(args))
    return {
        "command": "cocycle-check",
        "cocycle": cocycle_to_json(alpha),
        "holds": result.holds,
        "witness": None if result.holds else {k: [x.p, x.q] for k, x in zip("uvw", result.witness)},
        "grid": args.grid,
    }


def _cmd_cocycle_class(args: argparse.Namespace) -> dict:
    alpha = _cocycle_from_args(args)
    decision = is_coboundary(alpha)
    return {
        "command": "cocycle-class",
        "cocycle": cocycle_to_json(alpha),
        "is_coboundary": decision.is_coboundary,
        "witness": cochain_to_json(decision.witness) if decision.is_coboundary else None,
    }


def _cmd_cocycle_ratio(args: argparse.Namespace) -> dict:
    mode = _mode(args)
    conv_from = _resolve_convention(args.conv_from, mode)
    conv_to = _resolve_convention(args.conv_to, mode)
    ratio = twist_ratio(conv_from, conv_to)
    return {
        "command": "cocycle-ratio",
        "from": conv_from.name,
        "to": conv_to.name,
        "ratio": cocycle_to_json(ratio.cocycle),
        "is_coboundary": ratio.is_coboundary,
        "witness": cochain_to_json(ratio.witness) if ratio.witness else None,
    }


def _cmd_classes(args: argparse.Namespace) -> dict:
    sub = UnitSubgroup.from_string(args.units)
    return {"command": "classes", "units": sub.value, "count": count_classes(sub)}


def _cmd_eval(args: argparse.Namespace) -> dict:
    from .algebra import eval_expr

    conv = _resolve_convention(args.convention, _mode(args))
    pres = _resolve_presentation(args.pres)
    element = eval_expr(args.expr, conv, pres)
    return {
        "command": "eval",
        "convention": conv.name,
        "mode": mode_to_json(conv.mode),
        "expr": args.expr,
        "normal_form": element.render(pres),
        "degree": None if element.degree is None else [element.degree.p, element.degree.q],
    }


def _cmd_transport(args: argparse.Namespace) -> dict:
    from .algebra import transport_check

    mode = _mode(args)
    conv_from = _resolve_convention(args.conv_from, mode)
    conv_to = _resolve_convention(args.conv_to, mode)
    pres = _resolve_presentation(args.pres)
    report = transport_check(args.expr, conv_from, conv_to, pres)
    return {
        "command": "transport",
        "expr": args.expr,
        "from": conv_from.name,
        "to": conv_to.name,
        "agree": report.agree,
        "result_from": report.result_from.render(pres),
        "result_to": report.result_to.render(pres),
        "discrepancy": None if report.discrepancy is None else str(report.discrepancy),
    }


def _cmd_realize(args: argparse.Namespace) -> dict:
    model = realize.builtin_model(args.model)
    if args.convention is None:
        convs = [convention(name) for name in PRESET_NAMES]
    else:
        convs = [_resolve_convention(args.convention, None)]
    grid = _grid(args)
    rows = []
    for conv in convs:
        decision = realize.is_ring_hom(conv, model, grid)
        witness = None if decision.is_hom else {k: [x.p, x.q] for k, x in zip("ab", decision.witness)}
        rows.append({"convention": conv.name, "model": model.name, "ring_hom": decision.is_hom, "witness": witness})
    return {"command": "realize", "grid": args.grid, "rows": rows}


def _cmd_sensitivity(args: argparse.Namespace) -> dict:
    from . import catalog

    rows = catalog.sensitivity_table(catalog.universal_presentation(include_tau=args.with_tau))
    pairs = [{**asdict(row), "factor": str(row.factor)} for row in rows]
    return {"command": "sensitivity", "with_tau": args.with_tau, "pairs": pairs}


def _cmd_scan(args: argparse.Namespace) -> dict:
    from . import scan

    if args.table == "sample":
        rows = scan.load_sample_table()
        count, violations = len(rows), scan.check_conjecture(rows)
    else:
        fmt = args.format
        if fmt == "auto":
            fmt = "json" if args.table.endswith(".json") else "csv"
        with open(args.table, encoding="utf-8") as handle:
            count, violations = scan.scan_table(handle.read(), fmt)
    return {"command": "scan", "rows": count, "violations": [asdict(row) for row in violations]}


# ---------- the text, rendered from the record alone ----------


def _pieces(doc: dict) -> str:
    # key=value in record order; a bidegree [p, q] shows as (p,q)
    return " ".join(f"{k}=({v[0]},{v[1]})" if isinstance(v, list) else f"{k}={v}" for k, v in doc.items())


def _text_realize(record: dict) -> str:
    def decision(row: dict) -> str:
        return "RING_HOM" if row["ring_hom"] else f"NOT_RING_HOM witness {_pieces(row['witness'])}"

    rows = record["rows"]
    if len(rows) == 1:  # one --convention: the bare decision
        return decision(rows[0])
    return "\n".join(f"{row['convention']:<14} {row['model']:<16} {decision(row)}" for row in rows)


def _text_transport(record: dict) -> str:
    if record["agree"]:
        return f"AGREE {record['result_from']}"
    disc = record["discrepancy"] or "none"
    return f"DISAGREE from={record['result_from']} to={record['result_to']} discrepancy={disc}"


def _text_sensitivity(record: dict) -> str:
    return "\n".join(
        f"{pair['x']:<10} {pair['y']:<10} factor={pair['factor']:<4} "
        + ("trivial" if pair["trivial"] else "rescued" if pair["rescued"] else "unrescued")
        for pair in record["pairs"]
    )


def _text_scan(record: dict) -> str:
    lines = [
        f"VIOLATION name={row['name']} stem={row['stem']} weight={row['weight']} source={row['source']}"
        for row in record["violations"]
    ]
    if not lines:
        return f"OK rows: {record['rows']} no violations"
    return "\n".join(lines + [f"violations: {len(lines)} rows: {record['rows']}"])


# command name -> (record builder, text renderer)
_COMMANDS = {
    "commute": (_cmd_commute, lambda r: r["unit"]),
    "cocycle-check": (
        _cmd_cocycle_check,
        lambda r: "COCYCLE" if r["holds"] else f"NOT_COCYCLE witness {_pieces(r['witness'])}",
    ),
    "cocycle-class": (
        _cmd_cocycle_class,
        lambda r: f"COBOUNDARY witness {_pieces(r['witness'])}" if r["is_coboundary"] else "NOT_COBOUNDARY",
    ),
    "cocycle-ratio": (
        _cmd_cocycle_ratio,
        lambda r: f"{_pieces(r['ratio'])} {'COBOUNDARY' if r['is_coboundary'] else 'NOT_COBOUNDARY'}",
    ),
    "classes": (_cmd_classes, lambda r: str(r["count"])),
    "eval": (_cmd_eval, lambda r: r["normal_form"]),
    "transport": (_cmd_transport, _text_transport),
    "realize": (_cmd_realize, _text_realize),
    "sensitivity": (_cmd_sensitivity, _text_sensitivity),
    "scan": (_cmd_scan, _text_scan),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    name = f"cocycle-{args.action}" if args.command == "cocycle" else args.command
    build, render = _COMMANDS[name]
    try:
        record = build(args)
        print(json.dumps(record, indent=2, sort_keys=True) if args.json else render(record))
    except (MotsignError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 3 if name == "scan" and record["violations"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
