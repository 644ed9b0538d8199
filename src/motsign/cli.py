"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input error, 3 scan violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import catalog, realize, scan
from .algebra import (
    Presentation,
    eval_expr,
    presentation_from_json,
    transport_check,
)
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
    Convention,
    convention,
    convention_from_json,
    commutation_unit,
    mode_to_json,
    twist_ratio,
)
from .errors import MotsignError, ParseError
from .units import CoefMode, parse_bidegree, parse_unit

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # input errors and uses 1 for usage
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of plain text")


def _add_mode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        default="generic",
        choices=("generic", "+1", "-1"),
        help="image of eps in the coefficients (default generic)",
    )
    parser.add_argument("--modulus", type=int, default=0, help="coefficient modulus, 0 = none")


def _mode_from_args(args: argparse.Namespace) -> CoefMode:
    return CoefMode(args.mode, args.modulus)


def _resolve_convention(token: str, mode: CoefMode) -> Convention:
    # presets and aliases win, so a file named like a preset never shadows it
    try:
        return convention(token, mode)
    except ParseError:
        if not (os.path.exists(token) or token.endswith(".json")):
            raise
    with open(token, encoding="utf-8") as handle:
        doc = json.load(handle)
    conv = convention_from_json(doc)
    if conv.mode != mode and (mode.eps != "generic" or mode.modulus):
        conv = Convention(conv.name, conv.twist, mode)
    return conv


def _resolve_presentation(token: str) -> Presentation:
    if token == "catalog":
        return catalog.universal_presentation(include_tau=False)
    if token in ("catalog-tau", "catalog+tau"):
        return catalog.universal_presentation(include_tau=True)
    with open(token, encoding="utf-8") as handle:
        return presentation_from_json(json.load(handle))


def _emit(args: argparse.Namespace, text: str, doc: dict) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def _grid(args: argparse.Namespace) -> range:
    return range(-args.grid, args.grid + 1)


def _pair_str(pair) -> str:
    a, b = pair
    return f"a={a} b={b}"


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="motsign",
        description="Exact arithmetic for multiplications and sign conventions on bigraded homotopy rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commute", help="commutation unit for a pair of bidegrees")
    p.add_argument("--convention", default="reference", help="preset name, u=..., or a JSON file")
    _add_mode_flags(p)
    p.add_argument("--deg-a", required=True, help="first bidegree, as p,q")
    p.add_argument("--deg-b", required=True, help="second bidegree, as p,q")
    _add_json_flag(p)

    p = sub.add_parser("cocycle", help="cocycle identity, coboundary class, twist ratio")
    action = p.add_subparsers(dest="action", required=True)

    q = action.add_parser("check", help="test the cocycle identity on a grid")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--u", help="unit twist to check (1, -1, eps, -eps)")
    source.add_argument("--file", help="JSON cocycle file")
    q.add_argument("--grid", type=int, default=4, help="check on [-N, N] (default 4)")
    _add_json_flag(q)

    q = action.add_parser("class", help="decide coboundary-ness, with witness")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--u", help="unit twist to classify")
    source.add_argument("--file", help="JSON cocycle file")
    _add_json_flag(q)

    q = action.add_parser("ratio", help="twist ratio of two conventions")
    q.add_argument("--from", dest="conv_from", required=True)
    q.add_argument("--to", dest="conv_to", required=True)
    _add_mode_flags(q)
    _add_json_flag(q)

    p = sub.add_parser("classes", help="count coboundary classes over a unit subgroup")
    p.add_argument(
        "--units",
        required=True,
        help="trivial, minus-one, eps, minus-eps, or full",
    )
    _add_json_flag(p)

    p = sub.add_parser("eval", help="normal form of an expression")
    p.add_argument("--convention", default="reference")
    _add_mode_flags(p)
    p.add_argument("--pres", default="catalog", help="presentation JSON file, catalog, or catalog-tau")
    p.add_argument("expr", help="expression over generators, eps, integers, *, +, -")
    _add_json_flag(p)

    p = sub.add_parser("transport", help="compare an expression under two conventions")
    p.add_argument("--pres", default="catalog")
    p.add_argument("--from", dest="conv_from", required=True)
    p.add_argument("--to", dest="conv_to", required=True)
    _add_mode_flags(p)
    p.add_argument("expr")
    _add_json_flag(p)

    p = sub.add_parser("realize", help="ring-homomorphism decisions for realization models")
    p.add_argument("--model", required=True, choices=realize.MODEL_NAMES)
    p.add_argument("--convention", help="restrict to one convention; default all four presets")
    p.add_argument("--grid", type=int, default=4)
    _add_json_flag(p)

    p = sub.add_parser("sensitivity", help="convention sensitivity of the catalog pairs")
    p.add_argument("--with-tau", action="store_true", help="include tau and tau0")
    _add_json_flag(p)

    p = sub.add_parser("scan", help="scan a group table for odd-weight eps-nonzero rows")
    p.add_argument("--table", required=True, help="CSV/JSON file, or 'sample' for the bundled table")
    p.add_argument("--format", default="auto", choices=("auto", "csv", "json"))
    _add_json_flag(p)

    return parser


def _cmd_commute(args: argparse.Namespace) -> int:
    mode = _mode_from_args(args)
    conv = _resolve_convention(args.convention, mode)
    deg_a = parse_bidegree(args.deg_a)
    deg_b = parse_bidegree(args.deg_b)
    unit = commutation_unit(conv, deg_a, deg_b)
    doc = {
        "command": "commute",
        "convention": conv.name,
        "mode": mode_to_json(conv.mode),
        "deg_a": [deg_a.p, deg_a.q],
        "deg_b": [deg_b.p, deg_b.q],
        "unit": str(unit),
    }
    _emit(args, str(unit), doc)
    return 0


def _cocycle_from_args(args: argparse.Namespace):
    if args.u is not None:
        return unit_twist(parse_unit(args.u))
    with open(args.file, encoding="utf-8") as handle:
        return cocycle_from_json(json.load(handle))


def _cmd_cocycle_check(args: argparse.Namespace) -> int:
    alpha = _cocycle_from_args(args)
    result = check_cocycle_identity(alpha, _grid(args))
    if result.holds:
        text = "COCYCLE"
        witness = None
    else:
        u, v, w = result.witness
        text = f"NOT_COCYCLE witness u={u} v={v} w={w}"
        witness = {"u": [u.p, u.q], "v": [v.p, v.q], "w": [w.p, w.q]}
    doc = {
        "command": "cocycle-check",
        "cocycle": cocycle_to_json(alpha),
        "holds": result.holds,
        "witness": witness,
        "grid": args.grid,
    }
    _emit(args, text, doc)
    return 0


def _cmd_cocycle_class(args: argparse.Namespace) -> int:
    alpha = _cocycle_from_args(args)
    decision = is_coboundary(alpha)
    if decision.is_coboundary:
        pieces = " ".join(f"{k}={v}" for k, v in cochain_to_json(decision.witness).items())
        text = f"COBOUNDARY witness {pieces}"
        witness = cochain_to_json(decision.witness)
    else:
        text = "NOT_COBOUNDARY"
        witness = None
    doc = {
        "command": "cocycle-class",
        "cocycle": cocycle_to_json(alpha),
        "is_coboundary": decision.is_coboundary,
        "witness": witness,
    }
    _emit(args, text, doc)
    return 0


def _cmd_cocycle_ratio(args: argparse.Namespace) -> int:
    mode = _mode_from_args(args)
    conv_from = _resolve_convention(args.conv_from, mode)
    conv_to = _resolve_convention(args.conv_to, mode)
    ratio = twist_ratio(conv_from, conv_to)
    fields = " ".join(f"{k}={v}" for k, v in cocycle_to_json(ratio.cocycle).items())
    flag = "COBOUNDARY" if ratio.is_coboundary else "NOT_COBOUNDARY"
    doc = {
        "command": "cocycle-ratio",
        "from": conv_from.name,
        "to": conv_to.name,
        "ratio": cocycle_to_json(ratio.cocycle),
        "is_coboundary": ratio.is_coboundary,
        "witness": cochain_to_json(ratio.witness) if ratio.witness else None,
    }
    _emit(args, f"{fields} {flag}", doc)
    return 0


def _cmd_classes(args: argparse.Namespace) -> int:
    sub = UnitSubgroup.from_string(args.units)
    count = count_classes(sub)
    doc = {"command": "classes", "units": sub.value, "count": count}
    _emit(args, str(count), doc)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    mode = _mode_from_args(args)
    conv = _resolve_convention(args.convention, mode)
    pres = _resolve_presentation(args.pres)
    element = eval_expr(args.expr, conv, pres)
    rendered = element.render(pres)
    doc = {
        "command": "eval",
        "convention": conv.name,
        "mode": mode_to_json(conv.mode),
        "expr": args.expr,
        "normal_form": rendered,
        "degree": None if element.degree is None else [element.degree.p, element.degree.q],
    }
    _emit(args, rendered, doc)
    return 0


def _cmd_transport(args: argparse.Namespace) -> int:
    mode = _mode_from_args(args)
    conv_from = _resolve_convention(args.conv_from, mode)
    conv_to = _resolve_convention(args.conv_to, mode)
    pres = _resolve_presentation(args.pres)
    report = transport_check(args.expr, conv_from, conv_to, pres)
    rendered_from = report.result_from.render(pres)
    rendered_to = report.result_to.render(pres)
    if report.agree:
        text = f"AGREE {rendered_from}"
    else:
        disc = str(report.discrepancy) if report.discrepancy is not None else "none"
        text = f"DISAGREE from={rendered_from} to={rendered_to} discrepancy={disc}"
    doc = {
        "command": "transport",
        "expr": args.expr,
        "from": conv_from.name,
        "to": conv_to.name,
        "agree": report.agree,
        "result_from": rendered_from,
        "result_to": rendered_to,
        "discrepancy": None if report.discrepancy is None else str(report.discrepancy),
    }
    _emit(args, text, doc)
    return 0


def _realize_row(conv: Convention, model: realize.RealizationModel, grid) -> tuple[str, dict]:
    decision = realize.is_ring_hom(conv, model, grid)
    if decision.is_hom:
        return "RING_HOM", {"convention": conv.name, "model": model.name, "ring_hom": True, "witness": None}
    a, b = decision.witness
    return (
        f"NOT_RING_HOM witness {_pair_str(decision.witness)}",
        {
            "convention": conv.name,
            "model": model.name,
            "ring_hom": False,
            "witness": {"a": [a.p, a.q], "b": [b.p, b.q]},
        },
    )


def _cmd_realize(args: argparse.Namespace) -> int:
    model = realize.builtin_model(args.model)
    if args.convention is not None:
        text, row = _realize_row(_resolve_convention(args.convention, CoefMode()), model, _grid(args))
        rows = [row]
    else:
        lines, rows = [], []
        for name in ("reference", "minus-one", "epsilon", "minus-epsilon"):
            text, row = _realize_row(convention(name), model, _grid(args))
            lines.append(f"{name:<14} {model.name:<16} {text}")
            rows.append(row)
        text = "\n".join(lines)
    _emit(args, text, {"command": "realize", "grid": args.grid, "rows": rows})
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    pres = catalog.universal_presentation(include_tau=args.with_tau)
    rows = catalog.sensitivity_table(pres)
    lines = []
    docs = []
    for row in rows:
        status = "trivial" if row.trivial else ("rescued" if row.rescued else "unrescued")
        lines.append(f"{row.x:<10} {row.y:<10} factor={str(row.factor):<4} {status}")
        docs.append(
            {
                "x": row.x,
                "y": row.y,
                "factor": str(row.factor),
                "trivial": row.trivial,
                "rescued": row.rescued,
            }
        )
    doc = {"command": "sensitivity", "with_tau": args.with_tau, "pairs": docs}
    _emit(args, "\n".join(lines), doc)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.table == "sample":
        rows = scan.load_sample_table()
    else:
        fmt = args.format
        if fmt == "auto":
            fmt = "json" if args.table.endswith(".json") else "csv"
        with open(args.table, encoding="utf-8") as handle:
            rows = scan.parse_table(handle.read(), fmt)
    violations = scan.check_conjecture(rows)
    if violations:
        lines = [
            f"VIOLATION name={row.name} stem={row.stem} weight={row.weight} source={row.source}"
            for row in violations
        ]
        lines.append(f"violations: {len(violations)} rows: {len(rows)}")
        text = "\n".join(lines)
    else:
        text = f"OK rows: {len(rows)} no violations"
    doc = {
        "command": "scan",
        "rows": len(rows),
        "violations": [
            {
                "name": row.name,
                "stem": row.stem,
                "weight": row.weight,
                "eps_nonzero": row.eps_nonzero,
                "source": row.source,
            }
            for row in violations
        ],
    }
    _emit(args, text, doc)
    return 3 if violations else 0


_HANDLERS = {
    ("commute", None): _cmd_commute,
    ("cocycle", "check"): _cmd_cocycle_check,
    ("cocycle", "class"): _cmd_cocycle_class,
    ("cocycle", "ratio"): _cmd_cocycle_ratio,
    ("classes", None): _cmd_classes,
    ("eval", None): _cmd_eval,
    ("transport", None): _cmd_transport,
    ("realize", None): _cmd_realize,
    ("sensitivity", None): _cmd_sensitivity,
    ("scan", None): _cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[(args.command, getattr(args, "action", None))]
    try:
        return handler(args)
    except (MotsignError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
