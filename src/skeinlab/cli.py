"""Command line front end.

Subcommands: ``bracket`` and ``colored-bracket`` evaluate diagrams from
JSON files or built-in fixtures; ``wrt`` evaluates one surgery
presentation at one point; ``recoupling`` dumps closed-form tables;
``report`` tabulates the window quantities as CSV/markdown/JSON;
``verify-paper`` runs the whole check registry and gates on it.

Each subcommand registers only the options its handler reads, so a flag
another subcommand owns is a usage error (exit 2), never silently ignored.
So are a JSON path given with ``--fixture`` and an option of the other
``recoupling`` table.
Options shared by two or more subcommands are declared once, in
``_SHARED``.

Output is deliberately boring: fixed column orders, canonical
polynomial strings, no timestamps, so two runs with the same arguments
are byte-identical and golden files stay golden.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .algebra import CycloNum, EvalPoint, cyclo_to_complex
from .bracket import bracket, colored_bracket
from .diagrams import (
    SurgeryPresentation,
    attach_meridian,
    borromean_fixture,
    hopf_fixture,
    link_from_json,
    unknot_fixture,
)
from .errors import ColorRangeError, SkeinError
from .recoupling import hopf_eval, meridian_series
from .verify import build_report, run_checks
from .wrt import GAMMA_QUANTITIES, gamma_tabulate, wrt_invariant

REPORT_HEADER = "quantity,d,sign,value_re,value_im,prediction,mode,status"

_FIXTURES = {
    "borromean": borromean_fixture,
    "hopf": hopf_fixture,
    "unknot": unknot_fixture,
}


def _parse_window(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like 2..25")
    try:
        window = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if window[0] < 1 or window[1] < window[0]:
        raise argparse.ArgumentTypeError(f"bad window {text!r}")
    return window


def _parse_colors(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_link(args) -> tuple:
    """(FramedLink, colors-or-None) from --fixture or a JSON file path."""
    if args.fixture and args.path:
        raise ValueError("pass either a JSON path or --fixture, not both")
    if args.fixture:
        return _FIXTURES[args.fixture](), None
    if not args.path:
        raise ValueError("either a JSON path or --fixture is required")
    with open(args.path, "rb") as fh:
        return link_from_json(fh.read())


def _fmt_real(x) -> str:
    return f"{float(x):.12g}"


def _point(args):
    """The EvalPoint of --d and --sign, or None when --d is not given."""
    if args.d is None:
        if args.sign is not None:
            raise ValueError("--sign needs --d")
        return None
    return EvalPoint(args.d, -1 if args.sign == "-" else 1)


# -- subcommands ---------------------------------------------------------------


def cmd_bracket(args) -> int:
    link, _ = _load_link(args)
    print(bracket(link.diagram))
    return 0


def cmd_colored_bracket(args) -> int:
    link, file_colors = _load_link(args)
    colors = args.colors if args.colors is not None else file_colors
    if colors is None:
        raise ValueError("no colors: pass --colors or store them in the file")
    print(colored_bracket(link, colors, point=_point(args)))
    return 0


def _presentation(args) -> SurgeryPresentation:
    if args.color is not None and not args.fixture:
        raise ValueError("--color attaches a meridian to a --fixture, not to a file")
    link, _ = _load_link(args)
    if args.color is not None:
        return attach_meridian(link, 1 if args.fixture == "borromean" else 0, args.color)
    return SurgeryPresentation(link, tuple(range(link.n_components)), {})


def cmd_wrt(args) -> int:
    if args.d is None:
        raise ValueError("wrt needs --d")
    pres = _presentation(args)
    value = wrt_invariant(pres, _point(args), mode=args.mode,
                          precision=args.precision)
    if isinstance(value, CycloNum):
        print(value)
    else:
        print(f"{_fmt_real(value.real)} {_fmt_real(value.imag)}")
    return 0


def cmd_recoupling(args) -> int:
    lines = []
    if args.table == "hopf":
        if args.color is not None or args.window is not None:
            raise ValueError("--table hopf reads --max-color, not --color or --window")
        max_color = 3 if args.max_color is None else args.max_color
        if max_color < 0:
            raise ColorRangeError(f"--max-color must be nonnegative, got {max_color}")
        lines.append("i,a,value")
        for i in range(max_color + 1):
            for a in range(max_color + 1):
                lines.append(f'{i},{a},"{hopf_eval(i, a)}"')
    else:
        if args.max_color is not None:
            raise ValueError("--table series reads --color and --window, not --max-color")
        color = 1 if args.color is None else args.color
        lo, hi = args.window or (1, 10)
        lines.append("d,sign,value")
        for d in range(lo, hi + 1):
            for sign, tag in ((1, "+"), (-1, "-")):
                v = meridian_series(color, EvalPoint(d, sign))
                lines.append(f'{d},{tag},"{v}"')
    print("\n".join(lines))
    return 0


def _report_rows(window: tuple, precision: int) -> list:
    """One row per (quantity, d, sign): a POLE, a float ``f`` or an exact value."""
    rows = []
    for quantity in GAMMA_QUANTITIES:
        gamma = gamma_tabulate(quantity, window)
        lo, hi = gamma.window
        for d in range(lo, hi + 1):
            for idx, tag in ((0, "+"), (1, "-")):
                row = {
                    "quantity": quantity, "d": d, "sign": tag,
                    "value_re": "", "value_im": "",
                    "prediction": "", "mode": "exact", "status": "POLE",
                }
                rows.append(row)
                if d in gamma.exceptions:
                    continue
                value = gamma.values[d][idx]
                if quantity == "f":
                    pred = (d - 1) / d if tag == "+" else (d + 2) / (d + 1)
                    approx, ok = value, abs(value - pred) < 1e-12
                    row.update(prediction=_fmt_real(pred), mode="float")
                else:
                    pred = {
                        "empty": Fraction(d),
                        "k1": Fraction(1),
                        "k2": Fraction(d - 1),
                        "ratio": Fraction(d - 1, d),
                    }[quantity]
                    ok = value.as_rational() == pred
                    approx = cyclo_to_complex(value, precision)
                    row["prediction"] = str(pred)
                row.update(value_re=_fmt_real(approx.real),
                           value_im=_fmt_real(approx.imag),
                           status="PASS" if ok else "FAIL")
    return rows


def _emit_rows(rows: list, fmt: str) -> str:
    columns = REPORT_HEADER.split(",")
    if fmt == "json":
        return json.dumps(rows, indent=2)
    cells = [[str(r[c]) for c in columns] for r in rows]
    if fmt == "csv":
        return "\n".join([REPORT_HEADER] + [",".join(row) for row in cells])
    head = "| " + " | ".join(columns) + " |"
    sep = "|" + "|".join(" --- " for _ in columns) + "|"
    body = ["| " + " | ".join(row) + " |" for row in cells]
    return "\n".join([head, sep] + body)


def cmd_report(args) -> int:
    window = args.window or (1, 50)
    rows = _report_rows(window, args.precision)
    print(_emit_rows(rows, args.format))
    return 0 if all(r["status"] != "FAIL" for r in rows) else 1


def cmd_verify_paper(args) -> int:
    records = run_checks(window=args.window, mode=args.mode)
    report = build_report(records)
    print(json.dumps(report, indent=2))
    return 0 if report["summary"]["fail"] == 0 else 1


# -- parser --------------------------------------------------------------------

_SHARED = {
    "path": dict(nargs="?", help="link JSON file"),
    "--fixture": dict(choices=sorted(_FIXTURES)),
    "--d": dict(type=int, help="level (d >= 1)"),
    "--sign": dict(choices=("+", "-"), help="root of unity (default +; needs --d)"),
    "--mode": dict(choices=("auto", "exact", "float"), default="auto"),
    "--precision": dict(type=int, default=30,
                        help="working digits for float results (>= 15)"),
    "--window": dict(type=_parse_window),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeinlab",
        description="Exact bracket evaluation and surgery invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *shared):
        p = sub.add_parser(name, help=summary)
        for option in shared:
            p.add_argument(option, **_SHARED[option])
        p.set_defaults(fn=fn)
        return p

    command("bracket", cmd_bracket, "Kauffman bracket of a diagram",
            "path", "--fixture")

    p = command("colored-bracket", cmd_colored_bracket,
                "bracket with projector-cabled components",
                "path", "--fixture", "--d", "--sign")
    p.add_argument("--colors", type=_parse_colors,
                   help="comma-separated color per component")
    # "--colors -1,1" is a value, so the color checks name the negative color
    p._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    p = command("wrt", cmd_wrt, "surgery invariant at one point",
                "path", "--fixture", "--d", "--sign", "--mode", "--precision")
    p.add_argument("--color", type=int,
                   help="attach a meridian with this color to the fixture")

    p = command("recoupling", cmd_recoupling, "closed-form tables as CSV",
                "--window")
    p.add_argument("--table", choices=("hopf", "series"), default="hopf")
    p.add_argument("--max-color", type=int, help="hopf table only (default 3)")
    p.add_argument("--color", type=int, help="series table only (default 1)")

    p = command("report", cmd_report, "window tables of the named quantities",
                "--window", "--precision")
    p.add_argument("--format", choices=("csv", "md", "json"), default="csv")

    command("verify-paper", cmd_verify_paper,
            "run every check; exit 0 iff all pass", "--window", "--mode")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "d", None) is not None and args.d < 1:
        print("error: --d must be >= 1", file=sys.stderr)
        return 2
    if "precision" in args and args.precision < 15:
        print("error: precision must be >= 15 digits", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (SkeinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
