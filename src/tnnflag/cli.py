"""Command-line front end with stable JSON output.

Exit codes: 0 success, 1 audit found failures, 2 invalid rank, 3 parameter
count mismatch, 4 zero parameter, 5 parse or usage error, 6 singular or
non-det-1 input matrix, 7 internal error (a contract that holds by
construction was violated).

Rationals, as matrix entries or in --params, are ASCII integers, 'p/q'
strings or plain decimals such as '-1.25', with surrounding ASCII
whitespace allowed.  JSON booleans and floats, exponents such as '1e2',
'_' and non-ASCII characters in any number exit 5.  --samples: 0..10000.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import audit, flag, linalg, richardson, weyl
from .errors import (
    InternalInconsistency, ParamCountMismatch, RankTooLarge, Singular,
    TnnError, ZeroParameter,
)

EXIT_AUDIT_FAILURES = 1
EXIT_BAD_RANK = 2
EXIT_PARAM_COUNT = 3
EXIT_ZERO_PARAM = 4
EXIT_PARSE = 5
EXIT_SINGULAR = 6
EXIT_INTERNAL = 7

# Every error main reports; the first entry of EXIT_CODES whose class
# matches gives the exit code.
HANDLED = (ValueError, OSError, TnnError)
EXIT_CODES = (
    (RankTooLarge, EXIT_BAD_RANK),
    (ParamCountMismatch, EXIT_PARAM_COUNT),
    (ZeroParameter, EXIT_ZERO_PARAM),
    (Singular, EXIT_SINGULAR),
    (InternalInconsistency, EXIT_INTERNAL),
    (HANDLED, EXIT_PARSE),
)


def _check_rank(n: int) -> None:
    if not 2 <= n <= weyl.MAX_RANK:
        raise RankTooLarge(f"n must be in 2..{weyl.MAX_RANK}, got {n}")


def _parse_perm(n: int, text: str, fmt: str) -> weyl.Perm:
    if fmt == "word":
        letters = [weyl.ascii_int(t.lstrip("s")) for t in text.replace(",", " ").split()]
        return weyl.word_to_perm(n, letters)
    w = weyl.perm_from_str(text)
    if len(w) != n:
        raise ValueError(f"permutation {text!r} is not of rank {n}")
    return w


def _parse_params(text: str) -> list:
    if text.isascii() and not text.strip():  # rat refuses non-ASCII spaces
        return []
    return [linalg.rat(tok) for tok in text.split(",")]


def _open_output(args):
    """The --output file for writing, or stdout for '-'."""
    if args.output and args.output != "-":
        return open(args.output, "w")
    return contextlib.nullcontext(sys.stdout)


def _emit(args, payload: dict) -> None:
    with _open_output(args) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# one element of the "cells" list as json.dumps(..., indent=2) lays it out
_CELL = ('    {{\n      "dim": {},\n      "shape": {},\n      "w": {},\n'
         '      "wp": {}\n    }}')


def cmd_cells(args) -> int:
    """Write the census as _emit would, one cell at a time.

    Every chart is built before the output is opened, so a failed check
    writes nothing.
    """
    _check_rank(args.n)
    table = richardson.ChartTable()  # its charts die with the call
    charts = [table.chart(w, wp) for w, wp in weyl.iter_bruhat_pairs(args.n)]
    top_dim = max(chart.dim for chart in charts)
    # each permutation is quoted once for the run, not once per cell
    quoted = {w: json.dumps(weyl.perm_to_str(w)) for w in weyl.all_perms(args.n)}
    with _open_output(args) as fh:
        fh.write('{\n  "cells": [')
        for k, chart in enumerate(charts):
            fh.write(",\n" if k else "\n")
            # step labels and " -> " need no JSON escape (richardson._step)
            fh.write(_CELL.format(
                chart.dim, '"' + chart.shape() + '"',
                quoted[chart.index.w], quoted[chart.index.wp],
            ))
        fh.write(f'\n  ],\n  "count": {len(charts)},\n  "n": {args.n},\n'
                 f'  "top_dimensional_cells": '
                 f'{sum(chart.dim == top_dim for chart in charts)}\n}}\n')
    return 0


def cmd_eval(args) -> int:
    _check_rank(args.n)
    w = _parse_perm(args.n, args.w, args.format)
    wp = _parse_perm(args.n, args.wp, args.format)
    chart = richardson.build_chart(w, wp)
    params = _parse_params(args.params)
    b = richardson.eval_chart(chart, params)
    payload = {
        "n": args.n,
        **chart.index.to_json(),
        "params": [str(p) for p in params],
        "stratum": flag.stratum(b).to_json(),
        **b.to_json(),
    }
    _emit(args, payload)
    return 0


def cmd_classify(args) -> int:
    if args.matrix_file == "-":
        raw = sys.stdin.read()
    else:
        with open(args.matrix_file) as fh:
            raw = fh.read()
    try:
        rows = json.loads(raw)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if isinstance(rows, dict):
        rows = rows.get("borel_rep", rows)
    # reject an oversized matrix before converting its entries
    if isinstance(rows, list) and len(rows) > weyl.MAX_RANK:
        _check_rank(len(rows))
    g = linalg.mat_from_json(rows)
    _check_rank(len(g))
    b = flag.borel_from(g)
    result = richardson.classify(b)
    _emit(args, result.to_json())
    return 0


def cmd_audit(args) -> int:
    _check_rank(args.n)
    decomposition = audit.audit_decomposition(args.n, args.samples, args.seed)
    semigroup = audit.audit_semigroup(args.n, args.samples, args.seed)
    payload = {
        "decomposition": decomposition.to_json(),
        "semigroup": semigroup.to_json(),
    }
    _emit(args, payload)
    failures = decomposition.failures or semigroup.failures
    return EXIT_AUDIT_FAILURES if failures else 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main reports them as parse errors."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tnnflag",
        description="Exact cell decomposition of the TNN flag variety of SL_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("cells", help="list all cells with chart summaries")
    p.add_argument("--n", type=weyl.ascii_int, required=True)
    common(p)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("eval", help="evaluate a chart on given parameters")
    p.add_argument("--n", type=weyl.ascii_int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--wp", required=True)
    p.add_argument("--params", default="", help="comma-separated rationals; "
                   "write --params=-1/2,3 when the first is negative")
    p.add_argument("--format", choices=["oneline", "word"], default="oneline")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="classify a det-1 rational matrix's flag")
    p.add_argument("matrix_file", help="JSON matrix file, '-' for stdin")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", help="run the decomposition and semigroup audits")
    p.add_argument("--n", type=weyl.ascii_int, required=True,
                   help="rank, 2..4: the decomposition audit stops at n = 4")
    p.add_argument("--samples", type=weyl.ascii_int, default=20,
                   help=f"samples per task, 0..{audit.MAX_SAMPLES}")
    p.add_argument("--seed", type=weyl.ascii_int, default=0)
    common(p)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except HANDLED as exc:
        # one line, also when the message quotes an argument with a newline
        print(" ".join(str(exc).splitlines()), file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
