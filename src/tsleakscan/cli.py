"""Command-line front end: ``scan``, ``explain`` and ``viz`` subcommands.

``scan`` finds the leaks, ``explain`` adds the reason and exploitability
verdict per leak, ``viz`` renders the match matrix as CSV plus an SVG
heatmap. Exit codes: 0 success (also when no leaks are found), 1 input or
I/O error, 2 a bad flag, a limit broken in ``ScanConfig``/``ReasonConfig``,
a bad ``TSLEAKSCAN_WORKERS``, or an output path that is a directory or
would overwrite the input or another output of the same command (viz
writes its matrix CSV next to the heatmap, with the suffix ``.csv``), all
checked before any input is read.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import report as rpt
from .collection import REJECT, SPLIT_SKIP, MissingPolicy, load_collection
from .errors import ConfigError, LeakScanError
from .scan import AUTO, ScanConfig, scan

_FORMATS = {"wide": "wide-csv", "long": "long-csv", "json": "json"}
_FOOTER_LABELS = {"exact-match": "exact"}  # by kind text; a kind not named here is written as its text

def reason_report(report, collection, cfg):
    """``reasons.reason_report``, the one name of ``reasons`` looked up on
    this module, where the benchmark's tracer (``bench/traced.py``) wraps it."""
    from . import reasons

    return reasons.reason_report(report, collection, cfg)


def _workers(text):
    if text == AUTO:
        return AUTO
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be a positive integer or 'auto', got {text!r}")


def _angle(text):
    try:
        value = float(text)
        if value - value == 0:  # false for NaN and the infinities
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"angle must be a finite number of degrees, got {text!r}")


def _add_common(p):
    p.add_argument("--input", required=True, help="path to the series collection file")
    p.add_argument("--format", choices=sorted(_FORMATS), default="long",
                   help="input format (default: long)")
    p.add_argument("--h", type=int, required=True, metavar="INT",
                   help="segment length to match (>= 3)")
    p.add_argument("--cutoff", type=float, default=1.0,
                   help="cutoff for |r| (default: 1.0)")
    p.add_argument("--missing", choices=["reject", "skip"], default="reject",
                   help="missing-value policy: reject aborts, skip admits the series "
                        "and skips affected windows (default: reject)")
    # argparse passes a string default through _workers too
    p.add_argument("--workers", type=_workers, default=os.environ.get("TSLEAKSCAN_WORKERS", "1"),
                   help="worker process count or 'auto' "
                        "(default: $TSLEAKSCAN_WORKERS or 1)")


def _add_report_flags(p):
    p.add_argument("--output", default=None, help="write the report to this path")
    p.add_argument("--report-format", choices=["json", "csv"], default="json",
                   help="report file format (default: json)")
    p.add_argument("--collapse-overlaps", action="store_true",
                   help="merge runs of consecutive offsets into one range per "
                        "(query, donor) pair")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsleakscan",
        description="Detect potential data leaks in forecasting competition datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="find matching segments across the collection")
    _add_common(p_scan)
    _add_report_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_explain = sub.add_parser("explain", help="scan, then classify and judge each match")
    _add_common(p_explain)
    _add_report_flags(p_explain)
    p_explain.add_argument("--horizon", type=int, default=None, metavar="INT",
                           help="forecast horizon for the usefulness check (default: h)")
    p_explain.set_defaults(func=cmd_explain)

    p_viz = sub.add_parser("viz", help="summarize matches as a matrix CSV and SVG heatmap")
    _add_common(p_viz)
    p_viz.add_argument("--output", default="leaks.svg",
                       help="heatmap SVG path; the matrix CSV lands next to it "
                            "(default: leaks.svg)")
    p_viz.add_argument("--ang", type=_angle, default=90.0, metavar="DEGREES",
                       help="column label rotation angle (default: 90)")
    p_viz.set_defaults(func=cmd_viz)
    return parser


def _run_scan(args):
    policy = MissingPolicy(REJECT if args.missing == "reject" else SPLIT_SKIP)
    collection = load_collection(args.input, format=_FORMATS[args.format], policy=policy)
    return collection, scan(collection, args.cfg)


# the stdout line of a match, and of an explained one, filled from the columns of a chunk
_MATCH_LINE = "%s -> %s: %s-%s, r=%.3f"
_SCAN_LINE = _MATCH_LINE + "\n"
_EXPLAIN_LINE = _MATCH_LINE + ", %s, %s\n"


def _print_skips(report):
    for sid, reason in report.skipped_queries:
        print(f"skipped query {sid}: {reason}")


def cmd_scan(args) -> int:
    collection, report = _run_scan(args)
    matches = report.matches
    if args.collapse_overlaps:
        from .reasons import collapse_overlaps

        matches = collapse_overlaps(matches)
    sys.stdout.writelines("".join([_SCAN_LINE % row for row in zip(*matches.columns(lo, hi))])
                          for lo, hi in matches.chunks())
    _print_skips(report)
    if not matches:
        print("no leaks detected")
    else:
        print(f"{len(matches)} match{'es' if len(matches) != 1 else ''}")
    if args.output:
        out_report = replace(report, matches=matches)
        rpt.write_report(out_report, args.output, format=args.report_format)
        print(f"report written to {args.output}")
    return 0


def _six_digits(values) -> list:
    return list(map("%.6g".__mod__, values))


def _explain_lines(reasoned):
    """The stdout lines of the explained matches, a chunk at a time; a
    missing predicted value is printed "?"."""
    for lo, hi in reasoned.chunks():
        kinds = reasoned.kind_texts(lo, hi)
        verdicts = ["not useful" if p is None else "useful; predicted test: " + " ".join(p)
                    for p in reasoned.render_predicted(lo, hi, _six_digits, "?")]
        yield "".join([_EXPLAIN_LINE % row for row in zip(*reasoned.base.columns(lo, hi), kinds, verdicts)])


def cmd_explain(args) -> int:
    from .reasons import ReasonKind, collapse_overlaps, tally

    collection, report = _run_scan(args)
    reasoned = reason_report(report, collection, args.reason_cfg)
    if args.collapse_overlaps:
        reasoned = collapse_overlaps(reasoned)
    sys.stdout.writelines(_explain_lines(reasoned))
    _print_skips(report)
    kinds, useful = tally(reasoned)
    if not len(reasoned):
        print("0 matches")
    else:
        by_kind = ", ".join(
            f"{kinds[k]} {_FOOTER_LABELS.get(k.value, k.value)}" for k in ReasonKind if k in kinds
        )
        print(f"{len(reasoned)} matches: {by_kind}; {useful} useful")
    if args.output:
        out_report = replace(report, matches=reasoned.base)
        rpt.write_report(out_report, args.output, format=args.report_format,
                         reasoned=reasoned, horizon=args.horizon)
        print(f"report written to {args.output}")
    return 0


def _outputs(args):
    """(what, path) of each file the command writes; viz writes the matrix
    CSV next to the heatmap."""
    if args.command == "viz":
        heatmap = Path(args.output)
        if not heatmap.name:
            raise ConfigError(f"the heatmap path {args.output!r} names no file")
        return [("heatmap", heatmap), ("matrix CSV", heatmap.with_suffix(".csv"))]
    return [("report", Path(args.output))] if args.output else []


def _check_outputs(args):
    """Reject an output path that is a directory, the input's or another output's file."""
    written = {Path(args.input).resolve(): "input"}
    for what, path in _outputs(args):
        if path.is_dir():
            raise ConfigError(f"the {what} {str(path)!r} is a directory")
        key = path.resolve()
        if key in written:
            raise ConfigError(f"the {what} {str(path)!r} would overwrite the {written[key]}")
        written[key] = what


def cmd_viz(args) -> int:
    collection, report = _run_scan(args)
    matrix = rpt.build_matrix(report, collection)
    (_, svg_path), (_, csv_path) = _outputs(args)
    rpt.write_matrix_csv(matrix, csv_path)
    rpt.render_heatmap(matrix, svg_path, label_angle=args.ang)
    print(f"{matrix.total()} match{'es' if matrix.total() != 1 else ''} "
          f"across {len(matrix.row_ids)} series")
    print(f"matrix written to {csv_path}")
    print(f"heatmap written to {svg_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.cfg = ScanConfig(h=args.h, cutoff=args.cutoff, workers=args.workers)
        if args.command == "explain":
            from .reasons import ReasonConfig

            args.reason_cfg = ReasonConfig(horizon=args.horizon)
        _check_outputs(args)
    except ConfigError as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except (LeakScanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> int:
    """``main`` for a process that exits after it, the entry of ``python -m
    tsleakscan``, ``python -m tsleakscan.cli`` and the console script: its
    objects are frozen out of the garbage collector, so the exit does not
    collect them, yet it runs atexit handlers and fails on a failed flush of
    stdout, as ``os._exit`` would not. ``main`` never freezes."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
