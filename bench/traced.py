"""Run the tsleakscan CLI with a span around each layer's public functions.

Usage: python3 bench/traced.py SPANS.json explain|viz CLI-ARGS...

The package is not changed: each function is replaced, where its caller
looks it up, by a wrapper that records (name, start, end, parent, counts).
The spans stay in memory and are written to SPANS.json when the command
ends, together with the time that writing them took.
"""

import importlib
import json
import sys
import time

spans = []  # [name, start, end, index of the enclosing span or -1, counts]
_open = []


def wrap(module, attr, name, counts=None):
    inner = getattr(module, attr)

    def traced(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = _open[-1] if _open else -1
        _open.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = inner(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _open.pop()
            spans[index] = [name, start, end, parent,
                            counts(result, *args) if counts and result is not None else None]

    setattr(module, attr, traced)


def _scan_counts(report, collection, cfg):
    # query x donor pairs the scan covers, however it batches them
    queries = len(collection) - len(report.skipped_queries)
    donors = sum(len(s.values) >= cfg.h for s in collection)
    return [queries * donors, len(report.matches)]


def install():
    # the package attribute ``tsleakscan.scan`` is the function, so the
    # modules are reached through importlib / sys.modules
    cli = importlib.import_module("tsleakscan.cli")
    scan_module = sys.modules["tsleakscan.scan"]
    report = sys.modules["tsleakscan.report"]
    wrap(cli, "load_collection", "collection.load",
         lambda c, *a: [len(c), sum(len(s.values) for s in c)])
    wrap(cli, "scan", "scan", _scan_counts)
    wrap(scan_module, "sliding_correlations", "corr",
         lambda p, q, t, h: [len(p.offsets), len(p.skipped), h])
    wrap(cli, "reason_report", "reasons", lambda rms, *a: [len(rms), sum(rm.useful for rm in rms)])
    wrap(report, "write_report", "report.json")
    wrap(report, "build_matrix", "report.matrix")
    wrap(report, "write_matrix_csv", "report.matrix_csv")
    wrap(report, "render_heatmap", "report.heatmap")
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    code = install().main(cli_args)
    start = time.perf_counter()
    text = json.dumps(spans)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"dump_s": {time.perf_counter() - start!r}, "spans": {text}}}\n')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
