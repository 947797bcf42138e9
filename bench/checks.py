"""Checks of the CLI's outputs against the planted truth.

Everything here is the benchmark's own arithmetic: nothing imports the
package under test. Each check returns an error message, or None when it
passes; every round runs the same list, so the number of operations a run
attempts does not depend on the seed.
"""

from __future__ import annotations

import csv
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np

from workloads import EXACT, unit_rows

R_TOL = 1e-9  # reported r against the reference Pearson
PREDICTED_RTOL = 1e-9  # predicted test value against the hidden one, relative to max|test|
BAND = 1e-9  # windows this close to the threshold are left out of the offset comparison
CUTOFF_TOLERANCE = 1e-10  # the scan's default: it reports |r| >= cutoff - 1e-10

_SUMMARY = re.compile(r"^(\d+) matches(?::|$)")
_VIZ_SUMMARY = re.compile(r"^(\d+) match(?:es)? across (\d+) series$")


def _centred(x):
    # exact power-of-two scaling, then two centring passes: the second pass
    # removes the rounding of the first mean when the spread is a few ulps
    _, exp = math.frexp(max(abs(v) for v in x))
    x = [math.ldexp(v, -exp) for v in x]
    for _ in range(2):
        mean = math.fsum(x) / len(x)
        x = [v - mean for v in x]
    return x


def pearson(a, b):
    """Pearson r of two equal-length lists in plain Python (None if undefined)."""
    a, b = _centred(a), _centred(b)
    saa, sbb = math.fsum(v * v for v in a), math.fsum(v * v for v in b)
    if saa == 0.0 or sbb == 0.0:
        return None
    return math.fsum(x * y for x, y in zip(a, b)) / math.sqrt(saa * sbb)


def _key(m):
    return (m["query_id"], m["donor_id"], m["start"], m["end"])


def _window(w, m):
    return w.series[m["donor_id"]][m["start"] - 1:m["end"]]


def _summary_count(stdout, pattern):
    for line in reversed(stdout.splitlines()):
        found = pattern.match(line)
        if found:
            return found
    return None


def _first(problems, total, what):
    if not problems:
        return None
    return f"{len(problems)} of {total} {what}, first: {problems[0]}"


# -- explain -----------------------------------------------------------------

def report_parses(w, report, stdout):
    if not isinstance(report, dict) or list(report) != ["config", "skipped_queries", "matches"]:
        return "report is not an object with config, skipped_queries and matches"
    expected = {"h": w.h, "cutoff": w.cutoff, "horizon": w.horizon}
    if report["config"] != expected:
        return f"config {report['config']} != {expected}"
    return None


def summary_count(w, report, stdout):
    found = _summary_count(stdout, _SUMMARY)
    if found is None:
        return "no summary line in the explain output"
    if int(found.group(1)) != len(report["matches"]):
        return f"summary says {found.group(1)} matches, report holds {len(report['matches'])}"
    return None


def r_agrees(w, report, stdout):
    problems = []
    for m in report["matches"]:
        window = _window(w, m)
        if m["end"] - m["start"] + 1 != w.h or len(window) != w.h or None in window:
            problems.append(f"{_key(m)} is not a complete window")
            continue
        ref = pearson(w.series[m["query_id"]][-w.h:], window)
        if ref is None or abs(m["r"] - ref) > R_TOL:
            problems.append(f"{_key(m)} r={m['r']!r}, reference {ref!r}")
    return _first(problems, len(report["matches"]), "r values off")


def skipped(w, report, stdout):
    got = {(e["id"], e["reason"]) for e in report["skipped_queries"]}
    if got != set(w.skipped.items()):
        return f"skipped queries {sorted(got)} != {sorted(w.skipped.items())}"
    return None


def match_set(w, report, stdout):
    got = {_key(m) for m in report["matches"]}
    want = {(p.source, p.donor, p.start, p.end) for p in w.plants if p.reported}
    if got != want:
        return f"missing {sorted(want - got)}, unplanted {sorted(got - want)[:5]}"
    return None


def _planted(w, report):
    plants = {(p.source, p.donor, p.start, p.end): p for p in w.plants if p.reported}
    return [(m, plants[_key(m)]) for m in report["matches"] if _key(m) in plants]


def kinds(w, report, stdout):
    problems = [f"{_key(m)} is {m['kind']}, planted {p.kind} (m={p.m}, c={p.c})"
                for m, p in _planted(w, report) if m["kind"] != p.kind]
    return _first(problems, len(w.plants), "kinds wrong")


def useful(w, report, stdout):
    problems = []
    for m in report["matches"]:
        want = m["end"] + w.horizon <= len(w.series[m["donor_id"]])
        if m["useful"] is not want:
            problems.append(f"{_key(m)} useful={m['useful']}")
    problems += [f"{_key(m)} planted useful={p.useful}"
                 for m, p in _planted(w, report) if m["useful"] is not p.useful]
    return _first(problems, len(report["matches"]), "usefulness verdicts wrong")


def predicted_test(w, report, stdout):
    """The continuation mapped back recovers the hidden test segment: within
    1e-9 of max|test|, exactly for an exact copy, and None where the donor's
    continuation is missing."""
    problems = []
    for m, p in _planted(w, report):
        got = m.get("predicted_test")
        if not p.useful:
            if got is not None:
                problems.append(f"{_key(m)} is not useful but predicts {got}")
            continue
        if got is None or len(got) != w.horizon:
            problems.append(f"{_key(m)} predicts {got}")
            continue
        donor = w.series[p.donor]
        scale = max(abs(t) for t in p.test)
        for i, (g, t) in enumerate(zip(got, p.test)):
            if donor[p.end + i] is None:
                ok = g is None
            elif p.kind == EXACT:
                ok = g == t
            else:
                ok = g is not None and abs(g - t) <= PREDICTED_RTOL * scale
            if not ok:
                problems.append(f"{_key(m)} test[{i}] predicted {g!r}, hidden {t!r}")
                break
    return _first(problems, len(w.plants), "predictions wrong")


def noise_free_found(w, report, stdout):
    missing = w.must_find - {_key(m) for m in report["matches"]}
    return _first(sorted(missing), len(w.must_find), "noise-free plants not reported")


def reference_offsets(w, report, stdout):
    """Every query against every donor: the reported offsets are exactly the
    windows a per-window reference puts at or above the threshold, leaving
    out windows within BAND of it. The workload has no missing values and no
    constant windows, so every window has an r."""
    h, threshold = w.h, w.cutoff - CUTOFF_TOLERANCE
    ids = list(w.series)
    queries = unit_rows(np.array([w.series[q][-h:] for q in ids]))
    got = {_key(m) for m in report["matches"]}
    problems = []
    for d in ids:
        values = np.array(w.series[d])
        r = np.abs(unit_rows(np.lib.stride_tricks.sliding_window_view(values, h)) @ queries.T)
        for off, qi in zip(*np.nonzero(r >= threshold - BAND)):
            key = (ids[qi], d, int(off) + 1, int(off) + h)
            if d == ids[qi] and off + h == len(values):
                continue  # the query's own position
            if key in got or r[off, qi] < threshold + BAND:
                got.discard(key)
            else:
                problems.append(f"{key} |r|={r[off, qi]:.12f} not reported")
    problems += [f"{key} reported, reference below the threshold" for key in sorted(got)]
    return _first(problems, len(report["matches"]), "offsets differ")


# -- viz ---------------------------------------------------------------------

def matrix(w, report, stdout, csv_path, svg_path):
    found = _summary_count(stdout, _VIZ_SUMMARY)
    if found is None or int(found.group(2)) != len(w.series):
        return "no viz summary line for every series"
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    ids = list(w.series)
    if rows[0] != [""] + ids or [row[0] for row in rows[1:]] != ids:
        return "matrix rows or columns are not the series in collection order"
    cells = {(q, d): int(v) for q, row in zip(ids, rows[1:]) for d, v in zip(ids, row[1:])}
    pairs = Counter((m["query_id"], m["donor_id"]) for m in report["matches"])
    wrong = [key for key, v in cells.items() if v != pairs.get(key, 0)]
    total = sum(cells.values())
    if wrong or total != len(report["matches"]) or int(found.group(1)) != total:
        return (f"matrix total {total}, printed {found.group(1)}, report "
                f"{len(report['matches'])}, {len(wrong)} cells differ")
    return None


def svg(w, report, stdout, csv_path, svg_path):
    try:
        root = ET.parse(svg_path).getroot()
    except ET.ParseError as exc:
        return f"SVG is not well-formed: {exc}"
    cells = sum(1 for e in root.iter() if e.get("class") == "cell")
    if not root.tag.endswith("svg") or cells != len(w.series) ** 2:
        return f"{root.tag} with {cells} cells, expected {len(w.series) ** 2}"
    return None


def explain_checks(w):
    """The explain checks for a workload, in the order every round runs them."""
    common = [report_parses, summary_count, r_agrees, skipped, useful]
    if w.cutoff == 1.0:
        return common + [match_set, kinds, predicted_test]
    return common + [noise_free_found, reference_offsets]


VIZ_CHECKS = [matrix, svg]


def run_checks(w, checks, *args):
    """(name, error or None) per check; a check that raises fails."""
    results = []
    for check in checks:
        try:
            error = check(w, *args)
        except Exception as exc:  # a malformed output fails the check, not the run
            error = f"{type(exc).__name__}: {exc}"
        results.append((check.__name__, error))
    return results
