"""Print a sha256 of every output of the CLI on the bench workloads and a few inputs of its own.

Usage: python3 tools/output_digests.py SRC_DIR --seed N

Each workload of ``bench/workloads.py``, and a periodic one built here, is
written at the seed in a temporary directory, and ``python -m tsleakscan``
is run there with SRC_DIR as its PYTHONPATH: ``scan`` and ``explain`` each
plain, with ``--collapse-overlaps`` and with ``--report-format csv``, and
``viz`` (which takes neither flag) plain, all at ``--workers`` 1 and 2. The
periodic workload's matches come in runs of consecutive offsets, which no
bench workload has, so a change to the merge of ``--collapse-overlaps``
shows. ``scan`` also runs on one malformed file per format, so the loaders'
error texts show too. Paths are relative to that directory, so stdout does
not name it. One line per run and output, its exit code, stdout, stderr or
a file it wrote, gives the sha256 of its bytes: two trees write the same
outputs when ``diff`` of their two printouts is empty.
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # bench/ is only read
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

VARIANTS = {"plain": [], "collapsed": ["--collapse-overlaps"], "csv": ["--report-format", "csv"]}
WORKERS = ("1", "2")

# name -> (--format, the file's text, further flags) of inputs every loader
# rejects: a cell that is not a number, an index that skips, a string in a
# series' array, and a missing value under --missing reject
MALFORMED = {
    "bad-wide-cell": ("wide", "a,b\n1,2\n3,x\n5,6\n", []),
    "long-index-gap": ("long", "series_id,index,value\na,1,1\na,3,2\na,4,5\n", []),
    "json-string-value": ("json", '{"a": [1, "two", 3], "b": [4, 5, 6]}\n', []),
    "missing-rejected": ("long", "series_id,index,value\na,1,1\na,2,\na,3,4\n", ["--missing", "reject"]),
}


def periodic(seed):
    """A noisy sawtooth of period 10, whose terminal window matches every
    window of h=5 within a ramp, so its matches come in runs of consecutive
    offsets, among three random walks."""
    rng = random.Random(seed)
    series = {"saw": [t % 10 + rng.gauss(0, 0.01) for t in range(96)]}
    for k in range(3):
        walk = [0.0]
        for _ in range(47):
            walk.append(walk[-1] + rng.gauss(0, 1))
        series[f"walk{k}"] = walk
    return workloads.Workload("periodic", "long", h=5, cutoff=0.95, horizon=5, missing="reject", series=series)


def _runs(w):
    """(name, argv, the files it writes) of each run on workload ``w``."""
    common = w.cli_args(w.filename)
    for workers in WORKERS:
        last = ["--workers", workers]  # the last --workers is the one argparse keeps
        for command in ("scan", "explain"):
            extra = ["--horizon", str(w.horizon)] if command == "explain" else []
            for variant, flags in VARIANTS.items():
                report = f"report.{'csv' if variant == 'csv' else 'json'}"
                yield (f"{command}-{variant} w{workers}",
                       [command, *common, *extra, *flags, *last, "--output", report], [report])
        yield f"viz-plain w{workers}", ["viz", *common, *last, "--output", "heat.svg"], ["heat.svg", "heat.csv"]


def _cases(seed):
    """(name, a function that writes the input into a directory, its runs) of each input."""
    for w in [*(workloads.make(name, seed) for name in workloads.NAMES), periodic(seed)]:
        yield w.name, lambda work: w.write(Path(work, w.filename)), _runs(w)
    for name, (fmt, text, flags) in MALFORMED.items():
        runs = [(f"scan w{workers}", ["scan", "--input", "input", "--format", fmt, "--h", "3", *flags,
                                      "--workers", workers, "--output", "report.json"], ["report.json"])
                for workers in WORKERS]
        yield name, lambda work: Path(work, "input").write_text(text, encoding="utf-8"), runs


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the directory the package is imported from")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    for name, write, runs in _cases(args.seed):
        with tempfile.TemporaryDirectory() as work:
            write(work)
            for run, argv, files in runs:
                proc = subprocess.run([sys.executable, "-m", "tsleakscan", *argv], cwd=work, env=env,
                                      capture_output=True)
                print(name, run, "exit", proc.returncode)
                print(name, run, "stdout", _sha(proc.stdout))
                print(name, run, "stderr", _sha(proc.stderr))
                for file in files:
                    path = Path(work, file)
                    print(name, run, file, _sha(path.read_bytes()) if path.exists() else "absent")
                    path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
