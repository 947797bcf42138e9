"""Print a sha256 of every output of the CLI on the three bench workloads.

Usage: python3 tools/output_digests.py SRC_DIR --seed N

Each workload of ``bench/workloads.py`` is built at the seed in a temporary
directory, and ``python -m tsleakscan`` is run there with SRC_DIR as its
PYTHONPATH: ``scan`` and ``explain`` each plain, with ``--collapse-overlaps``
and with ``--report-format csv``, and ``viz`` (which takes neither flag)
plain, all at ``--workers`` 1 and 2. Paths are relative to that directory,
so stdout does not name it. One line per run and output, its exit code,
stdout, stderr or a file it wrote, gives the sha256 of its bytes: two trees
write the same outputs when ``diff`` of their two printouts is empty.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # bench/ is only read
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

VARIANTS = {"plain": [], "collapsed": ["--collapse-overlaps"], "csv": ["--report-format", "csv"]}


def _runs(w):
    """(name, argv, the files it writes) of each run on workload ``w``."""
    common = w.cli_args(w.filename)
    for workers in ("1", "2"):
        last = ["--workers", workers]  # the last --workers is the one argparse keeps
        for command in ("scan", "explain"):
            extra = ["--horizon", str(w.horizon)] if command == "explain" else []
            for variant, flags in VARIANTS.items():
                report = f"report.{'csv' if variant == 'csv' else 'json'}"
                yield (f"{command}-{variant} w{workers}",
                       [command, *common, *extra, *flags, *last, "--output", report], [report])
        yield f"viz-plain w{workers}", ["viz", *common, *last, "--output", "heat.svg"], ["heat.svg", "heat.csv"]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the directory the package is imported from")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    for name in workloads.NAMES:
        w = workloads.make(name, args.seed)
        with tempfile.TemporaryDirectory() as work:
            w.write(Path(work, w.filename))
            for run, argv, files in _runs(w):
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
