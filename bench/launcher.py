"""Start and time child processes on behalf of run.py.

On Linux a child's peak RSS counts the memory of the process it was forked
from, so the benchmark, which holds numpy and the parsed outputs, would
inflate every figure. This small process forks the CLI instead. It reads
one JSON request per line, ``{"argv", "stdout", "stderr", "env", "limit"}``,
runs the command to its end (killing it after ``limit`` seconds) and writes
back ``{"code", "wall", "rss_kib"}``. It exits when its input closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, stdout, stderr, env, limit):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"code": code, "wall": wall, "rss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
