"""Start cli_oneshot's processes from a small interpreter.

A process's peak RSS (``ru_maxrss``) also counts the memory of the process
that forked it, up to the ``exec``.  If the benchmark, which holds its
inputs and samples, forked the ``eval`` processes itself, their peak would
read as the benchmark's.  So the benchmark starts this script once, with
``python -S``, and this script forks the ``eval`` processes.

Protocol: one JSON argv list per line on stdin.  For each, one JSON object
per line on stdout: exit status, merged stdout and stderr, peak RSS in KiB,
and seconds from start to exit.
"""

import json
import os
import subprocess
import sys
import time

if __name__ == "__main__":
    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"status": proc.returncode, "output": output.decode(errors="replace"),
                          "maxrss_kb": usage.ru_maxrss, "seconds": seconds}), flush=True)
