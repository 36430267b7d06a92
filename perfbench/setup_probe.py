"""Time a workload's set-up in a fresh interpreter; prints scaled seconds.

    python3 perfbench/setup_probe.py <workload>     import alephcalc + build contexts
    python3 perfbench/setup_probe.py --import-cli   import alephcalc.cli only

The caller puts the repository's ``src`` on PYTHONPATH.  The time is scaled
to the reference speed of ``calibrate``, measured right after.
"""

import sys
import time

import calibrate
import contexts

if __name__ == "__main__":
    start = time.perf_counter()
    if sys.argv[1] == "--import-cli":
        import alephcalc.cli  # noqa: F401
    else:
        contexts.build(sys.argv[1])
    elapsed = time.perf_counter() - start
    calibrate.loop_seconds()  # the loop's first pass in a new process runs cold
    print(repr(elapsed * calibrate.scale()))
