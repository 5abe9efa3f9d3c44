"""Start the benchmark's timed children and report their time and peak RSS.

Linux reports as a child's peak RSS at least the peak RSS of the process
that started it, because the child begins as a copy of it. The benchmark
holds inputs and outputs in memory, so children it started itself would
report its peak instead of their own. This small process starts them
instead.

Protocol: one JSON request per line on stdin, {"argv": [...], "stderr": path};
one JSON reply per line on stdout, {"wall_s": ..., "code": ..., "rss_mb": ...}.
Children inherit this process's environment and working directory. It exits
when stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                request["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
