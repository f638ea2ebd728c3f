"""Starts the benchmark's child processes from a small process, one at a time.

A child made by fork or vfork begins in its parent's memory, and Linux
counts that memory in the child's peak resident set (``ru_maxrss``).  The
benchmark's own process holds numpy and scipy, about 100 MB; this process
holds neither, so the peak a child started from here reports is its own
work, plus at most this process's few megabytes.

Protocol: one JSON request per line on stdin (``cmd``, ``cwd``, ``env``,
``stdout``, ``stderr``, ``timeout``), one JSON reply per line on stdout
with the launch and end times (``time.monotonic``), exit code, CPU
seconds and peak RSS of the child together with the processes it waited
for.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            launched = time.monotonic()
            child = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "launched": launched,
            "ended": ended,
            "code": child.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
