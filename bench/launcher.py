"""Runs the benchmark's child processes from a process that stays small.

On Linux the peak RSS that wait4 reports for a child is at least the
peak RSS of the process that spawned it: exec records the high-water
mark of the address space it replaces, and with vfork that is the
spawner's own. The harness holds numpy, the inputs and parsed reports,
so it would inflate every reading. This process imports only the
standard library and streams each child's stdout to a file in 64 KiB
chunks, so its own peak stays near the interpreter's.

Protocol: one JSON request per line on stdin, with the keyword arguments
of :func:`run`; one JSON reply per line on stdout. EOF on stdin ends it.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list, cwd: str, env: dict, stdout_path: str, timeout: float) -> dict:
    """Run one child to exit, timed from spawn to exit with its stdout drained and hashed.

    CPU time and peak RSS are the child's own, from wait4. RUSAGE_CHILDREN
    would give a running maximum over every child reaped so far.
    """
    timed_out = threading.Event()
    with open(stdout_path, "wb") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        try:
            digest = hashlib.sha256()
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                out.write(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "timed_out": timed_out.is_set(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "sha256": digest.hexdigest(),
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
