"""Run one command; time its first stdout byte and read its peak RSS.

    python3 perfbench/launch.py STDIN STDOUT STDERR CMD...

STDIN may be ``-`` for no input.  The command's stdout is copied to the
STDOUT file as it arrives.  Prints one JSON object: ``wall_s`` (launch to
exit), ``first_byte_s`` (launch to the first stdout byte, or ``wall_s`` when
there is none), ``peak_rss_mb`` and ``returncode``.

The benchmark starts every CLI child through this small process rather than
from itself: Linux folds the peak RSS of the process that forks a child into
the child's ``ru_maxrss``, and the benchmark process grows larger than the CLI.
This launcher imports nothing heavy, so its own peak stays below the CLI's.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    stdin_path, stdout_path, stderr_path, *command = argv
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err, \
            (open(stdin_path, "rb") if stdin_path != "-" else open(os.devnull, "rb")) as stdin:
        start = perf_counter()
        proc = subprocess.Popen(command, stdin=stdin, stdout=subprocess.PIPE, stderr=err)
        first = None
        with proc.stdout:
            while chunk := os.read(proc.stdout.fileno(), 1 << 16):
                if first is None:
                    first = perf_counter() - start
                out.write(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "first_byte_s": wall if first is None else first,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
