#!/usr/bin/env python3
"""Run a command and fail when its peak resident set size exceeds a limit.

Usage: python scripts/peak_rss.py LIMIT_MB -- CMD [ARG ...]

The command runs as a child process with this process's stdin, stdout and
stderr.  Its peak RSS (the largest of its process tree, from
getrusage(RUSAGE_CHILDREN); ru_maxrss is in KiB on Linux) is printed to
stderr, so redirecting stdout silences only the command.  Exits with the
command's status if it fails, else 0 when the peak is at most LIMIT_MB MiB
and 1 when it is above.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    limit = float(argv[0])
    cmd = argv[2:]
    status = subprocess.run(cmd).returncode
    if status != 0:
        return status
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ok = peak <= limit
    print(f"{' '.join(cmd)}: peak RSS {peak:.0f} MB (limit {limit:g} MB, "
          f"{'ok' if ok else 'over'})", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
