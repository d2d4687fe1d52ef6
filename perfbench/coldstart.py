"""One set-up as a user pays it, in a fresh interpreter.

    python3 perfbench/coldstart.py SRC < files

Reads the workload's input files from stdin (path and contents, separated
by NUL bytes), then times importing semigeom from SRC, building the CLI
parser and writing the files, and prints the seconds.  Only ``sys`` and
``time`` are imported before the clock starts, so the import pays for
every module semigeom needs.
"""

import sys
import time


def main():
    parts = sys.stdin.buffer.read().split(b"\0")
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import semigeom.cli

    semigeom.cli.build_parser()
    for i in range(0, len(parts) - 1, 2):
        with open(parts[i], "wb") as fh:
            fh.write(parts[i + 1])
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
