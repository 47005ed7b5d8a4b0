#!/usr/bin/env python3
"""The repository benchmark: one workload per process, timed or traced.

    python3 perfbench/run.py --workload mode_ii --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, under the backend ``repro.accel`` picks on
its own.  ``--trace 0`` times ops in a closed loop for ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced executions of the reference window and reports
the per-layer metrics (see README.md).  The last line of standard
output is the JSON result; the line before it, prefixed ``RESULT``,
is the full result document with run metadata and simulated-time
metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("mode_ii", "fig5_sweep", "serve_nominal",
                  "serve_overload")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    harness.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
