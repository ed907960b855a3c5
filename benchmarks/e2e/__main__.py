"""``python -m benchmarks.e2e {run,compare} ...`` -- see README.md."""

import sys

from .cli import main

raise SystemExit(main(sys.argv[1:]))
