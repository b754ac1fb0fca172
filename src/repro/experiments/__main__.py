"""``python -m repro.experiments`` — same as the ``rrmp`` CLI."""

import sys

from repro.experiments.cli import main

if __name__ == "__main__":
    sys.exit(main())
