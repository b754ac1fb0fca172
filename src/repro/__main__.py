"""``python -m repro``: the ``rrmp`` command line."""
from repro.cli import main
raise SystemExit(main())
