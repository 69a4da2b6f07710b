"""``python3 benchmarks/e2e`` or ``python -m benchmarks.e2e``."""

import sys
from pathlib import Path

if not __package__:
    # Run as a directory: import the package from the checkout root.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
