"""Linear canonical transform engine and nonuniform multiresolution toolkit."""

import os

__version__ = "0.1.0"


def thread_cap() -> int:
    """LCT_NUMRA_THREADS as a positive integer, or 0 when it is unset, empty, not an
    integer or <= 0.  This package's ``__init__`` imports nothing numerical, so the CLI
    reads the cap before numpy loads."""
    try:
        return max(int(os.environ.get("LCT_NUMRA_THREADS") or 0), 0)
    except ValueError:
        return 0
