"""Import plasthom from the source tree of the checkout this directory sits in.

The benchmark never uses an installed copy: it puts ``<checkout>/src`` first
on ``sys.path`` and refuses to run if ``plasthom`` still resolves elsewhere,
so a directory holding only the benchmark fails instead of measuring some
other build.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source():
    """Make ``import plasthom`` load ``<checkout>/src/plasthom``; exit with a message otherwise."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import plasthom
    except ImportError as exc:
        sys.exit(f"bench: cannot import plasthom from {SRC}: {exc}")
    origin = Path(plasthom.__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"bench: plasthom resolved to {origin}, not under {SRC}")
