"""``python -m picardlab``: the command-line entry point of :mod:`picardlab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
