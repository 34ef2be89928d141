"""``python -m valgrad``: the command-line interface of :mod:`valgrad.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
