"""``python -m cochainlab``: the command line of ``cochainlab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
