"""``python -m influnet``: the same command line as the ``influnet`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
