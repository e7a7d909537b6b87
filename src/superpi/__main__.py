"""python -m superpi: the superpi command line, for checkouts without the script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
