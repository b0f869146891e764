"""`python -m modsymdist`: the same command line as the installed console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
