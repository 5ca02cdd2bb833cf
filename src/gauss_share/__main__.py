"""`python -m gauss_share`: the same command line as the gauss-share script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
