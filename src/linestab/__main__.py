"""`python -m linestab ...` runs the command-line frontend."""

import sys

from linestab.cli import main

if __name__ == "__main__":
    sys.exit(main())
