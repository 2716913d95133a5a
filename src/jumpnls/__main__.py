"""``python -m jumpnls``: the command line front end of ``jumpnls.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
