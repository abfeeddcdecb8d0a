"""``python -m datawords``: the command line of ``datawords.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
