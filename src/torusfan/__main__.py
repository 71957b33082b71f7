"""``python -m torusfan``: the command-line interface of ``torusfan.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
