"""``python -m crosscap``: the command-line front end of ``crosscap.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
