"""`python3 -m matchcount ...` runs the command line, as `matchcount ...` does."""

import sys

from .cli import main

sys.exit(main())
