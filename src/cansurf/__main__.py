"""``python -m cansurf``: the same command line as the ``cansurf`` script."""

import sys

from .cli import main

sys.exit(main())
