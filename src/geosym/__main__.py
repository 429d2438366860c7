"""``python -m geosym``: the ``geosym`` command line (see :mod:`geosym.cli`)."""

import sys

from geosym.cli import main

if __name__ == "__main__":
    sys.exit(main())
