"""`python -m binexceed.cli`: the same front end as the `binexceed` command."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
