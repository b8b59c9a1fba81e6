"""Run the command line: python -m threesquares <subcommand> ..."""

import sys

from .cli import main

sys.exit(main())
