"""`python -m hoqiga`: the same command line as the installed `hoqiga` script."""
import sys

from .cli import main

sys.exit(main())
