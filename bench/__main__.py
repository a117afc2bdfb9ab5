"""``python -m bench`` — run the benchmark (see ``bench/run.py``)."""

import sys

from bench.run import main

if __name__ == "__main__":
    sys.exit(main())
