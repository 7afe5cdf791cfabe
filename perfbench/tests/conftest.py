"""Make the benchmark modules and the abcdsim sources importable.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.dirname(HERE), os.path.join(HERE, "..", "..", "src")):
    path = os.path.abspath(path)
    if path not in sys.path:
        sys.path.insert(0, path)
