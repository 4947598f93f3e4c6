"""Make the benchmark's modules and the program importable from a checkout.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
for path in (os.path.join(os.path.dirname(_BENCH), "src"), _BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
