"""Pytest bootstrap.

Ensures ``src/`` is importable even when the package has not been
installed (e.g. on fully offline machines where ``pip install -e .``
cannot build an editable wheel).  When the package *is* installed this is
a harmless no-op because the installed location takes precedence only if
it appears earlier on ``sys.path``; inserting at position 0 keeps tests
exercising the checked-out sources.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

