"""Import first: pins BLAS to one thread and imports pqgen from this checkout.

BLAS libraries read their thread count when numpy loads, so this module must
be imported before anything that imports numpy. The program itself is left
alone; only the benchmark's interpreter is pinned.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (ROOT, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    import pqgen
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import pqgen from {SRC}: {exc}")
if not os.path.abspath(pqgen.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"perfbench: imported pqgen from {pqgen.__file__}, not from {SRC}")
