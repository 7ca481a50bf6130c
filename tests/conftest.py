import sys
import warnings
from pathlib import Path

# allow running the tests from a fresh checkout without installing
src = Path(__file__).resolve().parent.parent / "src"
if str(src) not in sys.path:
    sys.path.insert(0, str(src))

# Hypothesis's failure report imports hypothesis.extra._patching, which
# imports libcst, and that import raises a DeprecationWarning: under
# -W error a failing property test ended in an INTERNALERROR instead of
# its falsifying example.  Import it once here with that warning ignored;
# every other warning stays an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis or no libcst: nothing to report through
        pass
