"""Set-up shared by the test modules."""

import contextlib
import warnings

# When a property test fails, hypothesis's report imports
# hypothesis.extra._patching, which imports libcst, and that import raises a
# DeprecationWarning (mypy_extensions.TypedDict). Under `-W error` the warning
# escapes the report and ends the run in INTERNALERROR, hiding the failure.
# Importing the module once here, with DeprecationWarning ignored for this
# import alone, lets the report name the failing test and its example.
# Without libcst the report skips the module, and so does this import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
