import warnings

import hypothesis
import pytest

# A failing @given test has hypothesis import its patch writer for the
# report, and that import (through libcst) raises a DeprecationWarning.
# Under the "error" mark below the warning would end the whole session
# with INTERNALERROR, so the module is imported once here, where its own
# deprecation is no test's warning.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:             # an install without libcst
        pass

# derandomized so every run (and every worker count) sees the same cases;
# no deadline because Fraction arithmetic on big continuants is spiky
hypothesis.settings.register_profile(
    "clgcd",
    derandomize=True,
    deadline=None,
    max_examples=150,
)
hypothesis.settings.load_profile("clgcd")


def pytest_itemcollected(item):
    # every warning raised under tests/ fails its test; a test's own
    # filterwarnings mark still overrides this one
    item.add_marker(pytest.mark.filterwarnings("error"), append=False)
