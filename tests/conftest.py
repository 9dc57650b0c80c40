import hypothesis
import pytest

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
