"""Test-suite settings: hypothesis runs from a fixed seed with no deadline,
so a fuzzing failure reproduces on every run and a slow host cannot turn a
passing example into a timeout.  The pinned benchmark family is built once
per session for the tests that read all of it."""

from fractions import Fraction

import pytest
from hypothesis import settings

from oracles import prefix

settings.register_profile("linepierce", derandomize=True, deadline=None)
settings.load_profile("linepierce")


@pytest.fixture(scope="session")
def pinned_family():
    """The first 2,000 bodies at delta 1/2: the family whose bytes
    ``tests/test_cli.py::TestConstruct::test_benchmark_bytes_pinned`` pins."""
    return prefix(Fraction(1, 2), 2000)
