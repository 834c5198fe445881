"""Test-suite settings: hypothesis runs from a fixed seed with no deadline,
so a fuzzing failure reproduces on every run and a slow host cannot turn a
passing example into a timeout."""

from hypothesis import settings

settings.register_profile("linepierce", derandomize=True, deadline=None)
settings.load_profile("linepierce")
