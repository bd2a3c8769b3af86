"""Test-suite settings: hypothesis draws the same examples on every run."""

from hypothesis import settings

# derandomize: examples come from a hash of each test, so a run on a slow or
# busy host tests exactly what any other run tests; deadline=None: a slow
# example is not a failure.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
