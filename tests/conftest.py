"""Test-session settings: property tests run a fixed, bounded set of examples."""

from hypothesis import settings

# derandomize: the examples are a function of the test alone, so every run
# checks the same cases; no example database is written.
settings.register_profile("weaktomo", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("weaktomo")
