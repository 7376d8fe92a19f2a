"""Test-suite settings: every hypothesis test is deterministic by default.

The profile derives each test's examples from the test itself rather than
from a random seed, so tier-1 runs draw the same cases every time; tests
keep their own `max_examples`.  No deadline: a slow shared machine must not
fail an example for its timing.
"""

from hypothesis import settings

settings.register_profile("bfl", derandomize=True, deadline=None)
settings.load_profile("bfl")
