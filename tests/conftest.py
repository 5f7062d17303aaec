"""Shared pytest set-up: one Hypothesis profile for every property test.

Examples are drawn from a fixed seed (derandomize), never timed out and not
replayed from an example database, so the property tests give the same
verdict on every run, however busy the machine is.
"""

from hypothesis import settings

settings.register_profile("tvnet", deadline=None, derandomize=True,
                          max_examples=60, database=None)
settings.load_profile("tvnet")
