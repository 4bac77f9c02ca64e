"""Suite-wide settings.

Hypothesis runs under a registered profile with a fixed example count and
derandomized generation, so every property test checks the same examples
on every run.
"""

from hypothesis import settings

settings.register_profile("rpwf", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("rpwf")
