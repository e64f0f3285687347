"""Hypothesis draws the same examples on every run, so tier-1 results
repeat exactly, as the library's own outputs do."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
