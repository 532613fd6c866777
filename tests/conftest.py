"""Every hypothesis test draws the same examples on every run: a test
that fails does so again on rerun, and a mutant cannot pass by luck."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
