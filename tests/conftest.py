"""Shared test settings: property tests run on hypothesis's fixed
(derandomized) example sequence, so every run, local or CI, tries the same
inputs and a failure reproduces."""

from hypothesis import settings

settings.register_profile("egm", derandomize=True, database=None, deadline=None)
settings.load_profile("egm")
