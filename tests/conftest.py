"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# reproduces and the suite's run time stays put; no example has a deadline,
# since the oracles walk whole periods.
settings.register_profile("fibword", derandomize=True, deadline=None)
settings.load_profile("fibword")
