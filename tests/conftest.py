"""Test-session settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failing run
# replays exactly; no deadline, since timings vary with the machine.
settings.register_profile("protolab", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("protolab")
