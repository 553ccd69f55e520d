"""Test-session settings: hypothesis draws the same examples on every run,
so a tier-1 result is reproducible."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
