"""Settings shared by every test module."""

from hypothesis import settings

# every run draws the same examples: no random seed, and no example
# database replaying what earlier runs found
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
