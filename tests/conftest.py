"""Settings shared by the whole suite.

One hypothesis profile turns off the per-example deadline: many property tests
run a certified leakage solve or a stack of eigendecompositions per example,
and a first call that imports and warms numpy can exceed the default 200 ms.
"""

from hypothesis import settings

settings.register_profile("gentleleak", deadline=None)
settings.load_profile("gentleleak")
