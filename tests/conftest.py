"""Hypothesis profiles.

`ci` sets no deadline and 1000 examples.  Select it with `pytest
--hypothesis-profile=ci`; without the option the hypothesis default
applies.  A test's own `@settings(max_examples=...)` overrides the
profile's count, so under `ci` only the property tests that pin no
count search harder; the pinned ones keep their counts, which are
Tier-1's time budget.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
