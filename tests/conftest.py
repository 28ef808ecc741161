"""Hypothesis profiles.

`ci` searches harder than a local run: more examples and no deadline.
Select it with `pytest --hypothesis-profile=ci`; without the option the
hypothesis default applies.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
