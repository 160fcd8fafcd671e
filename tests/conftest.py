"""Shared pytest configuration for the tier-1 suite.

With the ``CI`` environment variable set, hypothesis loads the ``ci``
profile: a failing property prints the ``@reproduce_failure`` blob of
its example in the log, so the failure can be replayed locally.  The
profile changes nothing else: it extends the profile already active
(hypothesis's own ``ci`` profile where the installed version has one),
and each test's ``max_examples`` and ``deadline`` stay as its
``@settings`` give them.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
