"""Old home of ``tests/serving/test_candidates.py`` (the candidate-table tests).

The tests live with the rest of the serving suite now.  This re-export
only keeps the 21 ids the growth driver's floor list still names at this
path collectable, since a PR may rename just a few floor tests; delete it
when the floor is re-anchored.
"""

from tests.serving.test_candidates import (  # noqa: F401
    TestBuild,
    TestConfig,
    TestServe,
    table,
)
