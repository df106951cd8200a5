"""Every named invariant of ``descattn verify`` as one pytest id.

``verify.CHECKS`` is the single list; each entry runs here at seed 0, the
``descattn verify`` default, so the CLI and pytest check the same things.
"""

import pytest

from descattn import verify

NAMES = [name for name, _ in verify.CHECKS]


def test_names_are_unique():
    assert len(set(NAMES)) == len(NAMES)


@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS], ids=NAMES)
def test_check(check):
    check(seed=0)
