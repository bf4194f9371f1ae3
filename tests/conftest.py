"""Every test starts with an empty batch session, so what a test counts or
reads is not a structure that an earlier test left in ``cli._SESSION``."""

import pytest

from weavent import cli


@pytest.fixture(autouse=True)
def empty_session():
    cli._SESSION.clear()
