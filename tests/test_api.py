"""The package's public names."""

from collections import Counter

import crtgee


def test_every_public_name_resolves_and_is_listed_once():
    assert [n for n, count in Counter(crtgee.__all__).items() if count > 1] == []
    assert [n for n in crtgee.__all__ if not hasattr(crtgee, n)] == []
