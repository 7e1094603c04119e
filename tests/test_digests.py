"""Every frozen output is still produced, byte for byte: one case per id of
``frozen_outputs.FROZEN``, which also runs without pytest."""

import pytest

from frozen_outputs import CATALOGUE, DIGESTS, FROZEN, check


@pytest.mark.parametrize("entry_id", sorted(FROZEN))
def test_output_matches_frozen_digest(entry_id):
    assert check(entry_id) is None


def test_every_catalogue_entry_has_a_digest():
    assert sorted(CATALOGUE) == sorted(DIGESTS)
