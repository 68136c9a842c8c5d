"""Every run of the golden corpus gives the bytes recorded in
``golden/digests.json`` (see ``golden_corpus``)."""

import pytest

from golden_corpus import CASES, read_digests, run_case

DIGESTS = read_digests()


def test_digests_cover_exactly_the_matrix():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_gives_the_recorded_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]
