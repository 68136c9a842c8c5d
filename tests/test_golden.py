"""Every run of the golden corpus gives the bytes recorded in
``golden/digests.json``, or for a ``TOLERANT`` run the numbers, to a
relative ``REL_TOL`` (see ``golden_corpus``)."""

import pytest

from golden_corpus import CASES, REL_TOL, TOLERANT, read_digests, run_case

DIGESTS = read_digests()


def test_digests_cover_exactly_the_matrix():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES.keys() - TOLERANT))
def test_run_gives_the_recorded_bytes(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TOLERANT))
def test_run_gives_the_recorded_numbers(name, tmp_path):
    record, expected = run_case(name, tmp_path), dict(DIGESTS[name])
    assert record.pop("stdout") == pytest.approx(expected.pop("stdout"), rel=REL_TOL, abs=0.0)
    assert record == expected
