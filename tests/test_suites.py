"""The failure-search helper the verification suites are built on."""

from fusion_positivity.suites import first_failure


def test_first_failure_stops_at_first_failure():
    def cases():
        yield None
        yield "first"
        raise AssertionError("read past the first failure")

    assert first_failure(cases()) == ("first", 2)


def test_first_failure_counts_passing_cases():
    assert first_failure(None for _ in range(5)) == (None, 5)
    assert first_failure(iter(())) == (None, 0)
