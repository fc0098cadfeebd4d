"""The recorded byte digest of report, compare() and search outputs still holds."""

import digest


def test_digest_matches_the_recorded_outputs():
    recorded = digest.read_lines()
    current = digest.compute()
    differ = [
        f"{name}: recorded {recorded.get(name)}, now {current.get(name)}"
        for name in sorted(set(recorded) | set(current))
        if recorded.get(name) != current.get(name)
    ]
    assert not differ, "outputs differ from tests/golden/digest.txt:\n" + "\n".join(differ)


def test_digest_covers_reports_compares_and_all_search_targets():
    names = list(digest.read_lines())
    assert sum(n.startswith("report ") for n in names) == 120
    assert sum(n.startswith("compare ") for n in names) >= 40
    assert sum(n.startswith("search ") for n in names) == 2 * 44
