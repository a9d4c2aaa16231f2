"""Tests for the Table 2 function suite."""

import pytest

from repro.errors import ConfigurationError
from repro.workloads.profiles import LANG_GO, LANG_NODEJS, LANG_PYTHON
from repro.workloads.suite import (
    BY_ABBREV,
    REPRESENTATIVES,
    SUITE,
    build_suite,
    get_profile,
    suite_subset,
)


class TestSuiteComposition:
    def test_twenty_functions(self):
        assert len(SUITE) == 20

    def test_language_counts_match_table2(self):
        by_lang = {}
        for p in SUITE:
            by_lang.setdefault(p.language, []).append(p)
        assert len(by_lang[LANG_PYTHON]) == 5
        assert len(by_lang[LANG_NODEJS]) == 5
        assert len(by_lang[LANG_GO]) == 10

    def test_abbreviations_unique(self):
        assert len(BY_ABBREV) == 20

    def test_abbrev_suffix_matches_language(self):
        suffix = {LANG_PYTHON: "P", LANG_NODEJS: "N", LANG_GO: "G"}
        for p in SUITE:
            assert p.abbrev.endswith("-" + suffix[p.language])

    def test_table2_names_present(self):
        expected = {
            "Fib-P", "AES-P", "Auth-P", "Email-P", "RecO-P",
            "Fib-N", "AES-N", "Auth-N", "Curr-N", "Pay-N",
            "Fib-G", "AES-G", "Auth-G", "Geo-G", "ProdL-G",
            "Prof-G", "Rate-G", "RecH-G", "User-G", "Ship-G",
        }
        assert set(BY_ABBREV) == expected

    def test_hotel_reservation_functions(self):
        hotel = [p for p in SUITE if p.application == "Hotel Reservation"]
        assert {p.abbrev for p in hotel} == {
            "Geo-G", "Prof-G", "Rate-G", "RecH-G", "User-G"}

    def test_representatives_cover_all_languages(self):
        langs = {get_profile(a).language for a in REPRESENTATIVES}
        assert langs == {LANG_PYTHON, LANG_NODEJS, LANG_GO}


class TestCalibrationInvariants:
    """Structural facts the paper's results depend on."""

    def test_footprints_in_fig6a_range(self):
        for p in SUITE:
            assert 300 <= p.footprint_kb <= 820, p.abbrev

    def test_go_functions_are_smallest(self):
        go_max = max(p.footprint_kb for p in SUITE if p.language == LANG_GO)
        other_mean = sum(p.footprint_kb for p in SUITE
                         if p.language != LANG_GO) / 10
        assert go_max < other_mean + 100

    def test_go_density_highest(self):
        go = min(p.density for p in SUITE if p.language == LANG_GO)
        others = max(p.density for p in SUITE if p.language != LANG_GO)
        assert go > others

    def test_aes_most_loopy_per_language(self):
        for lang in (LANG_PYTHON, LANG_NODEJS, LANG_GO):
            profiles = [p for p in SUITE if p.language == lang]
            aes = next(p for p in profiles if p.abbrev.startswith("AES"))
            assert aes.loopiness == max(p.loopiness for p in profiles)

    def test_auth_least_loopy_per_language(self):
        for lang in (LANG_PYTHON, LANG_NODEJS, LANG_GO):
            profiles = [p for p in SUITE if p.language == lang]
            auth = next(p for p in profiles if p.abbrev.startswith("Auth"))
            assert auth.loopiness == min(p.loopiness for p in profiles)

    def test_payn_has_largest_data_ws(self):
        pay = get_profile("Pay-N")
        assert pay.data_ws_kb == max(p.data_ws_kb for p in SUITE)

    def test_data_ws_smaller_than_instruction_footprint(self):
        """Sec. 2.4: instruction working sets exceed data working sets."""
        for p in SUITE:
            assert p.data_ws_kb < p.footprint_kb


class TestLookups:
    def test_get_profile(self):
        assert get_profile("Auth-G").name == "Authentication"

    def test_get_profile_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown function"):
            get_profile("Nope-X")

    def test_suite_subset_none_returns_all(self):
        assert len(suite_subset(None)) == 20

    def test_suite_subset_preserves_order(self):
        subset = suite_subset(["Pay-N", "Fib-P"])
        assert [p.abbrev for p in subset] == ["Pay-N", "Fib-P"]

    def test_suite_subset_rejects_a_repeated_function(self):
        """A repeat would be swept, and weighed in every aggregate, twice."""
        with pytest.raises(ConfigurationError,
                           match="listed more than once: Fib-P$"):
            suite_subset(["Fib-P", "Pay-N", "Fib-P"])

    def test_build_suite_fresh_instances(self):
        assert build_suite() == build_suite()
