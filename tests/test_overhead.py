"""Overhead-formula tests against the reference-scenario constants."""
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semcom.overhead import (REFERENCE_L, REFERENCE_N_B, REFERENCE_N_F,
                             REFERENCE_N_T, REFERENCE_SNR_GRID,
                             c_mpeg, c_sc, c_tc, format_reduction_percent,
                             format_table, reduction_vs_sc, reference_report,
                             report)

COUNTS = ("L", "n_f", "n_t", "n_b", "raw_symbols")

MPEG_EXPECTED = {
    7.0: 356_573_829,
    13.0: 210_237_977,
    19.0: 145_780_221,
    25.0: 111_048_888,
}


class TestFormulas:
    def test_c_sc_reference(self):
        assert c_sc(4840, 1852) == 8_963_680

    def test_c_sc_zero(self):
        assert c_sc(12345, 0) == 0
        assert c_sc(1, 7) == 7

    def test_c_tc_reference(self):
        assert c_tc(4840, 36) == 174_240

    def test_c_tc_zero(self):
        assert c_tc(4840, 0) == 0

    @pytest.mark.parametrize("snr,expected", sorted(MPEG_EXPECTED.items()))
    def test_c_mpeg_reference(self, snr, expected):
        value = c_mpeg(REFERENCE_N_B, snr)
        assert abs(value - expected) / expected < 1e-4   # 0.01%

    def test_c_mpeg_zero_bits(self):
        assert c_mpeg(0, 25.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            c_sc(-1, 1)
        with pytest.raises(ValueError):
            c_tc(1, -1)
        with pytest.raises(ValueError):
            c_mpeg(-1, 7.0)

    @given(st.floats(min_value=-10.0, max_value=39.0))
    def test_c_mpeg_strictly_decreasing(self, gamma):
        assert c_mpeg(10**6, gamma) > c_mpeg(10**6, gamma + 1.0)

    def test_reduction_value(self):
        rep = reference_report()
        red = reduction_vs_sc(rep)
        assert red == pytest.approx(1.0 - 174_240 / 8_963_680, abs=1e-12)
        assert red == pytest.approx(0.980561555, abs=1e-9)

    def test_reduction_formats_like_reference_table(self):
        assert format_reduction_percent(0.980561555) == "98.0%"
        assert format_reduction_percent(0.5) == "50.0%"


class TestReport:
    def test_reference_rows(self):
        rep = reference_report()
        assert rep["L"] == REFERENCE_L
        assert rep["N_f"] == REFERENCE_N_F
        assert rep["N_t"] == REFERENCE_N_T
        assert rep["N_b"] == REFERENCE_N_B
        by_method = {}
        for row in rep["rows"]:
            key = (row["method"], row.get("snr_db"))
            by_method[key] = row["overhead_symbols"]
        for snr, expected in MPEG_EXPECTED.items():
            assert abs(by_method[("MPEG-4", snr)] - expected) / expected < 1e-4
        assert by_method[("HAR-SC", None)] == 8_963_680
        assert by_method[("HAR-SC-TC", None)] == 174_240

    def test_empty_ledger_all_zero(self):
        rep = report(0, L=0, scenario="empty")
        values = [row["overhead_symbols"] for row in rep["rows"]]
        assert values == [0, 0]       # no MPEG rows without a reference size

    def test_mpeg_rows_only_with_reference_bits(self):
        rep = report(2, n_t=1, L=10)
        assert [row["method"] for row in rep["rows"]] == ["HAR-SC", "HAR-SC-TC"]

    def test_tc_never_exceeds_sc_when_nt_bounded(self):
        rep = report(100, n_t=40, L=4840)
        by_method = {row["method"]: row["overhead_symbols"] for row in rep["rows"]}
        assert by_method["HAR-SC-TC"] <= by_method["HAR-SC"]

    def test_negative_counter_rejected(self):
        for name in COUNTS:
            with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
                report(**{"n_f": 0, name: -1})

    @pytest.mark.parametrize("name", COUNTS)
    def test_count_beyond_float64_rejected(self, name):
        # 10**400 once overflowed in c_mpeg (n_b) or reduction_vs_sc (n_t)
        with pytest.raises(ValueError, match=f"^{name} is beyond float64"):
            report(**{"n_f": 1, name: 10**400})

    def test_largest_float64_count_accepted(self):
        top = int(sys.float_info.max)
        rep = report(1, n_t=top, n_b=top)
        assert rep["N_t"] == top
        assert reduction_vs_sc(rep) == pytest.approx(-sys.float_info.max)

    @settings(max_examples=200)
    @given(st.fixed_dictionaries(
        {name: st.integers(0, 10**12) for name in COUNTS}),
        st.sampled_from(COUNTS))
    def test_rows_are_the_formulas(self, counts, negative):
        rep = report(**counts)
        want = [c_mpeg(counts["n_b"], snr) for snr in REFERENCE_SNR_GRID
                if counts["n_b"] > 0]
        want = [int(round(v)) for v in want] + [
            c_sc(counts["L"], counts["n_f"]), c_tc(counts["L"], counts["n_t"])]
        assert [row["overhead_symbols"] for row in rep["rows"]] == want
        counts[negative] = -1 - counts[negative]
        with pytest.raises(ValueError, match=f"^{negative} must be >= 0"):
            report(**counts)

    def test_format_table_contains_values(self):
        text = format_table(reference_report())
        assert "8,963,680" in text
        assert "174,240" in text
        assert "MPEG-4" in text
