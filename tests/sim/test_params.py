"""Tests for machine parameter definitions (Table 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.params import (
    CacheParams,
    CoreParams,
    JukeboxParams,
    MODE_CHARACTERIZATION,
    MODE_EVALUATION,
    MemoryParams,
    TLBParams,
    broadwell,
    core_params_for_mode,
    skylake,
)
from repro.units import KB, MB


class TestCacheParams:
    def test_num_sets(self):
        c = CacheParams("L1I", size=32 * KB, assoc=8, latency=4)
        assert c.num_sets == 64
        assert c.num_lines == 512

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            CacheParams("X", size=1000, assoc=8, latency=1)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheParams("X", size=3 * 64 * 8, assoc=8, latency=1)


class TestTLBParams:
    def test_num_sets(self):
        t = TLBParams("ITLB", entries=128, assoc=8)
        assert t.num_sets == 16

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            TLBParams("X", entries=100, assoc=8)


class TestJukeboxParams:
    def test_table1_defaults(self):
        jb = JukeboxParams()
        assert jb.crrb_entries == 16
        assert jb.region_size == 1 * KB
        assert jb.metadata_bytes == 16 * KB
        assert jb.lines_per_region == 16

    def test_rejects_tiny_region(self):
        with pytest.raises(ConfigurationError):
            JukeboxParams(region_size=32)

    def test_rejects_non_power_of_two_region(self):
        with pytest.raises(ConfigurationError):
            JukeboxParams(region_size=1500)

    def test_rejects_empty_crrb(self):
        with pytest.raises(ConfigurationError):
            JukeboxParams(crrb_entries=0)


class TestSkylakeTable1:
    """Table 1 of the paper, literally."""

    def test_l1i(self):
        assert skylake().l1i.size == 32 * KB
        assert skylake().l1i.assoc == 8
        assert skylake().l1i.latency == 4

    def test_l2_is_1mb(self):
        assert skylake().l2.size == 1 * MB
        assert skylake().l2.assoc == 8

    def test_llc_is_8mb_16way(self):
        assert skylake().llc.size == 8 * MB
        assert skylake().llc.assoc == 16

    def test_core(self):
        assert skylake().core.freq_ghz == 2.6
        assert skylake().core.fetch_bytes_per_cycle == 16
        assert skylake().core.rob_entries == 224
        assert skylake().core.btb_entries == 8192

    def test_jukebox_defaults(self):
        assert skylake().jukebox.metadata_bytes == 16 * KB


class TestBroadwell:
    def test_small_l2(self):
        assert broadwell().l2.size == 256 * KB

    def test_larger_metadata_store(self):
        """Sec. 5.6: Broadwell needs 32KB metadata per phase."""
        assert broadwell().jukebox.metadata_bytes == 32 * KB

    def test_default_mode_is_characterization(self):
        char = core_params_for_mode(MODE_CHARACTERIZATION, freq_ghz=2.4)
        assert broadwell().core.inst_stall_onchip == char.inst_stall_onchip


class TestModes:
    def test_modes_differ(self):
        ev = core_params_for_mode(MODE_EVALUATION)
        ch = core_params_for_mode(MODE_CHARACTERIZATION)
        assert ev.inst_stall_onchip < ch.inst_stall_onchip
        assert ev.inst_stall_dram < ch.inst_stall_dram

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            core_params_for_mode("bogus")

    def test_skylake_accepts_mode(self):
        m = skylake(mode=MODE_CHARACTERIZATION)
        assert m.core.inst_stall_onchip == core_params_for_mode(
            MODE_CHARACTERIZATION).inst_stall_onchip

    def test_broadwell_evaluation_mode(self):
        m = broadwell(mode=MODE_EVALUATION)
        assert m.core.inst_stall_onchip == core_params_for_mode(
            MODE_EVALUATION).inst_stall_onchip


class TestMachineHelpers:
    def test_with_jukebox_replaces_only_jukebox(self):
        jb = JukeboxParams(metadata_bytes=8 * KB)
        base = skylake()
        m = base.with_jukebox(jb)
        assert m.jukebox.metadata_bytes == 8 * KB
        assert m.l2.size == base.l2.size
        assert base.jukebox.metadata_bytes == 16 * KB  # original untouched

    @pytest.mark.parametrize("factory", [skylake, broadwell])
    def test_factory_takes_a_jukebox_override(self, factory):
        jb = JukeboxParams(metadata_bytes=4 * KB, crrb_entries=8)
        m = factory(jukebox=jb)
        assert m.jukebox == jb
        assert m.l2 == factory().l2

    @pytest.mark.parametrize("factory", [skylake, broadwell])
    def test_latency_ladder_monotone(self, factory):
        m = factory()
        assert m.l1i.latency < m.l2.latency <= m.llc.latency
        assert m.l2.latency + m.llc.latency < m.memory.latency
        assert m.memory.row_hit_latency < m.memory.latency


class TestValidationMessages:
    """Malformed params raise ``ConfigurationError`` with actionable
    messages."""

    def test_cache_zero_assoc(self):
        with pytest.raises(ConfigurationError,
                           match="associativity must be >= 1"):
            CacheParams("L1I", size=32 * KB, assoc=0, latency=4)

    def test_cache_non_power_of_two_line_size(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            CacheParams("L1I", size=48 * 48 * 8, assoc=8, latency=4,
                        line_size=48)

    def test_cache_negative_latency(self):
        with pytest.raises(ConfigurationError, match="latency must be >= 0"):
            CacheParams("L2", size=1 * MB, assoc=8, latency=-1)

    def test_cache_zero_mshrs(self):
        with pytest.raises(ConfigurationError, match="MSHR count must be > 0"):
            CacheParams("LLC", size=8 * MB, assoc=16, latency=36, mshrs=0)

    def test_cache_message_names_the_level(self):
        with pytest.raises(ConfigurationError, match="LLC"):
            CacheParams("LLC", size=8 * MB, assoc=16, latency=36, mshrs=0)

    def test_tlb_zero_assoc(self):
        with pytest.raises(ConfigurationError,
                           match="associativity must be >= 1"):
            TLBParams("ITLB", entries=128, assoc=0)

    def test_tlb_negative_walk_latency(self):
        with pytest.raises(ConfigurationError, match="page-walk latency"):
            TLBParams("DTLB", entries=64, assoc=4, walk_latency=-5)

    def test_memory_zero_latency(self):
        with pytest.raises(ConfigurationError,
                           match="latencies must be positive"):
            MemoryParams(latency=0)

    def test_memory_row_hit_slower_than_row_miss(self):
        with pytest.raises(ConfigurationError, match="cannot exceed"):
            MemoryParams(latency=100, row_hit_latency=150)

    def test_memory_zero_bandwidth(self):
        with pytest.raises(ConfigurationError,
                           match="bandwidth must be positive"):
            MemoryParams(bytes_per_cycle=0.0)

    def test_core_zero_issue_width(self):
        with pytest.raises(ConfigurationError, match="widths must be >= 1"):
            CoreParams(issue_width=0)

    def test_core_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"lie in \[0, 1\]"):
            CoreParams(data_overlap=1.3)

    def test_core_negative_fraction(self):
        with pytest.raises(ConfigurationError, match="inst_stall_dram"):
            CoreParams(inst_stall_dram=-0.1)
