"""Tests for SystemConfig: Table 1 defaults, derived geometry, presets."""

import math

import pytest

from repro.config import SystemConfig, _mesh_dims


class TestTable1Defaults:
    def test_table1_values(self):
        c = SystemConfig.paper()
        assert c.line_size == 128
        assert c.cache_size == 128 * 1024
        assert c.mem_setup == 20
        assert c.mem_bw == 2.0
        assert c.bus_bw == 2.0
        assert c.net_bw == 2.0
        assert c.switch_latency == 2
        assert c.wire_latency == 1
        assert c.notice_cost == 4
        assert c.lrc_dir_cost == 25
        assert c.erc_dir_cost == 15

    def test_default_machine_is_64_nodes(self):
        assert SystemConfig().n_procs == 64

    def test_buffer_defaults(self):
        c = SystemConfig()
        assert c.wb_entries == 4
        assert c.cbuf_entries == 16


class TestWorkedExample:
    """Section 3 computes a 272-cycle uncontended fill at 10 hops."""

    def test_fill_cost_matches_paper_at_10_hops(self):
        # Build a machine wide enough to contain a 10-hop pair.
        c = SystemConfig(n_procs=64)
        # 8x8 mesh: (0,0) -> (5,5) is 10 hops.
        src, dst = 0, 5 * 8 + 5
        assert c.hops(src, dst) == 10
        assert c.transit(src, dst, 0) == 30
        assert c.memory_time(128) == 84
        assert c.transit(dst, src, 128) == 94
        assert c.bus_time(128) == 64
        assert c.line_fill_cost(src, dst) == 272

    def test_memory_time_components(self):
        c = SystemConfig()
        assert c.memory_time(0) == 20
        assert c.memory_time(2) == 21


class TestGeometry:
    def test_n_sets(self):
        assert SystemConfig().n_sets == 1024
        assert SystemConfig.scaled(cache_size=8 * 1024).n_sets == 64

    def test_line_shift(self):
        c = SystemConfig()
        assert 1 << c.line_shift == c.line_size

    def test_mesh_dims_square(self):
        assert SystemConfig(n_procs=64).mesh_dims == (8, 8)
        assert SystemConfig(n_procs=16).mesh_dims == (4, 4)

    def test_mesh_dims_nonsquare(self):
        assert _mesh_dims(8) == (2, 4)
        assert _mesh_dims(2) == (1, 2)
        assert _mesh_dims(1) == (1, 1)

    def test_hops_self_is_zero(self):
        c = SystemConfig(n_procs=16)
        for i in range(16):
            assert c.hops(i, i) == 0

    def test_hops_symmetric(self):
        c = SystemConfig(n_procs=16)
        for a in range(16):
            for b in range(16):
                assert c.hops(a, b) == c.hops(b, a)


class TestPresets:
    def test_future_machine(self):
        c = SystemConfig.future()
        assert c.mem_setup == 40
        assert c.mem_bw == 4.0
        assert c.net_bw == 4.0
        assert c.line_size == 256

    def test_future_overrides_respected(self):
        c = SystemConfig.future(line_size=128)
        assert c.line_size == 128
        assert c.mem_setup == 40

    def test_with_returns_modified_copy(self):
        a = SystemConfig()
        b = a.with_(line_size=256)
        assert a.line_size == 128
        assert b.line_size == 256

    def test_config_hashable(self):
        assert hash(SystemConfig()) == hash(SystemConfig())
        assert SystemConfig() == SystemConfig()


class TestValidation:
    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            SystemConfig(line_size=100)

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            SystemConfig(n_procs=0)

    def test_rejects_misaligned_cache(self):
        with pytest.raises(ValueError):
            SystemConfig(cache_size=1000)

    def test_rejects_bad_buffers(self):
        with pytest.raises(ValueError):
            SystemConfig(wb_entries=0)

    @pytest.mark.parametrize("word_size", (4, 16))
    def test_rejects_unsupported_word_size(self, word_size):
        # Word indices are computed as (addr >> 3) & word_mask everywhere,
        # so any other word size would replay the wrong word sets.
        with pytest.raises(ValueError, match="word_size"):
            SystemConfig(word_size=word_size)
        assert SystemConfig(word_size=8).word_size == 8
