"""Memory-system timing model (§7.3 configuration)."""

from repro.sim.memsys import (
    MemoryConfig,
    MemorySystem,
    PERFECT_MEMORY,
    REALISTIC_MEMORY,
)


class TestPerfect:
    def test_constant_latency(self):
        system = MemorySystem(PERFECT_MEMORY)
        for now in (0, 5, 100):
            start, done = system.issue(now, 0x2000, 4, is_write=False)
            assert start == now
            assert done == now + PERFECT_MEMORY.perfect_latency

    def test_no_port_contention(self):
        system = MemorySystem(PERFECT_MEMORY)
        dones = [system.issue(0, 0x2000 + i, 4, False)[1] for i in range(16)]
        assert len(set(dones)) == 1


class TestHierarchy:
    def test_cold_miss_pays_full_path(self):
        system = MemorySystem(REALISTIC_MEMORY)
        _, done = system.issue(0, 0x2000, 4, is_write=False)
        config = REALISTIC_MEMORY
        minimum = config.l1_hit + config.l2_hit + config.mem_latency
        assert done >= minimum

    def test_hit_after_fill_is_fast(self):
        system = MemorySystem(REALISTIC_MEMORY)
        _, first = system.issue(0, 0x2000, 4, is_write=False)
        start, second = system.issue(first, 0x2000, 4, is_write=False)
        assert second - start <= REALISTIC_MEMORY.l1_hit + REALISTIC_MEMORY.tlb_miss

    def test_same_line_hits(self):
        system = MemorySystem(REALISTIC_MEMORY)
        _, first = system.issue(0, 0x2000, 4, is_write=False)
        start, second = system.issue(first, 0x2004, 4, is_write=False)
        assert (second - start) <= REALISTIC_MEMORY.l1_hit

    def test_tlb_miss_cost(self):
        system = MemorySystem(REALISTIC_MEMORY)
        system.issue(0, 0x2000, 4, False)
        baseline = system.stats.tlb_misses
        system.issue(1000, 0x2000 + 65 * 4096, 4, False)
        assert system.stats.tlb_misses == baseline + 1

    def test_l1_capacity_eviction(self):
        system = MemorySystem(REALISTIC_MEMORY)
        config = REALISTIC_MEMORY
        lines = config.l1_size // config.l1_line
        # Touch 3x the L1 capacity within one page set, then re-touch the
        # first line: it must have been evicted from L1 (L2 or memory).
        now = 0
        for i in range(3 * lines):
            _, now = system.issue(now, 0x2000 + i * config.l1_line, 4, False)
        before_l1 = system.stats.l1_hits
        system.issue(now, 0x2000, 4, False)
        assert system.stats.l1_hits == before_l1

    def test_port_contention_serializes(self):
        config = REALISTIC_MEMORY.with_ports(1)
        system = MemorySystem(config)
        starts = [system.issue(0, 0x2000 + i * 4, 4, False)[0]
                  for i in range(4)]
        assert starts == [0, 1, 2, 3]

    def test_more_ports_more_throughput(self):
        two = MemorySystem(REALISTIC_MEMORY.with_ports(2))
        starts = [two.issue(0, 0x2000 + i * 4, 4, False)[0] for i in range(4)]
        assert starts == [0, 0, 1, 1]

    def test_lsq_occupancy_limits_inflight(self):
        config = MemoryConfig(name="tiny", lsq_entries=2, lsq_ports=4)
        system = MemorySystem(config)
        # Fill the LSQ with two slow misses, the third must start later.
        system.issue(0, 0x2000, 4, False)
        system.issue(0, 0x9000, 4, False)
        start, _ = system.issue(0, 0x11000, 4, False)
        assert start > 0


class TestConfig:
    def test_with_ports_renames(self):
        config = REALISTIC_MEMORY.with_ports(4)
        assert config.lsq_ports == 4
        assert "4port" in config.name
