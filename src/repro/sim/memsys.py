"""The memory-system timing model of §7.3.

The paper evaluates "several memory systems, ranging from perfect memory to
a realistic memory system with two levels of cache":

- all memory operations enter a load-store queue with a finite number of
  ports and finite size;
- L1: 8 KB, 2-cycle hit; L2: 256 KB, 8-cycle hit;
- main memory: 72-cycle latency, 4 cycles between consecutive words,
  dual-ported;
- data TLB: 64 pages, 30-cycle miss.

Timing is modeled, contents are not: the functional value of every access
comes from the :class:`~repro.sim.memory_image.MemoryImage`; this module
only answers "when does this access complete?". Caches are line-grained
LRU; stores are write-allocate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MemoryConfig:
    """Parameters for one memory-system configuration."""

    name: str
    perfect: bool = False
    perfect_latency: int = 1
    lsq_entries: int = 32
    lsq_ports: int = 2
    l1_size: int = 8 * 1024
    l1_line: int = 32
    l1_assoc: int = 2
    l1_hit: int = 2
    l2_size: int = 256 * 1024
    l2_line: int = 32
    l2_assoc: int = 4
    l2_hit: int = 8
    mem_latency: int = 72
    mem_word_interval: int = 4
    mem_ports: int = 2
    tlb_entries: int = 64
    page_size: int = 4096
    tlb_miss: int = 30

    def with_ports(self, ports: int) -> "MemoryConfig":
        return replace(self, name=f"{self.name}-{ports}port", lsq_ports=ports)


PERFECT_MEMORY = MemoryConfig(name="perfect", perfect=True)
REALISTIC_MEMORY = MemoryConfig(name="realistic")
# The bandwidth sweep of Figure 19's rightmost bars.
REALISTIC_1PORT = REALISTIC_MEMORY.with_ports(1)
REALISTIC_2PORT = REALISTIC_MEMORY.with_ports(2)
REALISTIC_4PORT = REALISTIC_MEMORY.with_ports(4)

#: Every memory system addressable by name — the single registry behind
#: the CLI ``--memory`` choices and the service protocol's ``memsys``
#: request field.
NAMED_SYSTEMS: dict[str, MemoryConfig] = {
    "perfect": PERFECT_MEMORY,
    "realistic": REALISTIC_MEMORY,
    "realistic-1port": REALISTIC_1PORT,
    "realistic-2port": REALISTIC_2PORT,
    "realistic-4port": REALISTIC_4PORT,
}


def named_system(name: str) -> MemoryConfig:
    """Resolve a memory-system name; raises ``KeyError`` with choices."""
    try:
        return NAMED_SYSTEMS[name]
    except KeyError:
        raise KeyError(f"unknown memory system {name!r} "
                       f"(one of {sorted(NAMED_SYSTEMS)})") from None


class _Cache:
    """A set-associative, line-grained LRU cache (timing only)."""

    def __init__(self, size: int, line: int, assoc: int):
        self.line = line
        self.assoc = assoc
        self.sets = max(1, size // (line * assoc))
        self._lines: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.sets)
        ]

    def lookup(self, addr: int) -> bool:
        """Probe (and on miss, fill) the line holding ``addr``."""
        tag = addr // self.line
        bucket = self._lines[tag % self.sets]
        if tag in bucket:
            bucket.move_to_end(tag)
            return True
        bucket[tag] = None
        if len(bucket) > self.assoc:
            bucket.popitem(last=False)
        return False


class _Tlb:
    def __init__(self, entries: int, page_size: int):
        self.entries = entries
        self.page_size = page_size
        self._pages: OrderedDict[int, None] = OrderedDict()

    def lookup(self, addr: int) -> bool:
        page = addr // self.page_size
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self._pages[page] = None
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)
        return False


@dataclass
class MemoryStats:
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    mem_accesses: int = 0
    tlb_misses: int = 0
    port_stall_cycles: int = 0
    # Extra cycles added by deterministic fault injection (latency jitter
    # and spikes + LSQ stall windows); zero when no injector is attached.
    injected_cycles: int = 0


class MemorySystem:
    """Stateful timing model; both interpreters share this interface.

    :meth:`issue` answers the dataflow simulator: given an arrival time it
    returns (start, completion), modeling LSQ port contention and DRAM port
    contention. :meth:`access` is the serialized convenience wrapper used by
    the sequential interpreter.
    """

    def __init__(self, config: MemoryConfig, faults=None, probes=None):
        self.config = config
        self.stats = MemoryStats()
        # Optional deterministic fault injector (duck-typed: a
        # resilience.faults.FaultInjector). Timing-only: adds cycles to
        # hierarchy levels and LSQ acquisition, never touches values.
        self.faults = faults
        # Optional observe.probes.ProbeBus; the dataflow simulator shares
        # its bus here so mem_access/lsq hooks see every access.
        self.probes = probes
        self._l1 = _Cache(config.l1_size, config.l1_line, config.l1_assoc)
        self._l2 = _Cache(config.l2_size, config.l2_line, config.l2_assoc)
        self._tlb = _Tlb(config.tlb_entries, config.page_size)
        # Earliest time each LSQ port / memory port is free again.
        self._lsq_free = [0] * max(1, config.lsq_ports)
        self._mem_free = [0] * max(1, config.mem_ports)
        # Completion times of in-flight operations, bounding LSQ occupancy.
        self._inflight: list[int] = []

    # ------------------------------------------------------------------

    def issue(self, now: int, addr: int, width: int, is_write: bool) -> tuple[int, int]:
        """Schedule an access arriving at ``now``; return (start, done)."""
        self.stats.accesses += 1
        if self.config.perfect:
            extra = self._injected("perfect")
            done = now + self.config.perfect_latency + extra
            if self.probes is not None and self.probes.mem_access is not None:
                self.probes.mem_access(now, now, done, addr, width, is_write,
                                       "perfect", False)
            return now, done
        start = self._acquire_lsq(now)
        latency, level, tlb_miss = self._latency(start, addr, width)
        done = start + latency
        self._inflight.append(done)
        if self.probes is not None and self.probes.mem_access is not None:
            self.probes.mem_access(now, start, done, addr, width, is_write,
                                   level, tlb_miss)
        return start, done

    def perfect_issue(self):
        """A prebound ``now -> done`` fast path for perfect memory.

        Perfect memory with no faults and no probes reduces :meth:`issue`
        to ``done = now + perfect_latency`` plus the access counter; the
        compiled engine binds the returned callable into its load/store
        closures so the hot path skips the hierarchy bookkeeping and the
        probe/fault guards entirely. Returns ``None`` whenever the full
        :meth:`issue` semantics are needed (realistic hierarchy, an
        injector, or a subscribed probe bus) — callers must re-request it
        after attaching either.
        """
        if not self.config.perfect or self.faults is not None \
                or self.probes is not None:
            return None
        stats = self.stats
        latency = self.config.perfect_latency

        def issue(now: int) -> int:
            stats.accesses += 1
            return now + latency
        return issue

    def _injected(self, level: str) -> int:
        if self.faults is None:
            return 0
        extra = self.faults.memory_extra(level)
        self.stats.injected_cycles += extra
        return extra

    def access(self, now: int, addr: int, width: int, is_write: bool) -> int:
        """Serialized access latency (sequential interpreter)."""
        start, done = self.issue(now, addr, width, is_write)
        return done - now

    # ------------------------------------------------------------------

    def _acquire_lsq(self, now: int) -> int:
        # Occupancy limit: the LSQ holds at most lsq_entries in flight.
        if len(self._inflight) >= self.config.lsq_entries:
            self._inflight.sort()
            free_at = self._inflight[-self.config.lsq_entries]
            now = max(now, free_at)
            self._inflight = [t for t in self._inflight if t > now]
        # Injected arbitration hiccup: the access waits before bidding.
        if self.faults is not None:
            stall = self.faults.lsq_stall()
            self.stats.injected_cycles += stall
            now += stall
        # One access per port per cycle.
        port = min(range(len(self._lsq_free)), key=lambda i: self._lsq_free[i])
        start = max(now, self._lsq_free[port])
        self.stats.port_stall_cycles += start - now
        self._lsq_free[port] = start + 1
        if self.probes is not None and self.probes.lsq is not None:
            self.probes.lsq(now, len(self._inflight), start - now)
        return start

    def _latency(self, start: int, addr: int,
                 width: int) -> tuple[int, str, bool]:
        """(latency, hierarchy level that served it, tlb missed?)."""
        latency = 0
        tlb_miss = not self._tlb.lookup(addr)
        if tlb_miss:
            self.stats.tlb_misses += 1
            latency += self.config.tlb_miss + self._injected("tlb")
        if self._l1.lookup(addr):
            self.stats.l1_hits += 1
            return (latency + self.config.l1_hit + self._injected("l1"),
                    "l1", tlb_miss)
        latency += self.config.l1_hit
        if self._l2.lookup(addr):
            self.stats.l2_hits += 1
            return (latency + self.config.l2_hit + self._injected("l2"),
                    "l2", tlb_miss)
        latency += self.config.l2_hit
        latency += self._injected("mem")
        # Line fill from memory: first word after mem_latency, the rest of
        # the line streams at word_interval; dual-ported DRAM arbitration.
        self.stats.mem_accesses += 1
        words = max(1, self.config.l1_line // 8)
        fill = self.config.mem_latency + (words - 1) * self.config.mem_word_interval
        port = min(range(len(self._mem_free)), key=lambda i: self._mem_free[i])
        begin = max(start + latency, self._mem_free[port])
        self._mem_free[port] = begin + words * self.config.mem_word_interval
        return (begin - start) + fill, "mem", tlb_miss
