"""Compiled dataflow execution engine.

Executes a :class:`~repro.sim.plan.SimPlan` with the exact semantics of
:class:`~repro.sim.dataflow.DataflowSimulator` — same cycle counts, fire
counts, memory traffic, probe stream, fault-injection draws, and
deadlock/event-limit/wall-limit behavior — at a fraction of the per-event
cost. The interpreter remains the executable specification; this module
is an optimization, and ``tests/sim/test_engine.py`` holds the two to
bit-identical results across the paper's kernels.

Where the time goes, and what the engine does about it:

- **dispatch**: the interpreter walks an ``isinstance`` chain per firing;
  the engine binds one specialized *fire closure* per node up front.
- **delivery**: the interpreter builds an ``OutPort`` and sorts
  ``graph.uses()`` per emitted value; the engine's events carry prebuilt
  fanout lists of ``(queue.append, fire_closure)`` pairs.
- **constants**: sticky inputs are resolved into per-slot prebound values
  when closures are built, so readiness checks touch only real queues.
- **scheduling**: an integer-bucket calendar queue replaces the binary
  heap for near-future events (latencies are small constants, so almost
  every event lands within a few cycles of "now"), spilling to ``heapq``
  for far-future ones.

Observability and fault injection re-specialize the run: with a probe bus
or an injector attached the engine keeps per-event sequence numbers and a
plain heap (reorder keys and the probe contract are defined in terms of
the interpreter's emit order) and the closures invoke the same
``fire``/``emit``/``enqueue``/``dequeue`` hooks with the same None-guard
contract. Without them, closures skip straight to the queues.

The engine exposes the interpreter's introspection surface — ``graph``,
``probes``, ``_state``, ``_sticky``, ``_sticky_nodes``, ``_now``,
``_fired``, ``_events`` — so deadlock forensics
(:func:`repro.resilience.forensics.build_deadlock_report`) works on
either executor unchanged.
"""

from __future__ import annotations

import heapq
import time as _time

from repro.errors import (
    DeadlockError,
    EventLimitError,
    SimulationError,
    SimulationTimeout,
)
from repro.pegasus.graph import Graph, OutPort
from repro.sim import latencies, ops
from repro.sim.dataflow import (
    DEFAULT_EVENT_LIMIT,
    TOKEN,
    DataflowResult,
    _NodeState,
)
from repro.sim.memory_image import MemoryImage
from repro.sim.memsys import MemorySystem, PERFECT_MEMORY
from repro.sim import plan as planmod
from repro.sim.plan import SimPlan, plan_for


class _CalendarQueue:
    """Integer-bucket event queue over a sliding window of cycles.

    One deque per cycle in ``[base, base + width)``; same-cycle events pop
    in push order, which equals the interpreter's sequence order when no
    reordering faults are active. Events beyond the window go to a small
    ``heapq`` overflow keyed ``(time, push order)``; when the window
    drains, it rebases onto the earliest overflow time and migrates the
    next window's worth back into buckets. Rebasing preserves order
    because events are never pushed into the past (all latencies are
    >= 0 and memory completions are monotone per operator), so between
    rebases every same-cycle push lands on the same side of the window
    edge.
    """

    __slots__ = ("width", "base", "cursor", "size", "buckets",
                 "overflow", "_oseq")

    def __init__(self, width: int = 2048):
        self.width = width
        self.base = 0
        self.cursor = 0
        self.size = 0
        self.buckets: list[list] = [[] for _ in range(width)]
        self.overflow: list = []
        self._oseq = 0

    def __len__(self) -> int:
        return self.size + len(self.overflow)

    def push(self, at: int, payload) -> None:
        offset = at - self.base
        if offset < self.width:
            self.buckets[offset].append(payload)
            self.size += 1
        else:
            self._oseq += 1
            heapq.heappush(self.overflow, (at, self._oseq, payload))

    def pop(self):
        """``(time, payload)`` of the earliest event, or ``None``."""
        if self.size:
            buckets = self.buckets
            cursor = self.cursor
            bucket = buckets[cursor]
            while not bucket:
                cursor += 1
                bucket = buckets[cursor]
            self.cursor = cursor
            self.size -= 1
            return self.base + cursor, bucket.pop(0)
        if not self.overflow:
            return None
        # Window empty: rebase onto the earliest far-future event and
        # migrate everything that now fits ((time, push-order) heap order
        # keeps same-cycle FIFO intact).
        overflow = self.overflow
        self.base = overflow[0][0]
        self.cursor = 0
        for bucket in self.buckets:
            del bucket[:]
        limit = self.base + self.width
        while overflow and overflow[0][0] < limit:
            at, _, payload = heapq.heappop(overflow)
            self.buckets[at - self.base].append(payload)
            self.size += 1
        return self.pop()


def _never(time) -> bool:
    return False


class CompiledEngine:
    """Plan-driven executor, drop-in compatible with DataflowSimulator."""

    #: How often (in events) the wall-clock budget is polled.
    WALL_CHECK_INTERVAL = 4096
    #: How many hottest nodes an event-limit overrun reports.
    HOT_NODE_COUNT = 5

    def __init__(self, graph: Graph | SimPlan,
                 memory: MemoryImage | None = None,
                 memsys: MemorySystem | None = None,
                 event_limit: int = DEFAULT_EVENT_LIMIT,
                 faults=None, wall_limit: float | None = None,
                 probes=None):
        plan = graph if isinstance(graph, SimPlan) else plan_for(graph)
        self.plan = plan
        self.graph = plan.graph
        self.memory = memory if memory is not None else MemoryImage()
        self.memsys = memsys or MemorySystem(PERFECT_MEMORY)
        self.event_limit = event_limit
        self.wall_limit = wall_limit
        self.fault_plan = faults
        self._inject = faults.injector() if faults is not None else None
        if self._inject is not None and \
                getattr(self.memsys, "faults", None) is None:
            self.memsys.faults = self._inject
        self.probes = probes
        # Interpreter-compatible introspection surface (forensics).
        self._state: dict[int, _NodeState] = {}
        self._sticky: dict[OutPort, object] = {}
        self._sticky_nodes: set[int] = set(plan.sticky_ids)
        self._scheduler = None
        self._now = 0
        self._fired = 0
        self._loads = 0
        self._stores = 0
        self._skipped = 0
        self._fire_counts: dict[int, int] = {}
        self._done = False
        self._return_value: object = None

    @property
    def _events(self):
        """Pending-event view; truthiness/len match the interpreter's list."""
        scheduler = self._scheduler
        return scheduler if scheduler is not None else []

    def _hottest_nodes(self) -> list[tuple[str, int]]:
        hottest = heapq.nlargest(self.HOT_NODE_COUNT,
                                 self._fire_counts.items(),
                                 key=lambda item: (item[1], -item[0]))
        result = []
        for node_id, count in hottest:
            node = self.graph.nodes.get(node_id)
            label = f"{node.label()}#{node_id}" if node else f"#{node_id}"
            result.append((label, count))
        return result

    # ------------------------------------------------------------------

    def run(self, args: list[object] | None = None) -> DataflowResult:
        """Execute the plan with entry arguments ``args``."""
        args = args if args is not None else []
        plan = self.plan
        graph = self.graph
        memory = self.memory
        memsys = self.memsys
        inject = self._inject
        probes = self.probes
        p_fire = p_emit = p_enqueue = p_dequeue = None
        if probes is not None:
            p_fire = probes.fire
            p_emit = probes.emit
            p_enqueue = probes.enqueue
            p_dequeue = probes.dequeue
            if getattr(memsys, "probes", None) is None:
                memsys.probes = probes

        state = {node.id: _NodeState(node) for node in graph}
        self._state = state
        for node in plan.symbol_nodes:
            memory.allocate(node.symbol)
        sticky = plan.evaluate_sticky(args, memory)
        self._sticky = {OutPort(graph.nodes[nid], 0): value
                        for nid, value in sticky.items()}

        # Instrumented runs need the interpreter's exact emit bookkeeping
        # (sequence numbers feed reorder keys; probe hooks see the same
        # call order); fast runs use the calendar queue with no per-event
        # metadata at all.
        slow = inject is not None or probes is not None
        if slow:
            events: list = []
            heappush = heapq.heappush
            seq_cell = [0]

            def make_send(node):
                nid = node.id
                if inject is not None:
                    reorder_key = inject.reorder_key

                    def send(at, payload):
                        seq_cell[0] += 1
                        seq = seq_cell[0]
                        heappush(events,
                                 (at, reorder_key(nid, at, seq), seq,
                                  node, payload))
                else:
                    def send(at, payload):
                        seq_cell[0] += 1
                        seq = seq_cell[0]
                        heappush(events, (at, seq, seq, node, payload))
                return send

            self._scheduler = events
        else:
            calendar = _CalendarQueue()
            calendar_push = calendar.push

            def make_send(node):
                return calendar_push

            self._scheduler = calendar

        # Shared mutable cells, closed over by the fire closures.
        done = [False]
        retval = [None]
        loads = [0]
        stores = [0]
        skipped = [0]
        counts = {spec.id: [0] for spec in plan.specs}

        fans = {}
        for spec in plan.specs:
            for out_index in range(spec.num_outputs):
                fans[(spec.id, out_index)] = []

        WIRE = latencies.WIRE
        INT_ALU = latencies.INT_ALU
        truthy = ops.truthy

        # --------------------------------------------------------------
        # Fire-closure factory: one specialized closure per dynamic node,
        # each mirroring the corresponding branch of _fire_once.

        def bind(spec):
            node = spec.node
            nid = spec.id
            st = state[nid]
            queues = st.queues
            cell = counts[nid]
            kind = spec.kind

            if kind in (planmod.INITIAL, planmod.BLOCKED):
                return _never

            if kind == planmod.MERGE:
                fan = fans[(nid, 0)]
                send = make_send(node)
                if not node.has_control:
                    scan = list(enumerate(queues))

                    def fire(time):
                        for index, queue in scan:
                            if queue:
                                if p_dequeue is not None:
                                    p_dequeue(node, index, time)
                                value = queue.popleft()
                                cell[0] += 1
                                if p_fire is not None:
                                    p_fire(node, time)
                                at = time + WIRE
                                if p_emit is not None:
                                    p_emit(node, {0: value}, at)
                                send(at, ((fan, value),))
                                return True
                        return False
                    return fire
                control_slot = node.control_slot
                control_port = node.inputs[control_slot]
                control_sticky = (
                    control_port is not None
                    and control_port.index == 0
                    and control_port.node.id in plan.sticky_ids)
                control_value = (sticky[control_port.node.id]
                                 if control_sticky else None)
                control_queue = queues[control_slot]
                back = [(i, queues[i]) for i in sorted(node.back_inputs)]
                entry = [(i, queues[i]) for i in node.entry_slots()]

                def fire(time):
                    expect = st.merge_expect
                    if expect is None:
                        if control_sticky:
                            pred = control_value
                        elif control_queue:
                            if p_dequeue is not None:
                                p_dequeue(node, control_slot, time)
                            pred = control_queue.popleft()
                        else:
                            return False  # decision not available yet
                        expect = "back" if truthy(pred) else "entry"
                        st.merge_expect = expect
                    for index, queue in (back if expect == "back" else entry):
                        if queue:
                            st.merge_expect = None
                            if p_dequeue is not None:
                                p_dequeue(node, index, time)
                            value = queue.popleft()
                            cell[0] += 1
                            if p_fire is not None:
                                p_fire(node, time)
                            at = time + WIRE
                            if p_emit is not None:
                                p_emit(node, {0: value}, at)
                            send(at, ((fan, value),))
                            return True
                    return False
                return fire

            if kind == planmod.CTRLSTREAM:
                fan = fans[(nid, 0)]
                send = make_send(node)
                scan = [(index, queue,
                         1 if index in node.true_slots else 0)
                        for index, queue in enumerate(queues)]

                def fire(time):
                    for index, queue, decision in scan:
                        if queue:
                            if p_dequeue is not None:
                                p_dequeue(node, index, time)
                            queue.popleft()  # the pulse value is irrelevant
                            cell[0] += 1
                            if p_fire is not None:
                                p_fire(node, time)
                            at = time + WIRE
                            if p_emit is not None:
                                p_emit(node, {0: decision}, at)
                            send(at, ((fan, decision),))
                            return True
                    return False
                return fire

            if kind == planmod.TOKENGEN:
                fan = fans[(nid, 0)]
                send = make_send(node)
                pred_queue, token_queue = queues
                payload = ((fan, TOKEN),)

                def fire(time):
                    while pred_queue or token_queue:
                        if token_queue:
                            if p_dequeue is not None:
                                p_dequeue(node, 1, time)
                            token_queue.popleft()
                            st.tk_credits += 1
                        if pred_queue:
                            if p_dequeue is not None:
                                p_dequeue(node, 0, time)
                            pred_queue.popleft()
                            st.tk_demands += 1
                        while st.tk_credits > 0 and st.tk_demands > 0:
                            st.tk_credits -= 1
                            st.tk_demands -= 1
                            cell[0] += 1
                            if p_fire is not None:
                                p_fire(node, time)
                            at = time + INT_ALU
                            if p_emit is not None:
                                p_emit(node, {0: TOKEN}, at)
                            send(at, payload)
                    return False
                return fire

            # Strict kinds: readiness/takes are shared, the action differs.
            template = []
            takes = []  # (values position, queue, input slot) per queue slot
            for index, (code, aux) in enumerate(spec.slots):
                if code == planmod.SLOT_QUEUE:
                    template.append(None)
                    takes.append((index, queues[index], index))
                elif code == planmod.SLOT_STICKY:
                    template.append(sticky[aux])
                else:
                    template.append(TOKEN)
            checks = [queue for _, queue, _ in takes]

            if kind == planmod.PURE:
                evaluate = spec.evaluate
                latency = spec.latency
                fan = fans[(nid, 0)]
                send = make_send(node)

                def fire(time):
                    for queue in checks:
                        if not queue:
                            return False
                    values = list(template)
                    for position, queue, index in takes:
                        if p_dequeue is not None:
                            p_dequeue(node, index, time)
                        values[position] = queue.popleft()
                    cell[0] += 1
                    if p_fire is not None:
                        p_fire(node, time)
                    result = evaluate(values)
                    at = time + latency
                    if p_emit is not None:
                        p_emit(node, {0: result}, at)
                    send(at, ((fan, result),))
                    return True
                return self._oneshot(spec, fire) if spec.oneshot else fire

            if kind == planmod.ETA:
                fan = fans[(nid, 0)]
                send = make_send(node)

                def core(time, values):
                    if truthy(values[1]):  # values[2] is the trigger
                        value = values[0]
                        at = time + WIRE
                        if p_emit is not None:
                            p_emit(node, {0: value}, at)
                        send(at, ((fan, value),))
                    return True
            elif kind == planmod.COMBINE:
                fan = fans[(nid, 0)]
                send = make_send(node)
                payload = ((fan, TOKEN),)

                def core(time, values):
                    at = time + WIRE
                    if p_emit is not None:
                        p_emit(node, {0: TOKEN}, at)
                    send(at, payload)
                    return True
            elif kind == planmod.LOAD:
                value_fan = fans[(nid, 0)]
                token_fan = fans[(nid, 1)]
                send = make_send(node)
                load_type = node.type
                width = node.width
                mem_read = memory.read
                issue = memsys.issue
                fast_issue = memsys.perfect_issue()

                def core(time, values):
                    if truthy(values[1]):
                        loads[0] += 1
                        addr = int(values[0])
                        value = mem_read(addr, load_type)
                        if fast_issue is not None:
                            at = fast_issue(time)
                        else:
                            _, at = issue(time, addr, width, False)
                        if at < st.last_done:
                            at = st.last_done
                    else:
                        skipped[0] += 1
                        value = 0
                        at = time if time > st.last_done else st.last_done
                    st.last_done = at
                    if p_emit is not None:
                        p_emit(node, {0: value, 1: TOKEN}, at)
                    send(at, ((value_fan, value), (token_fan, TOKEN)))
                    return True
            elif kind == planmod.STORE:
                token_fan = fans[(nid, 0)]
                send = make_send(node)
                payload = ((token_fan, TOKEN),)
                store_type = node.type
                width = node.width
                mem_write = memory.write
                issue = memsys.issue
                fast_issue = memsys.perfect_issue()

                def core(time, values):
                    if truthy(values[2]):
                        stores[0] += 1
                        addr = int(values[0])
                        mem_write(addr, values[1], store_type)
                        if fast_issue is not None:
                            at = fast_issue(time)
                        else:
                            _, at = issue(time, addr, width, True)
                        if at < st.last_done:
                            at = st.last_done
                    else:
                        skipped[0] += 1
                        at = time if time > st.last_done else st.last_done
                    st.last_done = at
                    if p_emit is not None:
                        p_emit(node, {0: TOKEN}, at)
                    send(at, payload)
                    return True
            elif kind == planmod.RETURN:
                has_value = spec.has_value

                def core(time, values):
                    done[0] = True
                    retval[0] = values[0] if has_value else None
                    return True
            else:
                def core(time, values):
                    raise SimulationError(f"cannot fire {node!r}")

            def fire(time, core=core):
                for queue in checks:
                    if not queue:
                        return False
                values = list(template)
                for position, queue, index in takes:
                    if p_dequeue is not None:
                        p_dequeue(node, index, time)
                    values[position] = queue.popleft()
                cell[0] += 1
                if p_fire is not None:
                    p_fire(node, time)
                return core(time, values)
            return self._oneshot(spec, fire) if spec.oneshot else fire

        fires = {spec.id: bind(spec) for spec in plan.specs}

        # Resolve fanout tables: deliveries append straight to the
        # consumer's queue and poke its fire closure. Instrumented runs
        # also carry (consumer node, slot) for the enqueue probe.
        for spec in plan.specs:
            for out_index, targets in enumerate(spec.fanout):
                fan = fans[(spec.id, out_index)]
                for consumer_id, slot_index in targets:
                    queue = state[consumer_id].queues[slot_index]
                    if slow:
                        fan.append((queue.append, fires[consumer_id],
                                    graph.nodes[consumer_id], slot_index))
                    else:
                        fan.append((queue.append, fires[consumer_id]))

        # --------------------------------------------------------------
        # Priming: initial tokens at time 0, then fully-constant nodes.

        for node in plan.initial_tokens:
            if p_emit is not None:
                p_emit(node, {0: TOKEN}, 0)
            make_send(node)(0, ((fans[(node.id, 0)], TOKEN),))
        for spec in plan.primed:
            fire = fires[spec.id]
            while fire(0):
                if done[0]:
                    break

        # --------------------------------------------------------------
        # Main loop.

        event_limit = self.event_limit
        wall_limit = self.wall_limit
        wall_interval = self.WALL_CHECK_INTERVAL
        started = _time.monotonic()
        event_count = 0
        now = 0

        def sync():
            self._now = now
            self._fired = sum(cell[0] for cell in counts.values())
            self._loads = loads[0]
            self._stores = stores[0]
            self._skipped = skipped[0]
            self._fire_counts = {nid: cell[0]
                                 for nid, cell in counts.items() if cell[0]}
            self._done = done[0]
            self._return_value = retval[0]

        def overrun():
            sync()
            return EventLimitError(
                f"{graph.name}: event limit exceeded "
                f"({event_limit}) at cycle {now}",
                event_limit, now, hot_nodes=self._hottest_nodes(),
            )

        def timeout(elapsed):
            sync()
            return SimulationTimeout(
                f"{graph.name}: simulation exceeded its "
                f"wall-clock budget at cycle {now}",
                wall_limit, elapsed,
            )

        if slow:
            heappop = heapq.heappop
            while events and not done[0]:
                event_count += 1
                if event_count > event_limit:
                    raise overrun()
                if wall_limit is not None \
                        and event_count % wall_interval == 0:
                    elapsed = _time.monotonic() - started
                    if elapsed > wall_limit:
                        raise timeout(elapsed)
                time, _, _, node, payload = heappop(events)
                if time > now:
                    now = time
                for fan, value in payload:
                    if done[0]:
                        break
                    for entry in fan:
                        entry[0](value)
                        if p_enqueue is not None:
                            p_enqueue(node, entry[2], entry[3], time)
                        fire = entry[1]
                        while fire(time):
                            if done[0]:
                                break
                        if done[0]:
                            break
        else:
            calendar_pop = calendar.pop
            while not done[0]:
                item = calendar_pop()
                if item is None:
                    break
                event_count += 1
                if event_count > event_limit:
                    raise overrun()
                if wall_limit is not None \
                        and event_count % wall_interval == 0:
                    elapsed = _time.monotonic() - started
                    if elapsed > wall_limit:
                        raise timeout(elapsed)
                time, payload = item
                if time > now:
                    now = time
                for fan, value in payload:
                    if done[0]:
                        break
                    for entry in fan:
                        entry[0](value)
                        fire = entry[1]
                        while fire(time):
                            if done[0]:
                                break
                        if done[0]:
                            break

        sync()
        if not done[0]:
            from repro.resilience.forensics import build_deadlock_report
            report = build_deadlock_report(self)
            raise DeadlockError(
                f"{graph.name}: dataflow execution deadlocked",
                self._now, pending=list(report.blocked), report=report,
            )
        return DataflowResult(
            return_value=self._return_value,
            cycles=self._now,
            fired=self._fired,
            loads=self._loads,
            stores=self._stores,
            skipped_memops=self._skipped,
            memory=self.memory,
            memory_stats=self.memsys.stats,
            fire_counts=dict(self._fire_counts),
        )

    @staticmethod
    def _oneshot(spec, fire):
        """Wrap a fully-constant strict node: it fires exactly once."""
        once = [False]

        def fire_once(time):
            if once[0]:
                return False
            once[0] = True
            return fire(time)
        return fire_once
