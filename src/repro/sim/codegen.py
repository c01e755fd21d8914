"""Per-plan specialized Python code generation — the third engine.

The CompiledEngine (:mod:`repro.sim.engine`) already folded the graph
into flat dispatch tables, but every event still pays Python closure
dispatch: a generic fire closure walks a ``checks`` list, copies a
``template``, loops over ``takes``, and calls a prebound evaluator that
re-dispatches on the opcode string. All of that is a pure function of the
:class:`~repro.sim.plan.SimPlan`, so this module generates one
*specialized Python module per plan* and ``compile()``+``exec``\\ s it:

- each node's fire body is emitted as a flat function from its
  :class:`~repro.sim.plan.NodeSpec` kind tag — readiness checks name the
  exact queues, integer arithmetic is inlined with the type's wrap masks
  as literals, latencies are folded into the ``push`` call;
- fanout tables are emitted as literal tuples of
  ``(queue.append, fire)`` pairs;
- sticky values are prebound as locals of the generated runner;
- per-run state (counters, merge expectations, token credits) lives in
  closure cells of the runner, which serves exactly one run: the
  generated ``begin`` preamble binds the run's memory and sticky values
  and primes the calendar.

Generated modules are cached on the plan object, which :func:`plan_for`
keys per ``(graph, graph.version)`` — a version bump re-plans and
therefore re-generates. Set ``$REPRO_CODEGEN_DUMP=<dir>`` to write every
generated module to disk for inspection, or call :func:`source_for`.

Equivalence is the gate: results are bit-identical to the interpreter on
every :class:`~repro.sim.dataflow.DataflowResult` field, the final
memory image, and deadlock/event-limit/wall-limit errors
(``tests/sim/test_engine.py`` enforces it). Instrumented runs — a probe
bus or a fault plan attached — need the interpreter's exact emit
bookkeeping, so constructing a :class:`CodegenEngine` with either
*returns* a :class:`~repro.sim.engine.CompiledEngine` on its heap path
instead (the same rule CompiledEngine applies to its own calendar-queue
fast path).
"""

from __future__ import annotations

import linecache
import os
import re
import time as _time

from repro.errors import (
    DeadlockError,
    EventLimitError,
    SimulationError,
    SimulationTimeout,
)
from repro.frontend import types as ty
from repro.pegasus.graph import OutPort
from repro.sim import latencies, ops
from repro.sim import plan as planmod
from repro.sim.dataflow import (
    DEFAULT_EVENT_LIMIT,
    TOKEN,
    DataflowResult,
    _NodeState,
)
from repro.sim.engine import CompiledEngine, _CalendarQueue, _never
from repro.sim.plan import SimPlan, plan_for

#: Specialized modules generated in this process; tests use the delta to
#: prove that a ``graph.version`` bump invalidates and re-generates.
GENERATION_COUNT = 0

_M64 = (1 << 64) - 1
_COMPARES = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
             "gt": ">", "ge": ">="}
_INT_ARITH = {"add": "+", "sub": "-", "mul": "*",
              "and": "&", "or": "|", "xor": "^"}


def _binop_callable(node):
    """A direct two-argument evaluator for ops the generator won't inline
    (division's trap-to-zero speculation rule, float rounding)."""
    op, type_ = node.op, node.type
    eval_binop = ops.eval_binop
    if op in ("div", "rem"):
        def call(a, b):
            try:
                return eval_binop(op, type_, a, b)
            except SimulationError:
                return 0
    else:
        def call(a, b):
            return eval_binop(op, type_, a, b)
    return call


def _unop_callable(node):
    op, type_ = node.op, node.type
    eval_unop = ops.eval_unop
    return lambda v: eval_unop(op, type_, v)


def _cast_callable(node):
    from_type, to_type = node.from_type, node.to_type
    eval_cast = ops.eval_cast
    return lambda v: eval_cast(v, from_type, to_type)


def _wrap_expr(expr: str, int_type: ty.IntType) -> str:
    mask = (1 << int_type.bits) - 1
    if int_type.signed:
        sign = 1 << (int_type.bits - 1)
        return f"((({expr}) & {mask}) ^ {sign}) - {sign}"
    return f"({expr}) & {mask}"


class _Emitter:
    """Builds the source text of one specialized module."""

    def __init__(self, plan: SimPlan):
        self.plan = plan
        # Consts are unpacked into make_runner locals, so fire bodies
        # reach them through (fast) closure cells rather than globals.
        self.names = ["TOKEN", "_CalendarQueue", "monotonic",
                      "SimulationError", "_never"]
        self.consts: list = [TOKEN, _CalendarQueue, _time.monotonic,
                             SimulationError, _never]
        self.pops: set[tuple[int, int]] = set()   # (node id, slot)
        self.apps: set[tuple[int, int]] = set()
        self.sticky_used: set[int] = set()
        self.cells: list[tuple[str, str]] = []    # (name, initial literal)
        self.count_ids: list[int] = []
        self.sync_lines: list[str] = []
        self.fires: list[list[str]] = []
        self.has_mem = False

    def const(self, name: str, value) -> str:
        self.names.append(name)
        self.consts.append(value)
        return name

    def cell(self, name: str, literal: str) -> str:
        self.cells.append((name, literal))
        return name

    # ------------------------------------------------------------------
    # Per-kind fire bodies

    def emit_spec(self, spec) -> None:
        kind = spec.kind
        if kind in (planmod.INITIAL, planmod.BLOCKED):
            self.fires.append([f"f{spec.id} = _never"])
            return
        if kind == planmod.MERGE:
            body, extra = self._merge_body(spec)
        elif kind == planmod.CTRLSTREAM:
            body, extra = self._ctrlstream_body(spec)
        elif kind == planmod.TOKENGEN:
            body, extra = self._tokengen_body(spec)
        else:
            body, extra = self._strict_body(spec)
        nid = spec.id
        self.count_ids.append(nid)
        self.cell(f"c{nid}", "0")
        nonlocals = sorted({f"c{nid}", *extra})
        lines = [f"def f{nid}(time):",
                 "    nonlocal " + ", ".join(nonlocals)]
        lines += ["    " + line for line in body]
        self.fires.append(lines)

    def _queue(self, nid: int, slot: int) -> str:
        self.pops.add((nid, slot))
        return f"q{nid}_{slot}"

    def _merge_body(self, spec):
        node = spec.node
        nid = spec.id
        body: list[str] = []
        extra: set[str] = set()
        if not node.has_control:
            # Join merge: forward whichever input is present, slot order.
            for index in range(len(node.inputs)):
                queue = self._queue(nid, index)
                kw = "if" if index == 0 else "elif"
                body += [f"{kw} {queue}:",
                         f"    value = pop{nid}_{index}()"]
            body += ["else:", "    return False",
                     f"c{nid} += 1",
                     self._push_line("time", f"((fan{nid}_0, value),)"),
                     "return True"]
            return body, extra
        me = self.cell(f"me{nid}", '"entry"')
        extra.add(me)
        self.sync_lines += [f"st = state[{nid}]",
                            f"st.merge_expect = {me}"]
        control_slot = node.control_slot
        control_port = node.inputs[control_slot]
        control_sticky = (control_port is not None
                          and control_port.index == 0
                          and control_port.node.id in self.plan.sticky_ids)
        body += [f"expect = {me}",
                 "if expect is None:"]
        if control_sticky:
            self.sticky_used.add(control_port.node.id)
            pred = f"s{control_port.node.id}"
            body += [f'    expect = "back" if {pred} != 0 else "entry"',
                     f"    {me} = expect"]
        else:
            queue = self._queue(nid, control_slot)
            body += [f"    if not {queue}:",
                     "        return False",
                     f'    expect = "back" if pop{nid}_{control_slot}()'
                     ' != 0 else "entry"',
                     f"    {me} = expect"]

        def scan(slots: list[int], indent: str) -> list[str]:
            if not slots:
                return [indent + "return False"]
            lines = []
            for pos, index in enumerate(slots):
                queue = self._queue(nid, index)
                kw = "if" if pos == 0 else "elif"
                lines += [f"{indent}{kw} {queue}:",
                          f"{indent}    {me} = None",
                          f"{indent}    value = pop{nid}_{index}()"]
            lines += [f"{indent}else:", f"{indent}    return False"]
            return lines

        body += ['if expect == "back":']
        body += scan(sorted(node.back_inputs), "    ")
        body += ["else:"]
        body += scan(list(node.entry_slots()), "    ")
        body += [f"c{nid} += 1",
                 self._push_line("time", f"((fan{nid}_0, value),)"),
                 "return True"]
        return body, extra

    def _ctrlstream_body(self, spec):
        node = spec.node
        nid = spec.id
        body: list[str] = []
        for index in range(len(node.inputs)):
            queue = self._queue(nid, index)
            decision = 1 if index in node.true_slots else 0
            body += [f"if {queue}:",
                     f"    pop{nid}_{index}()",
                     f"    c{nid} += 1",
                     "    " + self._push_line(
                         "time", f"((fan{nid}_0, {decision}),)"),
                     "    return True"]
        body += ["return False"]
        return body, set()

    def _tokengen_body(self, spec):
        node = spec.node
        nid = spec.id
        kc = self.cell(f"kc{nid}", repr(getattr(node, "count", 0)))
        kd = self.cell(f"kd{nid}", "0")
        self.sync_lines += [f"st = state[{nid}]",
                            f"st.tk_credits = {kc}",
                            f"st.tk_demands = {kd}"]
        pred = self._queue(nid, 0)
        token = self._queue(nid, 1)
        at = self._at_expr("time", latencies.INT_ALU)
        body = [f"while {pred} or {token}:",
                f"    if {token}:",
                f"        pop{nid}_1()",
                f"        {kc} += 1",
                f"    if {pred}:",
                f"        pop{nid}_0()",
                f"        {kd} += 1",
                f"    while {kc} > 0 and {kd} > 0:",
                f"        {kc} -= 1",
                f"        {kd} -= 1",
                f"        c{nid} += 1",
                f"        push({at}, tp{nid})",
                "return False"]
        return body, {kc, kd}

    # ------------------------------------------------------------------
    # Strict kinds

    def _strict_body(self, spec):
        node = spec.node
        nid = spec.id
        kind = spec.kind
        if kind == planmod.PURE:
            used = set(range(len(spec.slots)))
        elif kind == planmod.ETA:
            used = {0, 1}
        elif kind == planmod.LOAD:
            used = {0, 1}
        elif kind == planmod.STORE:
            used = {0, 1, 2}
        elif kind == planmod.RETURN:
            used = {0} if spec.has_value else set()
        else:  # COMBINE, UNKNOWN
            used = set()

        checks: list[str] = []
        takes: list[str] = []
        vals: list[str | None] = []
        for index, (code, aux) in enumerate(spec.slots):
            if code == planmod.SLOT_QUEUE:
                checks.append(f"not {self._queue(nid, index)}")
                if index in used:
                    takes.append(f"v{index} = pop{nid}_{index}()")
                    vals.append(f"v{index}")
                else:
                    takes.append(f"pop{nid}_{index}()")
                    vals.append(None)
            elif code == planmod.SLOT_STICKY:
                self.sticky_used.add(aux)
                vals.append(f"s{aux}")
            else:
                vals.append("TOKEN")

        body: list[str] = []
        extra: set[str] = set()
        if spec.oneshot:
            once = self.cell(f"once{nid}", "False")
            extra.add(once)
            body += [f"if {once}:", "    return False", f"{once} = True"]
        if checks:
            body += [f"if {' or '.join(checks)}:", "    return False"]
        body += takes
        body += [f"c{nid} += 1"]

        if kind == planmod.PURE:
            body += self._pure_result(node, vals)
            at = self._at_expr("time", spec.latency)
            body += [self._push_line(at, f"((fan{nid}_0, result),)"),
                     "return True"]
        elif kind == planmod.ETA:
            body += [f"if {vals[1]} != 0:",
                     "    " + self._push_line(
                         "time", f"((fan{nid}_0, {vals[0]}),)"),
                     "return True"]
        elif kind == planmod.COMBINE:
            body += [self._push_line("time", f"tp{nid}"), "return True"]
        elif kind == planmod.LOAD:
            body += self._load_body(spec, vals, extra)
        elif kind == planmod.STORE:
            body += self._store_body(spec, vals, extra)
        elif kind == planmod.RETURN:
            extra |= {"done", "retval"}
            value = vals[0] if spec.has_value else "None"
            body += ["done = True", f"retval = {value}", "return True"]
        else:  # UNKNOWN: the interpreter's error, only if it ever fires
            nd = self.const(f"nd{nid}", node)
            body += [f'raise SimulationError("cannot fire %r" % ({nd},))']
        return body, extra

    def _load_body(self, spec, vals, extra):
        node = spec.node
        nid = spec.id
        self.has_mem = True
        ld = self.cell(f"ld{nid}", "0")
        extra |= {ld, "loads", "skipped"}
        self.sync_lines += [f"st = state[{nid}]", f"st.last_done = {ld}"]
        type_name = self.const(f"T{nid}", node.type)
        width = int(node.width)
        return [f"if {vals[1]} != 0:",
                "    loads += 1",
                f"    addr = int({vals[0]})",
                f"    value = mem_read(addr, {type_name})",
                "    if fast_issue is not None:",
                "        at = fast_issue(time)",
                "    else:",
                f"        at = issue(time, addr, {width}, False)[1]",
                f"    if at < {ld}:",
                f"        at = {ld}",
                "else:",
                "    skipped += 1",
                "    value = 0",
                f"    at = time if time > {ld} else {ld}",
                f"{ld} = at",
                self._push_line(
                    "at", f"((fan{nid}_0, value), (fan{nid}_1, TOKEN))"),
                "return True"]

    def _store_body(self, spec, vals, extra):
        node = spec.node
        nid = spec.id
        self.has_mem = True
        ld = self.cell(f"ld{nid}", "0")
        extra |= {ld, "stores", "skipped"}
        self.sync_lines += [f"st = state[{nid}]", f"st.last_done = {ld}"]
        type_name = self.const(f"T{nid}", node.type)
        width = int(node.width)
        return [f"if {vals[2]} != 0:",
                "    stores += 1",
                f"    addr = int({vals[0]})",
                f"    mem_write(addr, {vals[1]}, {type_name})",
                "    if fast_issue is not None:",
                "        at = fast_issue(time)",
                "    else:",
                f"        at = issue(time, addr, {width}, True)[1]",
                f"    if at < {ld}:",
                f"        at = {ld}",
                "else:",
                "    skipped += 1",
                f"    at = time if time > {ld} else {ld}",
                f"{ld} = at",
                self._push_line("at", f"tp{nid}"),
                "return True"]

    # ------------------------------------------------------------------
    # Pure arithmetic inlining (mirrors repro.sim.ops exactly)

    def _pure_result(self, node, vals) -> list[str]:
        from repro.pegasus import nodes as N
        if isinstance(node, N.BinOpNode):
            return self._binop_result(node, vals[0], vals[1])
        if isinstance(node, N.UnOpNode):
            return self._unop_result(node, vals[0])
        if isinstance(node, N.CastNode):
            return self._cast_result(node, vals[0])
        # Mux: first true predicate selects its arm; none true -> 0.
        expr = "0"
        for arm in reversed(range(node.arms)):
            expr = f"({vals[2 * arm + 1]} if {vals[2 * arm]} != 0 else {expr})"
        return [f"result = {expr}"]

    def _binop_result(self, node, a: str, b: str) -> list[str]:
        op, type_ = node.op, node.type
        if op in _COMPARES:
            pyop = _COMPARES[op]
            if isinstance(type_, ty.IntType):
                lhs = _wrap_expr(f"int({a})", type_)
                rhs = _wrap_expr(f"int({b})", type_)
            elif type_.is_pointer:
                lhs = f"int({a}) & {_M64}"
                rhs = f"int({b}) & {_M64}"
            else:  # float compares work on the raw values (see _compare)
                lhs, rhs = a, b
            return [f"result = 1 if ({lhs}) {pyop} ({rhs}) else 0"]
        if isinstance(type_, ty.FloatType) or op in ("div", "rem") \
                or (op not in _INT_ARITH and op not in ("shl", "shr")):
            ev = self.const(f"ev{node.id}", _binop_callable(node))
            return [f"result = {ev}({a}, {b})"]
        int_type = type_ if isinstance(type_, ty.IntType) else ty.ULONG
        # Input wraps are algebraically absorbed: +,-,*,&,|,^ and << only
        # depend on the operands mod 2**bits, which the result wrap
        # restores; >> needs the true wrapped lhs and a masked count.
        if op in _INT_ARITH:
            expr = f"int({a}) {_INT_ARITH[op]} int({b})"
            return [f"result = {_wrap_expr(expr, int_type)}"]
        count = f"(int({b}) & {int_type.bits - 1})"
        if op == "shl":
            return [f"result = "
                    f"{_wrap_expr(f'int({a}) << {count}', int_type)}"]
        if int_type.signed:  # shr: arithmetic shift of the wrapped value
            return [f"result = ({_wrap_expr(f'int({a})', int_type)})"
                    f" >> {count}"]
        mask = (1 << int_type.bits) - 1
        return [f"result = (int({a}) & {mask}) >> {count}"]

    def _unop_result(self, node, a: str) -> list[str]:
        op, type_ = node.op, node.type
        if op == "lnot":
            return [f"result = 1 if {a} == 0 else 0"]
        if isinstance(type_, ty.IntType):
            if op == "neg":
                return [f"result = {_wrap_expr(f'-int({a})', type_)}"]
            if op == "bnot":
                return [f"result = {_wrap_expr(f'~int({a})', type_)}"]
        ev = self.const(f"ev{node.id}", _unop_callable(node))
        return [f"result = {ev}({a})"]

    def _cast_result(self, node, a: str) -> list[str]:
        to_type = node.to_type
        if isinstance(to_type, ty.IntType) \
                and not isinstance(node.from_type, ty.FloatType):
            # Int-to-int is the hot case; eval_cast still float-guards the
            # runtime value, so the inline keeps the same dynamic check.
            ev = self.const(f"ev{node.id}", _cast_callable(node))
            wrapped = _wrap_expr(f"int({a})", to_type)
            return [f"result = ({ev}({a}) if isinstance({a}, float)"
                    f" else {wrapped})"]
        if not isinstance(to_type, (ty.IntType, ty.FloatType)) \
                and to_type.is_pointer:
            return [f"result = int({a}) & {_M64}"]
        ev = self.const(f"ev{node.id}", _cast_callable(node))
        return [f"result = {ev}({a})"]

    # ------------------------------------------------------------------

    @staticmethod
    def _at_expr(time: str, latency: int) -> str:
        return time if latency == 0 else f"{time} + {latency}"

    @staticmethod
    def _push_line(at: str, payload: str) -> str:
        return f"push({at}, {payload})"

    # ------------------------------------------------------------------
    # Assembly

    def render(self) -> str:
        plan = self.plan
        for spec in plan.specs:
            self.emit_spec(spec)

        fan_lines: list[str] = []
        token_payloads = (planmod.COMBINE, planmod.STORE, planmod.TOKENGEN,
                          planmod.INITIAL)
        for spec in plan.specs:
            for out_index, targets in enumerate(spec.fanout):
                entries = []
                for consumer_id, slot in targets:
                    self.apps.add((consumer_id, slot))
                    entries.append(f"(app{consumer_id}_{slot}, "
                                   f"f{consumer_id})")
                tail = "," if len(entries) == 1 else ""
                fan_lines.append(f"fan{spec.id}_{out_index} = "
                                 f"({', '.join(entries)}{tail})")
            if spec.kind in token_payloads:
                fan_lines.append(f"tp{spec.id} = ((fan{spec.id}_0, TOKEN),)")

        lines: list[str] = [
            f"# Specialized runner for {plan.graph.name!r} "
            f"(version {plan.version}); generated by repro.sim.codegen.",
            "def make_runner(state, C):",
        ]
        for chunk in _chunks(self.names, 6):
            prefix = "    (" if chunk[0] == self.names[0] else "     "
            lines.append(prefix + ", ".join(chunk) + ",")
        lines[-1] += ") = C"

        bound = sorted(self.pops | self.apps)
        for nid, slot in bound:
            lines.append(f"    q{nid}_{slot} = state[{nid}].queues[{slot}]")
            if (nid, slot) in self.pops:
                lines.append(f"    pop{nid}_{slot} = q{nid}_{slot}.popleft")
            if (nid, slot) in self.apps:
                lines.append(f"    app{nid}_{slot} = q{nid}_{slot}.append")

        lines.append("    calendar = _CalendarQueue()")
        lines.append("    push = calendar.push")
        run_cells = [("done", "False"), ("retval", "None"), ("loads", "0"),
                     ("stores", "0"), ("skipped", "0")]
        for name, literal in run_cells + self.cells:
            lines.append(f"    {name} = {literal}")
        # Bound by ``begin`` from the run's memory and arguments.
        begin_cells = (["mem_read", "mem_write", "issue", "fast_issue"]
                       if self.has_mem else [])
        begin_cells += [f"s{sid}" for sid in sorted(self.sticky_used)]
        for name in begin_cells:
            lines.append(f"    {name} = None")
        lines.append("")

        for fire in self.fires:
            lines += ["    " + line for line in fire]
            lines.append("")
        for fan in fan_lines:
            lines.append("    " + fan)
        lines.append("")

        lines.append("    def collect():")
        lines.append("        counts = {}")
        for nid in self.count_ids:
            lines += [f"        if c{nid}:",
                      f"            counts[{nid}] = c{nid}"]
        lines.append("        return loads, stores, skipped, counts")
        lines.append("")

        lines.append("    def sync_state():")
        if self.sync_lines:
            lines += ["        " + line for line in self.sync_lines]
        else:
            lines.append("        pass")
        lines.append("")

        # The priming preamble lives in its own closure: it touches every
        # sticky cell and primed fire, so on large graphs its frame has
        # thousands of slots (tens of KB) — comparable to CPython's data
        # stack chunk. Were it part of ``run_one``, the event loop's
        # frame could land at a chunk boundary and every fire-closure
        # call would then allocate (mmap) and free a fresh chunk — a
        # deterministic ~20x slowdown dependent on caller stack depth.
        # ``begin`` pushes that big frame once and pops it before the
        # loop starts; ``run_one`` itself keeps a handful of slots.
        lines.append("    def begin(memory, memsys, sticky):")
        for chunk in _chunks(begin_cells, 8):
            lines.append("        nonlocal " + ", ".join(chunk))
        if self.has_mem:
            lines += ["        mem_read = memory.read",
                      "        mem_write = memory.write",
                      "        issue = memsys.issue",
                      "        fast_issue = memsys.perfect_issue()"]
        for sid in sorted(self.sticky_used):
            lines.append(f"        s{sid} = sticky[{sid}]")

        # Priming: initial tokens at time 0, then fully-constant nodes
        # (same order and done-checks as the interpreter's priming loop).
        for node in plan.initial_tokens:
            lines.append(f"        push(0, tp{node.id})")
        for spec in plan.primed:
            lines += [f"        while f{spec.id}(0):",
                      "            if done:",
                      "                break"]
        lines.append("        return calendar")
        lines.append("")

        lines += [
            "    def run_one(memory, memsys, sticky, "
            "event_limit, wall_limit):",
            "        calendar = begin(memory, memsys, sticky)",
            "        pop = calendar.pop",
            "        event_count = 0",
            "        now = 0",
            "        started = monotonic()",
            "        while not done:",
            "            item = pop()",
            "            if item is None:",
            "                break",
            "            event_count += 1",
            "            if event_count > event_limit:",
            '                return ("event-limit", now, event_count, '
            "calendar)",
            "            if wall_limit is not None "
            f"and not event_count % {CompiledEngine.WALL_CHECK_INTERVAL}:",
            "                elapsed = monotonic() - started",
            "                if elapsed > wall_limit:",
            '                    return ("timeout", now, elapsed, calendar)',
            "            time, payload = item",
            "            if time > now:",
            "                now = time",
            "            for fan, value in payload:",
            "                if done:",
            "                    break",
            "                for app_fire in fan:",
            "                    app_fire[0](value)",
            "                    fire = app_fire[1]",
            "                    while fire(time):",
            "                        if done:",
            "                            break",
            "                    if done:",
            "                        break",
            "        if not done:",
            '            return ("deadlock", now, None, calendar)',
            '        return ("done", now, retval, calendar)',
            "",
            "    return run_one, collect, sync_state",
        ]
        return "\n".join(lines) + "\n"


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


# ----------------------------------------------------------------------


class GeneratedModule:
    """One compiled specialized module, cached on its plan."""

    def __init__(self, plan: SimPlan):
        global GENERATION_COUNT
        GENERATION_COUNT += 1
        emitter = _Emitter(plan)
        self.source = emitter.render()
        self.consts = tuple(emitter.consts)
        self.filename = f"<codegen:{plan.graph.name}@v{plan.version}>"
        dump_dir = os.environ.get("REPRO_CODEGEN_DUMP")
        if dump_dir:
            os.makedirs(dump_dir, exist_ok=True)
            slug = re.sub(r"[^\w.-]", "_",
                          f"{plan.graph.name}-v{plan.version}")
            with open(os.path.join(dump_dir, f"{slug}.py"), "w") as handle:
                handle.write(self.source)
        # Register with linecache so tracebacks show generated lines.
        linecache.cache[self.filename] = (
            len(self.source), None, self.source.splitlines(True),
            self.filename)
        namespace: dict = {}
        exec(compile(self.source, self.filename, "exec"), namespace)
        self._factory = namespace["make_runner"]

    def make_runner(self, state):
        """Instantiate ``(run_one, collect, sync_state)`` over ``state``."""
        return self._factory(state, self.consts)


def generated_for(plan: SimPlan) -> GeneratedModule:
    """The (cached) generated module for ``plan``.

    Cached on the plan object itself, which :func:`plan_for` keys per
    ``(graph, graph.version)`` — so a version bump re-plans and
    re-generates, and the bounded plan cache evicts the module with its
    plan (no per-historical-version accumulation in long-lived workers).
    """
    gen = getattr(plan, "_codegen", None)
    if gen is None:
        gen = GeneratedModule(plan)
        plan._codegen = gen
    return gen


def source_for(graph_or_plan) -> str:
    """The generated source text (debugging aid; see also
    ``$REPRO_CODEGEN_DUMP``)."""
    plan = (graph_or_plan if isinstance(graph_or_plan, SimPlan)
            else plan_for(graph_or_plan))
    return generated_for(plan).source


# ----------------------------------------------------------------------


class CodegenEngine(CompiledEngine):
    """Executor running the plan's generated module.

    Drop-in compatible with :class:`~repro.sim.engine.CompiledEngine`
    (same constructor, introspection surface, errors, and bit-identical
    results). Instrumented runs need the interpreter's exact emit
    bookkeeping, so constructing this class with ``probes`` or ``faults``
    transparently returns a ``CompiledEngine`` on its heap path instead.
    """

    def __new__(cls, graph, memory=None, memsys=None,
                event_limit=DEFAULT_EVENT_LIMIT, faults=None,
                wall_limit=None, probes=None):
        if faults is not None or probes is not None:
            return CompiledEngine(graph, memory=memory, memsys=memsys,
                                  event_limit=event_limit, faults=faults,
                                  wall_limit=wall_limit, probes=probes)
        return object.__new__(cls)

    def run(self, args: list[object] | None = None) -> DataflowResult:
        args = args if args is not None else []
        graph = self.graph
        plan = self.plan
        memory = self.memory
        state = {node.id: _NodeState(node) for node in graph}
        self._state = state
        run_one, collect, sync_state = \
            generated_for(plan).make_runner(state)
        for node in plan.symbol_nodes:
            memory.allocate(node.symbol)
        sticky = plan.evaluate_sticky(args, memory)
        self._sticky = {OutPort(graph.nodes[nid], 0): value
                        for nid, value in sticky.items()}
        kind, now, extra, calendar = run_one(
            memory, self.memsys, sticky, self.event_limit, self.wall_limit)
        sync_state()
        loads, stores, skipped, fire_counts = collect()
        self._scheduler = calendar
        self._now = now
        self._fired = sum(fire_counts.values())
        self._loads = loads
        self._stores = stores
        self._skipped = skipped
        self._fire_counts = fire_counts
        self._done = kind == "done"
        self._return_value = extra if kind == "done" else None
        if kind == "event-limit":
            raise EventLimitError(
                f"{graph.name}: event limit exceeded "
                f"({self.event_limit}) at cycle {now}",
                self.event_limit, now, hot_nodes=self._hottest_nodes(),
            )
        if kind == "timeout":
            raise SimulationTimeout(
                f"{graph.name}: simulation exceeded its "
                f"wall-clock budget at cycle {now}",
                self.wall_limit, extra,
            )
        if kind == "deadlock":
            from repro.resilience.forensics import build_deadlock_report
            report = build_deadlock_report(self)
            raise DeadlockError(
                f"{graph.name}: dataflow execution deadlocked",
                now, pending=list(report.blocked), report=report,
            )
        return DataflowResult(
            return_value=self._return_value,
            cycles=now,
            fired=self._fired,
            loads=loads,
            stores=stores,
            skipped_memops=skipped,
            memory=memory,
            memory_stats=self.memsys.stats,
            fire_counts=dict(fire_counts),
        )
