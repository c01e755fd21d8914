"""Exception hierarchy for the repro package.

Every error raised by the compiler, the analyses, or the simulators derives
from :class:`ReproError`, so callers can catch one type at the API boundary.
The subclasses partition failures by pipeline stage, which keeps diagnostics
actionable: a :class:`ParseError` points at source text, a
:class:`PegasusError` points at a malformed graph, a :class:`SimulationError`
points at run-time behaviour.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SourceLocation:
    """A (line, column) position inside a MiniC source file.

    Lines and columns are 1-based, matching what editors display.
    """

    __slots__ = ("line", "column", "filename")

    def __init__(self, line: int, column: int, filename: str = "<input>"):
        self.line = line
        self.column = column
        self.filename = filename

    def __repr__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.line, self.column, self.filename) == (
            other.line,
            other.column,
            other.filename,
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column, self.filename))


class FrontendError(ReproError):
    """An error detected while processing MiniC source text."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Invalid token in the source text."""


class ParseError(FrontendError):
    """Source text does not conform to the MiniC grammar."""


class SemanticError(FrontendError):
    """Well-formed syntax with an invalid meaning (types, scopes, lvalues)."""


class LoweringError(ReproError):
    """AST could not be lowered to the three-address CFG."""


class InlineError(ReproError):
    """Call graph cannot be flattened for spatial compilation (recursion)."""


class PegasusError(ReproError):
    """A Pegasus graph violates a structural invariant."""


class OptimizationError(ReproError):
    """An optimization pass produced or encountered an inconsistent state."""


class SimulationError(ReproError):
    """The dataflow or sequential simulator hit an invalid run-time state."""


class DeadlockError(SimulationError):
    """The dataflow simulation stopped making progress before completion.

    ``pending`` holds structured wait-for entries (one per blocked node;
    see :class:`repro.resilience.forensics.BlockedNode`) rather than
    pre-truncated reprs, and ``report`` carries the full
    :class:`repro.resilience.forensics.DeadlockReport` when the simulator
    ran the wait-for analysis.
    """

    def __init__(self, message: str, cycle: int, pending: list | None = None,
                 report=None):
        self.cycle = cycle
        self.pending = pending or []
        self.report = report
        detail = f" at cycle {cycle}"
        if self.pending:
            detail += "; waiting nodes: " + ", ".join(
                str(entry) for entry in self.pending[:8])
            if len(self.pending) > 8:
                detail += f", ... ({len(self.pending) - 8} more)"
        super().__init__(message + detail)


class EventLimitError(SimulationError):
    """The event budget ran out before the graph produced its return.

    Distinguishes livelocks (a small set of nodes — typically an eta/mu
    cycle — firing forever) from legitimately long runs: ``hot_nodes``
    lists the top-k hottest nodes by fire count.
    """

    def __init__(self, message: str, event_limit: int, cycle: int,
                 hot_nodes: list[tuple[str, int]] | None = None):
        self.event_limit = event_limit
        self.cycle = cycle
        self.hot_nodes = hot_nodes or []
        if self.hot_nodes:
            hottest = ", ".join(f"{label} x{count}"
                                for label, count in self.hot_nodes)
            message += f"; hottest nodes: {hottest}"
        super().__init__(message)


class SimulationTimeout(SimulationError):
    """A simulation exceeded its wall-clock budget (cooperative check)."""

    def __init__(self, message: str, limit: float, elapsed: float):
        self.limit = limit
        self.elapsed = elapsed
        super().__init__(f"{message} (wall limit {limit:.1f}s, "
                         f"elapsed {elapsed:.1f}s)")


class MemoryFault(SimulationError):
    """An out-of-bounds or unmapped memory access during simulation."""

    def __init__(self, message: str, address: int | None = None):
        self.address = address
        if address is not None:
            message = f"{message} (address {address:#x})"
        super().__init__(message)


class WorkloadError(ReproError):
    """A benchmark program failed its built-in self-check."""

