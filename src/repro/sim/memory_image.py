"""A byte-addressable memory image shared by both interpreters.

Memory objects (globals, string literals, and stack slots of the flattened
program) are laid out once; both interpreters then read and write through
integer addresses, which is what makes pointer aliasing behave identically
in the oracle and in the dataflow simulator.

Address 0 up to ``NULL_GUARD`` is never mapped, so null-pointer dereferences
fault deterministically.
"""

from __future__ import annotations

import math
import struct

from repro.errors import MemoryFault
from repro.frontend import ast
from repro.frontend import types as ty

NULL_GUARD = 0x1000
ALIGNMENT = 8
DEFAULT_EXTERN_ELEMENTS = 1024


class MemoryImage:
    """Flat little-endian memory with named object layout."""

    def __init__(self, objects: list[ast.Symbol] | None = None,
                 extern_elements: int = DEFAULT_EXTERN_ELEMENTS):
        self._layout: dict[ast.Symbol, tuple[int, int]] = {}
        self._top = NULL_GUARD
        self.extern_elements = extern_elements
        self._data = bytearray()
        for symbol in objects or []:
            self.allocate(symbol)

    # ------------------------------------------------------------------
    # Layout

    def allocate(self, symbol: ast.Symbol) -> int:
        """Allocate (and zero/initialize) storage for a memory object."""
        if symbol in self._layout:
            return self._layout[symbol][0]
        size = self._object_size(symbol)
        base = _align(self._top, ALIGNMENT)
        self._top = base + size
        self._layout[symbol] = (base, size)
        needed = self._top - NULL_GUARD
        if needed > len(self._data):
            self._data.extend(b"\0" * (needed - len(self._data)))
        self._initialize(symbol, base)
        return base

    def _object_size(self, symbol: ast.Symbol) -> int:
        type_ = symbol.type
        if isinstance(type_, ty.ArrayType):
            length = type_.length
            if length is None:
                length = self.extern_elements
            return max(1, length * type_.element.size)
        return max(1, type_.size)

    def _initialize(self, symbol: ast.Symbol, base: int) -> None:
        values = symbol.init_values
        if not values:
            return
        if isinstance(symbol.type, ty.ArrayType):
            element = symbol.type.element
            for index, value in enumerate(values):
                self.write(base + index * element.size, value, element)
        else:
            self.write(base, values[0], symbol.type)

    def addr_of(self, symbol: ast.Symbol) -> int:
        if symbol not in self._layout:
            raise MemoryFault(f"object {symbol.name!r} was never allocated")
        return self._layout[symbol][0]

    @property
    def size(self) -> int:
        return self._top

    # ------------------------------------------------------------------
    # Access

    def _check(self, addr: int, size: int) -> int:
        addr &= 2**64 - 1
        if addr < NULL_GUARD:
            raise MemoryFault("null or near-null dereference", addr)
        if addr + size > self._top:
            raise MemoryFault("access beyond allocated memory", addr)
        return addr - NULL_GUARD

    def read(self, addr: int, type_: ty.Type):
        """Read a typed value from ``addr``."""
        size = type_.size if not type_.is_pointer else 8
        offset = self._check(addr, size)
        raw = bytes(self._data[offset:offset + size])
        if isinstance(type_, ty.FloatType):
            return struct.unpack("<f" if size == 4 else "<d", raw)[0]
        value = int.from_bytes(raw, "little")
        if isinstance(type_, ty.IntType):
            return type_.wrap(value)
        return value  # pointer

    def write(self, addr: int, value, type_: ty.Type) -> None:
        """Write a typed value to ``addr``."""
        size = type_.size if not type_.is_pointer else 8
        offset = self._check(addr, size)
        if isinstance(type_, ty.FloatType):
            if math.isnan(value):
                raw = struct.pack("<f" if size == 4 else "<d", math.nan)
            else:
                raw = struct.pack("<f" if size == 4 else "<d", float(value))
        else:
            mask = (1 << (size * 8)) - 1
            raw = (int(value) & mask).to_bytes(size, "little")
        self._data[offset:offset + size] = raw

    # ------------------------------------------------------------------
    # Convenience for tests and workloads

    def read_array(self, symbol: ast.Symbol, count: int | None = None,
                   element: ty.Type | None = None) -> list:
        type_ = symbol.type
        assert isinstance(type_, ty.ArrayType)
        element = element or type_.element
        if count is None:
            count = type_.length or self.extern_elements
        base = self.addr_of(symbol)
        return [self.read(base + i * element.size, element) for i in range(count)]

    def write_array(self, symbol: ast.Symbol, values, element: ty.Type | None = None) -> None:
        type_ = symbol.type
        assert isinstance(type_, ty.ArrayType)
        element = element or type_.element
        base = self.addr_of(symbol)
        for index, value in enumerate(values):
            self.write(base + index * element.size, value, element)

    def snapshot(self) -> bytes:
        """The raw contents, for differential comparison."""
        return bytes(self._data)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment
