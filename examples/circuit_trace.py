"""Watching a spatial circuit execute: the activity timeline.

Pipelining is visible directly in the firing pattern: serialized loops
show one lonely memory access at a time; after the §6 transformations the
load and store strips fill in densely. This example traces the Figure-10
copy loop before and after optimization.

Run with:  python examples/circuit_trace.py
"""

from repro import compile_minic
from repro.observe import Observation, busiest_nodes, render_timeline
from repro.sim.memsys import REALISTIC_2PORT

SOURCE = """
int src[128];
int dst[128];

int copyloop(int n)
{
    int i;
    for (i = 0; i < n; i++) dst[i] = src[i] * 3 + 1;
    return dst[n - 1];
}
"""


def trace(level: str) -> None:
    program = compile_minic(SOURCE, "copyloop", opt_level=level)
    obs = Observation(profile=False, critical_path=False, trace=True)
    result = program.simulate([100], memsys=REALISTIC_2PORT,
                              probes=obs.bus)
    print(f"--- opt={level}: {result.cycles} cycles, "
          f"{result.loads} loads / {result.stores} stores")
    print(render_timeline(obs.collector, program.graph, width=64, top=8))
    print("busiest operators:",
          ", ".join(f"{node.label()}#{node.id} x{count}"
                    for node, count in busiest_nodes(obs.collector,
                                                     program.graph, 4)))
    print()


def main() -> None:
    for level in ("none", "medium"):
        trace(level)
    print("In the serialized run the whole timeline is stretched out; in")
    print("the pipelined one every strip is packed to the left — the same")
    print("work finishing in a fraction of the cycles.")


if __name__ == "__main__":
    main()
