"""SPICE-compatible netlist export for cross-checking in a circuit simulator.

Lattice nodes are named n<cell>_<A|B> with cells 1-based; ground is 0.
Every RC bond needs an internal midpoint node (two-terminal cards), named
m<cell>_v for the in-cell bond and m<cell>_w for the bond to the next cell.
The two drive sources sit behind voltage-controlled switches driven by one
shared control source that drops at the release time, so the exported
circuit follows the same protocol as the internal simulator.
"""

from __future__ import annotations

from .circuit import chain_bonds
from .transient import TransientSetup

SWITCH_MODEL = ".model swmod sw(ron=1e-3 roff=1e9 vt=0.5 vh=0)"


def node_name(index: int) -> str:
    return f"n{index // 2 + 1}_{'A' if index % 2 == 0 else 'B'}"


def _num(x: float) -> str:
    return repr(float(x))


def netlist_text(setup: TransientSetup) -> str:
    params = setup.params
    n = params.n_cells
    lines = ["* rlc chain transient export"]
    tail, head = chain_bonds(n, params.boundary)
    for bond, (t, h) in enumerate(zip(tail.tolist(), head.tolist())):
        j = bond % n + 1
        pair, mid, r, c = (("1", f"m{j}_v", params.r1, params.c1) if bond < n
                           else ("2", f"m{j}_w", params.r2, params.c2))
        lines.append(f"R{pair}_{j} {node_name(t)} {mid} {_num(r)}")
        lines.append(f"C{pair}_{j} {mid} {node_name(h)} {_num(c)}")
    for i in range(2 * n):
        nm = node_name(i)
        lines.append(f"L_{nm} {nm} 0 {_num(params.l)}")
    freq_hz = setup.drive_frequency / (2.0 * 3.141592653589793)
    for s, node in enumerate(setup.source_nodes, start=1):
        lines.append(
            f"VSRC{s} src{s} 0 SIN(0 {_num(setup.source_amplitude)} {_num(freq_hz)})"
        )
        lines.append(f"S{s} src{s} {node_name(node)} swctl 0 swmod")
    lines.append(
        f"VSW swctl 0 PULSE(1 0 {_num(setup.switch_open_time)} 1e-9 1e-9 1e12 2e12)"
    )
    lines.append(SWITCH_MODEL)
    lines.append(f".tran {_num(setup.dt)} {_num(setup.t_end)}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
