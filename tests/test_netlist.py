from pathlib import Path

import pytest

import topochain as tc
from topochain.errors import InvalidParams
from topochain.netlist import netlist_text, node_name

from conftest import row_params
from reference import lattice_nodes

DATA = Path(__file__).parent / "data"


def golden_open_setup():
    return tc.TransientSetup(row_params(1, n_cells=2), drive_frequency=1.5)


def golden_periodic_setup():
    p = row_params(4, n_cells=3, boundary=tc.Boundary.PERIODIC)
    return tc.TransientSetup(p, drive_frequency=3.77, source_nodes=(1, 4))


def test_golden_open_chain_bytes():
    want = (DATA / "golden_open_n2.cir").read_text()
    assert netlist_text(golden_open_setup()) == want


def test_golden_periodic_chain_bytes():
    want = (DATA / "golden_periodic_n3.cir").read_text()
    assert netlist_text(golden_periodic_setup()) == want


def counts(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for line in text.splitlines():
        head = line.split()[0].split("_")[0]
        out[head] = out.get(head, 0) + 1
    return out


def test_element_counts_open():
    c = counts(netlist_text(golden_open_setup()))
    assert c["R1"] == 2 and c["C1"] == 2
    assert c["R2"] == 1 and c["C2"] == 1
    assert c["L"] == 4
    assert c["VSRC1"] == c["VSRC2"] == c["S1"] == c["S2"] == c["VSW"] == 1


def test_element_counts_periodic_wraps():
    text = netlist_text(golden_periodic_setup())
    c = counts(text)
    assert c["R2"] == 3 and c["C2"] == 3
    assert c["L"] == 6
    # the wrap bond returns to the first cell through its own midpoint
    assert "C2_3 m3_w n1_A" in text


def test_node_name_interleaving():
    assert node_name(0) == "n1_A"
    assert node_name(1) == "n1_B"
    assert node_name(2) == "n2_A"
    assert node_name(5) == "n3_B"


def test_lattice_nodes_round_trip():
    text = netlist_text(golden_open_setup())
    assert lattice_nodes(text) == ["n1_A", "n1_B", "n2_A", "n2_B"]
    text = netlist_text(golden_periodic_setup())
    assert lattice_nodes(text) == [
        "n1_A", "n1_B", "n2_A", "n2_B", "n3_A", "n3_B"]


def test_lattice_nodes_rejects_foreign_text():
    with pytest.raises(InvalidParams):
        lattice_nodes("* comment only\n.end\n")


def test_drive_frequency_exported_in_hz():
    text = netlist_text(golden_open_setup())
    vsrc = [ln for ln in text.splitlines() if ln.startswith("VSRC1")][0]
    hz = float(vsrc.split()[-1].rstrip(")"))
    assert hz == pytest.approx(1.5 / (2.0 * 3.141592653589793), rel=1e-12)


def test_switch_release_time_matches_setup():
    setup = golden_periodic_setup()
    text = netlist_text(setup)
    vsw = [ln for ln in text.splitlines() if ln.startswith("VSW")][0]
    release = float(vsw.split("PULSE(1 0 ")[1].split()[0])
    assert release == pytest.approx(setup.switch_open_time, rel=1e-12)
