import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import topochain as tc
from topochain import spectral, transient
from topochain.cli import _center_cells, load_preset, main, preset_names, run_command
from topochain.errors import InvalidParams, UnknownKey

from conftest import ROWS
from reference import lattice_nodes


def write_config(path: Path, row: int, n_cells: int = 2, boundary: str = "open",
                 **sections) -> Path:
    r1, r2, c1, c2, l = ROWS[row]
    cfg = {"circuit": {"r1": r1, "r2": r2, "c1": c1, "c2": c2, "l": l,
                       "n_cells": n_cells, "boundary": boundary}}
    cfg.update(sections)
    path.write_text(json.dumps(cfg))
    return path


def run(command: str, cfg: Path, out: Path, *extra: str) -> int:
    return main([command, "--config", str(cfg), "--out", str(out), *extra])


def test_bands_outputs(tmp_path):
    cfg = write_config(tmp_path / "b.json", 4, bands={"n_k": 128})
    assert run("bands", cfg, tmp_path / "out") == 0
    outdir = tmp_path / "out" / "bands-b"
    got = {p.name for p in outdir.iterdir()}
    assert got == {"bands.csv", "lambda.csv", "bands_meta.json",
                   "resolved_config.json"}
    meta = json.loads((outdir / "bands_meta.json").read_text())
    assert meta["closure_permutation"] == [0, 2, 1, 3]
    assert meta["gap_per_branch"]["omega6"] > 1.0
    header = (outdir / "bands.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["k", "omega3_re", "omega3_im"]


def test_bands_json_format(tmp_path):
    cfg = write_config(tmp_path / "b.json", 1, bands={"n_k": 128})
    assert run("bands", cfg, tmp_path / "out", "--format", "json") == 0
    outdir = tmp_path / "out" / "bands-b"
    data = json.loads((outdir / "bands.json").read_text())
    assert len(data["k"]) == 128
    assert set(data["branches"]) == {"omega3", "omega4", "omega5", "omega6"}
    assert not (outdir / "bands.csv").exists()


def test_resolved_config_echoes_defaults(tmp_path):
    cfg = write_config(tmp_path / "w.json", 1)
    assert run("winding", cfg, tmp_path / "out") == 0
    echo = json.loads(
        (tmp_path / "out" / "winding-w" / "resolved_config.json").read_text())
    assert set(echo) == {"circuit", "winding"}
    assert echo["winding"] == {"n_k": 1024}
    assert echo["circuit"]["r1"] == 1.34
    assert echo["circuit"]["boundary"] == "open"
    # a nested perturbation is echoed with its own defaults merged in
    cfg = write_config(tmp_path / "e.json", 4, n_cells=10,
                       eigvecs={"n_k": 128, "perturbation": {"fraction": 0.05}})
    assert run("eigvecs", cfg, tmp_path / "out") == 0
    echo = json.loads(
        (tmp_path / "out" / "eigvecs-e" / "resolved_config.json").read_text())
    assert echo["eigvecs"]["perturbation"] == {"cells": None, "fraction": 0.05}


def test_winding_report_row1(tmp_path):
    cfg = write_config(tmp_path / "w.json", 1, winding={"n_k": 256})
    assert run("winding", cfg, tmp_path / "out") == 0
    rep = json.loads(
        (tmp_path / "out" / "winding-w" / "winding.json").read_text())
    assert rep["multiset"] == [1, 1]
    assert rep["undefined"] == ["omega4", "omega5"]
    assert rep["branches"]["omega3"]["winding"] == 1
    assert rep["branches"]["omega3"]["quadrature_residual"] < 1e-3
    assert rep["branches"]["omega4"]["winding"] is None
    assert "note" in rep["branches"]["omega4"]


def test_skin_report(tmp_path):
    cfg = write_config(tmp_path / "s.json", 1,
                       skin={"n_k": 256, "branches": ["omega3", "omega4"]})
    assert run("skin", cfg, tmp_path / "out") == 0
    outdir = tmp_path / "out" / "skin-s"
    rep = json.loads((outdir / "skin.json").read_text())
    assert rep == {"omega3": {"present": False, "partner": "omega3"},
                   "omega4": {"present": True, "partner": "omega5"}}
    assert sorted(f.name for f in outdir.iterdir()) \
        == ["resolved_config.json", "skin.json"]


def test_skin_partners_swap_on_row2(tmp_path):
    """The hybrid pair swaps at the zone boundary, so omega4's last sample
    continues into omega5's first and the reverse; each reports the other
    as its partner, the m branches themselves."""
    cfg = write_config(tmp_path / "s.json", 2, skin={})
    assert run("skin", cfg, tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out" / "skin-s" / "skin.json").read_text())
    assert {lab: (r["present"], r["partner"]) for lab, r in rep.items()} == {
        "omega3": (False, "omega3"), "omega4": (True, "omega5"),
        "omega5": (True, "omega4"), "omega6": (False, "omega6")}


def test_eigvecs_report_with_perturbation(tmp_path):
    cfg = write_config(
        tmp_path / "e.json", 4, n_cells=40,
        eigvecs={"n_k": 128, "branch": "omega6",
                 "perturbation": {"fraction": 0.05}})
    assert run("eigvecs", cfg, tmp_path / "out") == 0
    outdir = tmp_path / "out" / "eigvecs-e"
    rep = json.loads((outdir / "spectrum.json").read_text())
    assert rep["branch"] == "omega6"
    assert rep["winding"] == 1
    assert rep["gap"] > 1.0
    assert rep["labels"].count("Edge") == 2
    assert rep["notes"] == []
    pert = rep["perturbation"]
    assert pert["cells"] == [19, 20, 21]
    assert pert["edge_state_drift"] < pert["bulk_state_drift"]
    lines = (outdir / "eigvecs.csv").read_text().splitlines()
    assert len(lines) == 81
    assert lines[0].split(",")[:2] == ["site", "state0"]


def test_default_perturbation_cells_inside_chain(tmp_path):
    assert _center_cells(2) == [0, 1]
    assert _center_cells(20) == [9, 10, 11]
    cfg = write_config(tmp_path / "c.json", 4, n_cells=2,
                       eigvecs={"n_k": 128, "perturbation": {}})
    assert run("eigvecs", cfg, tmp_path / "out") == 0


def test_eigvecs_hybrid_branch_notes_undefined_winding(tmp_path):
    cfg = write_config(tmp_path / "h.json", 4, n_cells=40,
                       eigvecs={"n_k": 128, "branch": "omega4"})
    assert run("eigvecs", cfg, tmp_path / "out") == 0
    rep = json.loads(
        (tmp_path / "out" / "eigvecs-h" / "spectrum.json").read_text())
    assert rep["winding"] is None
    assert any("origin" in n for n in rep["notes"])


def test_transient_outputs(tmp_path):
    cfg = write_config(
        tmp_path / "t.json", 4, n_cells=4,
        transient={"n_k": 128, "branch": "omega6", "max_samples": 2000})
    assert run("transient", cfg, tmp_path / "out") == 0
    outdir = tmp_path / "out" / "transient-t"
    rep = json.loads((outdir / "transient.json").read_text())
    assert rep["drive"]["branch"] == "omega6"
    assert rep["drive"]["k"] == pytest.approx(3.141592653589793, abs=0.03)
    assert len(rep["profile"]) == 8
    assert sum(rep["profile"]) == pytest.approx(1.0, rel=1e-9)
    assert set(rep["fits"]) == {"0", "2", "4", "5", "7"}
    assert rep["final_energy"] > 0.0
    header = (outdir / "trace.csv").read_text().splitlines()[0].split(",")
    assert header == ["time", "v0", "i0", "v2", "i2", "v4", "i4",
                      "v5", "i5", "v7", "i7"]
    assert (outdir / "energy.csv").exists()


def test_transient_fits_each_distinct_column_once(tmp_path, monkeypatch):
    """Mirror nodes of a mirror-symmetric run carry equal ground currents,
    so 0/7 and 2/5 share a fit: three fits for five watched nodes, and each
    entry is what fitting its own trace.csv column gives."""
    fit = transient.fit_damped_oscillation
    calls = []
    monkeypatch.setattr(transient, "fit_damped_oscillation",
                        lambda *a: calls.append(a) or fit(*a))
    cfg = write_config(
        tmp_path / "t.json", 4, n_cells=4,
        transient={"n_k": 128, "branch": "omega6", "max_samples": 2000})
    assert run("transient", cfg, tmp_path / "out") == 0
    assert len(calls) == 3
    outdir = tmp_path / "out" / "transient-t"
    rep = json.loads((outdir / "transient.json").read_text())
    header = (outdir / "trace.csv").read_text().splitlines()[0].split(",")
    table = np.loadtxt(outdir / "trace.csv", delimiter=",", skiprows=1)
    for node, entry in rep["fits"].items():
        column = table[:, header.index(f"i{node}")]
        assert entry == json.loads(json.dumps(
            dataclasses.asdict(fit(table[:, 0], column, rep["fit_t0"]))))


def test_csv_formats_each_distinct_column_once(tmp_path):
    """A column bitwise equal to an earlier one repeats its strings, and
    only those: 0.0 against -0.0 and 1 against 1.0 compare equal in numpy
    but print differently.  The text is what formatting every column gives."""
    formatted = []

    class Cell:
        def __init__(self, text):
            self.text = text

        def __str__(self):
            formatted.append(self.text)
            return self.text

    cells = np.array([Cell("a"), Cell("b")], dtype=object)
    columns = [np.array([0.5, 0.0]), cells, np.array([0.5, -0.0]), np.array([1, 2]),
               np.array([1.0, 2.0]), cells, np.array([0.5, 0.0]), cells.copy()]
    header = [f"c{i}" for i in range(len(columns))]
    tc.cli._write_csv(tmp_path / "t.csv", header, columns)
    # three references to the same two cells and a copy of their pointers:
    # formatted once
    assert formatted == ["a", "b"]
    want = [",".join(header)] + [",".join(str(col[r]) for col in columns)
                                 for r in range(2)]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"
    assert want[1] == "0.5,a,0.5,1,1.0,a,0.5,a"
    assert want[2] == "0.0,b,-0.0,2,2.0,b,0.0,b"


def test_transient_marks_fits_past_rms_bound(tmp_path):
    """A fit whose residual RMS exceeds FIT_RMS_BOUND carries a note: the
    beating fig8a end and mid nodes (0.97, 0.88) do, no fig8b node (at most
    0.072) does."""
    for name, marked in (("fig8a", {"0", "260", "519"}), ("fig8b", set())):
        outdir = tmp_path / name
        run_command("transient", load_preset(name), outdir, "csv")
        fits = json.loads((outdir / "transient.json").read_text())["fits"]
        assert {node for node, f in fits.items() if "note" in f} == marked
        for f in fits.values():
            assert ("note" in f) == (f["rms_residual"] > transient.FIT_RMS_BOUND)


def test_run_command_refuses_unknown_format(tmp_path):
    """fmt outside bands' csv and json is refused before the run directory
    exists, not written as CSV."""
    with pytest.raises(InvalidParams, match="--format"):
        run_command("bands", load_preset("fig3"), tmp_path / "out", "xml")
    assert not (tmp_path / "out").exists()


def test_netlist_command(tmp_path):
    cfg = write_config(tmp_path / "n.json", 1, n_cells=3,
                       transient={"n_k": 128, "branch": "omega6"})
    assert run("netlist", cfg, tmp_path / "out") == 0
    text = (tmp_path / "out" / "netlist-n" / "chain.cir").read_text()
    assert len(lattice_nodes(text)) == 6
    echo = json.loads(
        (tmp_path / "out" / "netlist-n" / "resolved_config.json").read_text())
    assert "transient" in echo


def test_sweep_csv(tmp_path):
    points = [
        dict(zip(("r1", "r2", "c1", "c2", "l"), ROWS[1]), n_cells=2),
        dict(zip(("r1", "r2", "c1", "c2", "l"), ROWS[2]), n_cells=2),
    ]
    cfg = write_config(tmp_path / "sw.json", 1,
                       sweep={"points": points, "n_k": 256})
    assert run("sweep", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "sweep-sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "r1,r2,c1,c2,l,mu_multiset,min_gap,skin"
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "1|1"
    assert lines[2].split(",")[5] == "0|0"


def test_sweep_repeat_runs_write_the_same_bytes(tmp_path):
    draws = np.random.default_rng(5001).uniform(0.05, 2.0, size=(32, 5))
    points = [dict(zip(("r1", "r2", "c1", "c2", "l"), row.tolist()), n_cells=2)
              for row in draws]
    cfg = write_config(tmp_path / "sw.json", 1, sweep={"points": points})
    assert run("sweep", cfg, tmp_path / "o1") == 0
    assert run("sweep", cfg, tmp_path / "o2") == 0
    one = (tmp_path / "o1" / "sweep-sw" / "sweep.csv").read_bytes()
    assert one.count(b"\n") == 33
    assert (tmp_path / "o2" / "sweep-sw" / "sweep.csv").read_bytes() == one


def test_run_command_refuses_threads(tmp_path):
    """threads=1 is the only value run_command takes: the sweep runs
    serially, and any other value is refused before the run directory
    exists."""
    with pytest.raises(InvalidParams, match="threads"):
        run_command("sweep", load_preset("table1_row1"), tmp_path / "out", "csv",
                    threads=2)
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_unchecked_skin(tmp_path):
    """check_skin takes only true: false wrote the skin 0 of "checked, none"."""
    cfg = write_config(tmp_path / "sw.json", 1, sweep={"check_skin": False})
    assert run("sweep", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag", [("winding", ["--format", "json"]),
                                           ("bands", ["--threads", "2"]),
                                           ("sweep", ["--threads", "2"])])
def test_flags_only_where_read(tmp_path, command, flag):
    """--format exists only on bands, and no subcommand takes --threads."""
    cfg = write_config(tmp_path / "c.json", 1)
    with pytest.raises(SystemExit) as exc:
        run(command, cfg, tmp_path / "out", *flag)
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_repeat_runs_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "w.json", 1, winding={"n_k": 256})
    assert run("winding", cfg, tmp_path / "o1") == 0
    assert run("winding", cfg, tmp_path / "o2") == 0
    a = (tmp_path / "o1" / "winding-w" / "winding.json").read_bytes()
    b = (tmp_path / "o2" / "winding-w" / "winding.json").read_bytes()
    assert a == b


def test_out_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOCHAIN_OUT", str(tmp_path / "envroot"))
    cfg = write_config(tmp_path / "w.json", 2, winding={"n_k": 256})
    assert main(["winding", "--config", str(cfg)]) == 0
    assert (tmp_path / "envroot" / "winding-w" / "winding.json").exists()


def test_presets_bundled():
    names = preset_names()
    assert len(names) == 14
    assert "table1_row1" in names and "fig8d" in names
    for name in names:
        cfg = load_preset(name)
        assert "circuit" in cfg


def test_config_error_exit_codes(tmp_path, capsys):
    # missing circuit section
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"winding": {"n_k": 256}}))
    assert run("winding", bad, tmp_path / "out") == 2
    # unknown top-level key
    cfg = write_config(tmp_path / "k.json", 1, windings={"n_k": 256})
    assert run("winding", cfg, tmp_path / "out") == 2
    # unknown key inside a section
    cfg = write_config(tmp_path / "s.json", 1, winding={"n_q": 256})
    assert run("winding", cfg, tmp_path / "out") == 2
    # malformed JSON
    garbage = tmp_path / "g.json"
    garbage.write_text("{not json")
    assert run("winding", garbage, tmp_path / "out") == 2
    # unknown preset
    assert main(["winding", "--preset", "nonsense",
                 "--out", str(tmp_path / "out")]) == 2
    # a directory, and a file that is not UTF-8, are no config
    (tmp_path / "d").mkdir()
    (tmp_path / "latin.json").write_bytes(b'{"circuit": "\xe9"}')
    for name in ("d", "latin.json"):
        assert run("winding", tmp_path / name, tmp_path / "out") == 2, name
        assert not (tmp_path / "out" / f"winding-{Path(name).stem}").exists(), name
    # unknown branch label, refused before the band is traced at a grid
    # band_trace itself refuses, and before the run directory is made
    cfg = write_config(tmp_path / "b.json", 1,
                       transient={"branch": "omega9", "n_k": 32})
    assert run("transient", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "transient-b").exists()
    # wrong-typed values, unknown nested keys, out-of-range perturbations,
    # bad sweep points and bad source nodes, refused the same way
    point = dict(zip(("r1", "r2", "c1", "c2", "l"), ROWS[1]))
    for i, (command, section) in enumerate([
        ("winding", {"n_k": "abc"}),
        ("transient", {"dt": "x"}),
        ("eigvecs", {"perturbation": 5}),
        ("eigvecs", {"perturbation": {"fractoin": 0.1}}),
        ("sweep", {"points": 5}),
        ("sweep", {"points": [5]}),
        ("skin", {"branches": "omega4"}),
        ("skin", {"scan": 50}),
        ("skin", {"branches": []}),
        ("eigvecs", {"n_k": 128, "perturbation": {"cells": [999]}}),
        ("eigvecs", {"n_k": 128, "perturbation": {"fraction": 0.5}}),
        ("sweep", {"points": [point, dict(point, zz=1)]}),
        ("transient", {"source_nodes": [1, 999]}),
        ("netlist", {"source_nodes": [1, 999]}),
        ("transient", {"source_nodes": []}),
        ("transient", {"fit_t0_periods": 1.0}),
    ]):
        key = "transient" if command == "netlist" else command
        cfg = write_config(tmp_path / f"t{i}.json", 1, n_cells=20,
                           **{key: section})
        assert run(command, cfg, tmp_path / "out") == 2, section
        assert not (tmp_path / "out" / f"{command}-t{i}").exists(), section
    err = capsys.readouterr().err
    assert "config error" in err


def test_config_refused_before_computation(tmp_path, monkeypatch):
    """An out-of-range perturbation is refused before any eigensolve, and a
    bad sweep point before any point's band is traced."""
    calls = {"eigendecompose": 0, "band_trace": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(spectral, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(spectral, name, counted)
    cfg = write_config(tmp_path / "e.json", 4, n_cells=20,
                       eigvecs={"n_k": 128, "perturbation": {"cells": [999]}})
    assert run("eigvecs", cfg, tmp_path / "out") == 2
    assert calls["eigendecompose"] == 0
    calls["band_trace"] = 0
    point = dict(zip(("r1", "r2", "c1", "c2", "l"), ROWS[1]))
    cfg = write_config(tmp_path / "s.json", 1,
                       sweep={"points": [point, dict(point, zz=1)]})
    assert run("sweep", cfg, tmp_path / "out") == 2
    assert calls["band_trace"] == 0


def test_numeric_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", 1, bands={"n_k": 32})
    assert run("bands", cfg, tmp_path / "out") == 3
    assert "numeric error" in capsys.readouterr().err


def test_output_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = write_config(tmp_path / "w.json", 1, winding={"n_k": 256})
    assert run("winding", cfg, blocker / "sub") == 4
    assert "output error" in capsys.readouterr().err


def test_run_command_rejects_unknown_command(tmp_path):
    cfg = json.loads(write_config(tmp_path / "c.json", 1).read_text())
    with pytest.raises(InvalidParams, match="unknown command 'foo'"):
        run_command("foo", cfg, tmp_path / "out", "csv")
    assert not (tmp_path / "out").exists()


def test_run_command_rejects_netlist_section(tmp_path):
    """The netlist command reads the transient section; a top-level netlist
    section is an unknown key like any other."""
    cfg = json.loads(write_config(tmp_path / "c.json", 1).read_text())
    cfg["netlist"] = {"dt": "nonsense"}
    with pytest.raises(UnknownKey, match="netlist"):
        run_command("netlist", cfg, tmp_path / "out", "csv")
    assert not (tmp_path / "out").exists()


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "topochain.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("bands", "winding", "transient", "sweep"):
        assert name in proc.stdout
