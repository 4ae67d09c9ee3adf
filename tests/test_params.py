import json

import numpy as np
import pytest

import topochain as tc
from topochain.errors import InvalidParams, MissingKey, UnknownKey

from conftest import row_params


def test_fields_and_defaults():
    p = row_params(1)
    assert p.n_cells == 2
    assert p.boundary is tc.Boundary.OPEN
    assert (p.r1, p.r2, p.c1, p.c2, p.l) == (1.34, 0.17, 0.95, 0.45, 0.81)


def test_frozen():
    p = row_params(1)
    with pytest.raises(AttributeError):
        p.r1 = 2.0


@pytest.mark.parametrize("kw", [
    {"c1": 0.0}, {"c2": -1.0}, {"l": 0.0}, {"r1": -0.5},
    {"n_cells": 1}, {"n_cells": 0},
    {"n_cells": 4.0}, {"n_cells": 4.5}, {"n_cells": True}, {"n_cells": "4"},
    {"r1": float("nan")}, {"r2": float("nan")}, {"c1": float("nan")},
    {"c2": float("nan")}, {"l": float("nan")},
    {"r1": float("inf")}, {"r2": float("inf")}, {"c1": float("inf")},
    {"c2": float("-inf")}, {"l": float("inf")},
])
def test_rejects_bad_values(kw):
    base = dict(r1=1.0, r2=1.0, c1=1.0, c2=1.0, l=1.0, n_cells=4)
    base.update(kw)
    with pytest.raises(InvalidParams, match=next(iter(kw))):
        tc.CircuitParams(**base)


def test_numpy_integer_cell_count_accepted():
    p = tc.CircuitParams(1.0, 1.0, 1.0, 1.0, 1.0, n_cells=np.int64(4))
    assert p.n_cells == 4
    setup = tc.TransientSetup(p, 1.0, source_nodes=(np.int64(2), np.int64(5)))
    assert tc.assemble_state_space(setup).n_nodes == 8


def test_lossless_is_constructible():
    # R = 0 is a valid spectral-side limit; only the integrator refuses it
    p = tc.CircuitParams(0.0, 0.0, 1.0, 1.0, 1.0)
    assert p.r1 == 0.0


def test_pole_frequencies():
    p = row_params(4)
    f1, f2 = p.pole_frequencies()
    assert f1 == pytest.approx(1j / (0.05 * 0.03))
    assert f2 == pytest.approx(1j / (1.41 * 1.34))


def test_mapping_roundtrip():
    src = {"r1": 0.1, "r2": 0.2, "c1": 0.3, "c2": 0.4, "l": 0.5,
           "n_cells": 7, "boundary": "periodic"}
    p = tc.circuit_from_mapping(src)
    assert p.n_cells == 7
    assert p.boundary is tc.Boundary.PERIODIC


def test_mapping_missing_key():
    with pytest.raises(MissingKey) as err:
        tc.circuit_from_mapping({"r1": 0.1})
    assert "circuit." in str(err.value)


def test_mapping_unknown_key():
    src = {"r1": 0.1, "r2": 0.2, "c1": 0.3, "c2": 0.4, "l": 0.5, "zz": 1}
    with pytest.raises(UnknownKey):
        tc.circuit_from_mapping(src)


def test_mapping_bad_boundary():
    src = {"r1": 0.1, "r2": 0.2, "c1": 0.3, "c2": 0.4, "l": 0.5,
           "boundary": "moebius"}
    with pytest.raises(InvalidParams):
        tc.circuit_from_mapping(src)


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"circuit": {"r1": 1, "r2": 1, "c1": 1,
                                            "c2": 1, "l": 1}}))
    cfg = tc.load_config(path)
    assert cfg["circuit"]["r1"] == 1


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(tc.ConfigError):
        tc.load_config(path)
