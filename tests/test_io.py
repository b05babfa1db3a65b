import json

import pytest

from nestfill.errors import SpecError
from nestfill.galois import Field
from nestfill.groups import chain_field_tower, chain_omega_ring, chain_subfield_tower
from nestfill.io import (
    _FIELDS,
    DesignFile,
    export_scatter,
    load,
    save_csv,
    save_json,
    symbols_for,
)


def small_design():
    return DesignFile(
        type="design",
        rows=[[0, 1], [1, 0], [0, 0], [1, 1]],
        s=2,
        t_claimed=1,
        meta={"method": "fixture"},
    )


def test_empty_design_rejected():
    with pytest.raises(SpecError):
        DesignFile(type="design", rows=[])
    with pytest.raises(SpecError):
        DesignFile(type="design", rows=[[]])


def test_ragged_rows_rejected():
    with pytest.raises(SpecError):
        DesignFile(type="design", rows=[[0, 1], [0]])


def test_non_integer_cells_rejected():
    with pytest.raises(SpecError):
        DesignFile(type="design", rows=[[0, "x"]])


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1, 0], [0, True]], "design rows must hold integer level codes"),
    ([[0, 1], [1, 0], [0, 1.0]], "design rows must hold integer level codes"),
    ([[0, 1], [1, 0], [0, "x"]], "design rows must hold integer level codes"),
    ([[0, 1], [1, 0], [0]], "ragged design rows"),
    ([[0, 1], [0, "x"], [0]], "design rows must hold integer level codes"),
    ([[0, 1], [0], [0, "x"]], "ragged design rows"),
], ids=["bool", "float", "text", "short", "text-before-short", "short-before-text"])
def test_first_bad_row_named(rows, message):
    """A bad cell or short row anywhere, the last row included, is refused
    with the message of the first bad row."""
    with pytest.raises(SpecError, match=f"^{message}$"):
        DesignFile(type="design", rows=rows)


# a valid value of every design-file key
_VALUES = {
    "type": "oa", "rows": [[0, 1], [1, 0]], "s": 2, "t_claimed": 2,
    "chain": {"kind": "field-tower", "p": 2, "u_chain": [1]}, "layer_prefixes": [2],
    "slice_size": 1, "collapse_layer": 1, "grids": [{"grid": 2, "rows": 2}], "scale": 2,
    "seeds": {"lift": 1}, "permutations": [[1, 0]], "meta": {"method": "fixture"},
    "symbols": {"0": "0", "1": "1"},
}


def test_every_field_round_trips_in_table_order():
    """`DesignFile` has one field per `_FIELDS` key, and `to_dict` writes them
    in table order, `rows` last, so `from_dict` reads back an equal file."""
    assert set(_VALUES) == set(_FIELDS) and DesignFile._fields == tuple(_FIELDS)
    d = DesignFile(**_VALUES)
    data = d.to_dict()
    assert list(data) == ["format", "version", "type", "n", "m", *list(_FIELDS)[2:], "rows"]
    assert DesignFile.from_dict(data) == d


def test_unknown_field_is_a_type_error():
    with pytest.raises(TypeError, match="strength"):
        DesignFile(type="oa", rows=[[0]], strength=2)


def test_json_one_row_per_line(tmp_path):
    d = DesignFile(type="lh", rows=[[0, 12, 3], [12, 3, 0], [3, 0, 12]], scale=13,
                   grids=[{"grid": 1, "rows": 3}], meta={"method": "fixture"})
    text = save_json(d, tmp_path / "d.json").read_text()
    assert json.loads(text) == d.to_dict()
    header = json.dumps({k: v for k, v in d.to_dict().items() if k != "rows"}, indent=2)
    assert text == (header[:-len("\n}")] + ',\n  "rows": [\n'
                    "    [0,12,3],\n    [12,3,0],\n    [3,0,12]\n  ]\n}\n")


def test_indented_json_loads(tmp_path):
    """Files written one integer per line still load."""
    d = small_design()
    path = tmp_path / "d.json"
    path.write_text(json.dumps(d.to_dict(), indent=2) + "\n")
    assert load(path) == d


def test_json_round_trip(tmp_path):
    d = small_design()
    path = save_json(d, tmp_path / "d.json")
    back = load(path)
    assert back.rows == d.rows
    assert back.s == 2 and back.t_claimed == 1
    assert back.meta == {"method": "fixture"}


def test_csv_round_trip(tmp_path):
    d = small_design()
    path = save_csv(d, tmp_path / "d.csv")
    back = load(path)
    assert back.rows == d.rows
    assert back.type == "design"


def test_csv_without_meta_rejected(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("x1,x2\n0,1\n")
    with pytest.raises(SpecError):
        load(p)


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(SpecError):
        load(p)


def test_foreign_json_rejected(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"rows": [[0]]}))
    with pytest.raises(SpecError):
        load(p)


def test_scatter_needs_two_dims(tmp_path):
    d = DesignFile(type="lh", rows=[[0], [1]])
    with pytest.raises(SpecError):
        export_scatter(d, tmp_path / "s")


def test_scatter_pair_files(tmp_path):
    d = DesignFile(type="lh", rows=[[0, 1, 2], [2, 0, 1]])
    paths = export_scatter(d, tmp_path / "s")
    assert [p.name for p in paths] == ["s_x1_x2.csv", "s_x1_x3.csv", "s_x2_x3.csv"]
    assert paths[0].read_text() == "x1,x2\n0,1\n2,0\n"


@pytest.mark.parametrize("chain", [
    chain_field_tower(2, [1, 2, 3]),
    chain_subfield_tower(2, [1, 2]),
    chain_omega_ring([Field(2, 2), Field(2, 2)]),
], ids=["field-tower", "subfield-tower", "omega-gf4"])
def test_symbols_are_element_text(chain):
    codes = list(range(chain.top_size))
    rows = [codes[::-1], codes]
    symbols = symbols_for(chain, rows)
    assert symbols == {str(c): chain.group.text_code(c) for c in codes}
    assert list(symbols) == [str(c) for c in codes]


def test_csv_with_blank_lines_loads_and_verifies(tmp_path, capsys):
    """Blank lines in a CSV export, between rows or at the end, are skipped:
    the file loads to the exported rows and still verifies."""
    from nestfill.cli import main

    design, csv = tmp_path / "a.json", tmp_path / "a.csv"
    assert main(["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2", "--k", "2",
                 "--out", str(design)]) == 0
    assert main(["export", "--design", str(design), "--format", "csv", "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:4] + ["\n", "  \n"] + lines[4:] + ["\n"]))
    assert load(csv).rows == load(design).rows
    assert main(["verify", "--design", str(csv)]) == 0
