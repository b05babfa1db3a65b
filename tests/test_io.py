import json

import pytest

from nestfill.errors import Claim, SpecError
from nestfill.galois import Field
from nestfill.groups import chain_field_tower, chain_omega_ring, chain_subfield_tower
from nestfill.io import (
    _FIELDS,
    DesignFile,
    annotations,
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
    ([[0, 1], [0, "x"], [0]], "ragged design rows"),
    ([[0, 1], [0], [0, "x"]], "ragged design rows"),
], ids=["bool", "float", "text", "short", "text-before-short", "short-before-text"])
def test_first_bad_row_named(rows, message):
    """A bad cell or short row anywhere, the last row included, is refused;
    the row widths are checked before the cell types, so a short row is
    named first wherever it stands."""
    with pytest.raises(SpecError, match=f"^{message}$"):
        DesignFile(type="design", rows=rows)


_COMMON = {"chain": {"kind": "field-tower", "p": 2, "u_chain": [1]}, "seeds": {"lift": 1},
           "permutations": [[1, 0]], "meta": {"method": "fixture"},
           "symbols": {"0": "0", "1": "1"}}
# one valid file of each type, carrying every key its type may carry
_VALUES = {
    "oa": {"type": "oa", "rows": [[0, 1], [1, 0]], "s": 2, "t_claimed": 2, **_COMMON,
           "layer_prefixes": [1, 2], "slice_size": 1, "collapse_layer": 1},
    "dm": {"type": "dm", "rows": [[0, 1], [1, 0]], "s": 2, **_COMMON, "layer_prefixes": [2]},
    "design": {"type": "design", "rows": [[0, 1], [1, 0]], "s": 2, "t_claimed": 2, **_COMMON,
               "layer_prefixes": [1, 2], "slice_size": 1},
    "lh": {"type": "lh", "rows": [[0, 1], [1, 0]], **_COMMON,
           "grids": [{"grid": 2, "rows": 2}], "scale": 2},
}


def test_every_field_round_trips_in_table_order():
    """`DesignFile` has one field per `_FIELDS` key, and `to_dict` writes them
    in table order, `rows` last, so `from_dict` reads back an equal file."""
    assert {k for v in _VALUES.values() for k in v} == set(_FIELDS)
    assert DesignFile._fields == tuple(_FIELDS)
    for kind, values in _VALUES.items():
        assert set(values) == {k for k, (_, _, types) in _FIELDS.items() if kind in types}
        d = DesignFile(**values)
        data = d.to_dict()
        assert list(data) == ["format", "version", "type", "n", "m",
                              *[k for k in list(_FIELDS)[2:] if k in values], "rows"]
        assert DesignFile.from_dict(data) == d


# an invalid value of every design-file key, the same after a JSON round trip
_BAD = {
    "type": "table", "rows": [[0, 1], 5], "s": 0, "t_claimed": -1, "chain": [],
    "layer_prefixes": [0], "slice_size": "1", "collapse_layer": True,
    "grids": [{"grid": 2}], "scale": 0, "seeds": [], "permutations": {}, "meta": [],
    "symbols": [],
}


@pytest.mark.parametrize("key", list(_FIELDS))
def test_bad_field_refused_when_built(key, tmp_path):
    """`DesignFile` refuses an invalid field with the message `load` gives for
    it, so no writer can emit a file that does not load (such as an `lh`
    file with `scale` 0)."""
    assert set(_BAD) == set(_FIELDS)
    values = next(v for v in _VALUES.values() if key in v)  # a type that may carry `key`
    message = f"design field {key!r} must be {_FIELDS[key][1]}, got {_BAD[key]!r}"
    with pytest.raises(SpecError) as built:
        DesignFile(**{**values, key: _BAD[key]})
    assert str(built.value) == message
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**DesignFile(**values).to_dict(), key: _BAD[key]}))
    with pytest.raises(SpecError) as loaded:
        load(path)
    assert str(loaded.value) == message


_NEEDS_BOTH = "a sliced claim needs both 'slice_size' and 'collapse_layer'"


@pytest.mark.parametrize("fields, message", [
    ({"type": "lh", "grids": [{"grid": 2, "rows": 3}]},
     "grid claim on the first 3 rows of a 2-row design"),
    ({"type": "lh", "grids": [{"grid": 2, "slice_size": 3}]},
     "slice size 3 does not divide the 2 rows of the design"),
    ({"type": "oa", "slice_size": 3, "collapse_layer": 1},
     "slice size 3 does not divide the 2 rows of the design"),
    ({"type": "design", "slice_size": 3}, "slice size 3 does not divide the 2 rows of the design"),
    ({"type": "lh", "scale": 3}, "scale 3 of a Latin hypercube is not its row count 2"),
    ({"type": "oa", "layer_prefixes": [2, 2]}, "layer prefixes [2, 2] are not strictly increasing"),
    ({"type": "dm", "layer_prefixes": [1]}, "last layer prefix 1 is not the row count 2"),
    ({"type": "design", "t_claimed": 3}, "strength 3 exceeds column count 2"),
    ({"type": "oa", "slice_size": 1}, _NEEDS_BOTH),
    ({"type": "oa", "collapse_layer": 1}, _NEEDS_BOTH),
], ids=["grid-rows", "grid-slice", "oa-slice", "design-slice", "lh-scale", "prefix-order",
        "last-prefix", "strength", "slice-size-alone", "collapse-layer-alone"])
def test_annotation_that_does_not_fit_the_rows_refused_when_built(fields, message):
    """Every annotation rule that needs no chain holds for each `DesignFile`,
    so no writer or library caller can build one that `verify` refuses."""
    with pytest.raises(SpecError) as built:
        DesignFile(rows=[[0, 1], [1, 0]], **fields)
    assert str(built.value) == message


@pytest.mark.parametrize("claims, message", [
    ([Claim("oa", strength=2), Claim("dm")], "claims record both 'oa' and 'dm' as 'type'"),
    ([Claim("oa", strength=2), Claim("oa", strength=3)],
     "claims record both 2 and 3 as 't_claimed'"),
    ([Claim("strat", rows=(0, 4)), Claim("nested", rows=(2, 4), layers=(1, 2))],
     "claims record both 'lh' and 'oa' as 'type'"),
])
def test_claims_one_file_cannot_record_refused(claims, message):
    """A claim list that would give one annotation key two values records no
    file: `annotations` refuses it naming the key and both values."""
    with pytest.raises(SpecError) as err:
        annotations(claims)
    assert str(err.value) == message


@pytest.mark.parametrize("claim", [
    Claim("strat", rows=(4, 8), strength=2),  # a grid on rows 4..8, not 0..8
    Claim("oa", rows=(0, 4)),                  # a row range, not the whole matrix
    Claim("oa", layers=(1,)),                  # a collapse layer, not the top level count
])
def test_claim_the_keys_cannot_record_refused(claim):
    """A claim that would read back as another claim records no file:
    `annotations` refuses it naming the claim."""
    with pytest.raises(SpecError) as err:
        annotations([claim])
    assert str(err.value) == f"no annotation keys record the claim {claim}"


def test_unknown_field_is_a_type_error():
    with pytest.raises(TypeError, match="strength"):
        DesignFile(type="oa", rows=[[0]], strength=2)


def test_json_one_row_per_line(tmp_path):
    d = DesignFile(type="lh", rows=[[0, 2, 1], [2, 1, 0], [1, 0, 2]], scale=3,
                   grids=[{"grid": 1, "rows": 3}], meta={"method": "fixture"})
    text = save_json(d, tmp_path / "d.json").read_text()
    assert json.loads(text) == d.to_dict()
    header = json.dumps({k: v for k, v in d.to_dict().items() if k != "rows"}, indent=2)
    assert text == (header[:-len("\n}")] + ',\n  "rows": [\n'
                    "    [0,2,1],\n    [2,1,0],\n    [1,0,2]\n  ]\n}\n")


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
