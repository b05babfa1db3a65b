import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import (
    KRON_NDM_GF4_Z3_Z2, RELABELED_NESTED_M3, RELABELED_SLICED_M, RH_NOA_P2_U123_K2, code_of,
)
import nestfill
from nestfill.cli import METHODS, main
from nestfill.errors import SpecError
from nestfill.galois import Field
from nestfill.groups import Zn, chain_from_descriptor, chain_omega_ring
from nestfill.io import DesignFile, load

NESTED_PERMS = [[4, 1, 2, 7, 6, 5, 3, 0], [5, 2, 0, 7, 3, 4, 1, 6], [2, 6, 1, 4, 3, 5, 7, 0]]
SLICED_PERMS = [[0, 1, 2, 3, 7, 6, 5, 4], [7, 6, 5, 4, 1, 0, 2, 3], [0, 1, 3, 2, 4, 5, 7, 6]]


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def rh_design(tmp_path):
    out = tmp_path / "a3.json"
    assert run("construct", "--method", "rh-noa", "--p", "2", "--u", "1,2,3",
               "--k", "2", "--out", str(out)) == 0
    return out


class TestConstruct:
    def test_rh_reproduces_reference_rows(self, rh_design):
        design = load(rh_design)
        f = Field(2, 3)
        want = [[code_of(f, t) for t in row] for row in RH_NOA_P2_U123_K2]
        assert design.rows == want
        texts = [
            tuple(design.symbols[str(c)] for c in row) for row in design.rows
        ]
        assert texts == RH_NOA_P2_U123_K2

    def test_report_written_and_green(self, rh_design):
        report = json.loads((rh_design.parent / "a3.json.verify.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) > 0

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("x1.json", "x2.json"):
            out = tmp_path / name
            assert run("construct", "--method", "rh-noa", "--p", "2", "--u",
                       "1,2,3", "--k", "2", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_reverify_clean(self, rh_design):
        assert run("verify", "--design", str(rh_design)) == 0

    def test_bush_precondition_exit_code(self, tmp_path):
        out = tmp_path / "bush.json"
        code = run("construct", "--method", "bush-noa", "--p", "2", "--u", "1,2",
                   "--k", "4", "--out", str(out))
        assert code == 2

    def test_bush_boundary_case_succeeds(self, tmp_path):
        # s_1 = k-1 = 2 is allowed and passes the strength-3 oracle
        out = tmp_path / "bush.json"
        assert run("construct", "--method", "bush-noa", "--p", "2", "--u", "1,2",
                   "--k", "3", "--out", str(out)) == 0
        design = load(out)
        assert design.t_claimed == 3
        assert run("verify", "--design", str(out)) == 0

    def test_bush_over_field_tower_with_prime_layer_one(self, tmp_path):
        """A field tower with u_1 = 1 needs no divisibility: layer 1 is GF(p),
        every layer a GF(p)-space, so the u = 1,2,3 tower builds, verifies
        and lifts nested."""
        chain = tmp_path / "gf8.json"
        chain.write_text('{"kind": "field-tower", "p": 2, "u_chain": [1, 2, 3]}')
        out, lifted = tmp_path / "bush.json", tmp_path / "bush-nested.json"
        assert run("construct", "--method", "bush-noa", "--chain", str(chain),
                   "--k", "2", "--out", str(out)) == 0
        assert (load(out).n, load(out).m) == (64, 3)
        assert run("verify", "--design", str(out)) == 0
        assert run("lift", "--design", str(out), "--mode", "nested", "--seed", "1",
                   "--out", str(lifted)) == 0
        assert run("verify", "--design", str(lifted)) == 0

    def test_subfield_method(self, tmp_path):
        out = tmp_path / "sub.json"
        assert run("construct", "--method", "subfield-noa", "--p", "2", "--u",
                   "2,4", "--k", "2", "--out", str(out)) == 0
        design = load(out)
        assert (design.n, design.m, design.s) == (256, 5, 16)

    def test_explicit_columns(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("construct", "--method", "rh-noa", "--p", "2", "--u", "1,2,3",
                   "--k", "3", "--columns", "1,0,0;0,1,0;0,0,1;1,1,1",
                   "--out", str(out)) == 0
        assert load(out).m == 4

    def test_missing_chain_params(self, tmp_path):
        assert run("construct", "--method", "rh-noa", "--k", "2",
                   "--out", str(tmp_path / "x.json")) == 2


@pytest.fixture()
def example3_inputs(tmp_path):
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(chain.descriptor()))
    tables = {
        "d1.json": (4, [("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")]),
        "d2.json": (3, [("0", "0", "0"), ("0", "w", "2w"), ("0", "2w", "w")]),
        "d3.json": (2, [("0", "0", "0"), ("0", "0", "w2"), ("0", "w2", "0"), ("0", "w2", "w2")]),
    }
    paths = []
    for name, (s, rows) in tables.items():
        payload = {
            "format": "nestfill-design", "version": "0.1.0", "type": "dm",
            "n": len(rows), "m": 3, "s": s,
            "rows": [[code_of(chain, t) for t in row] for row in rows],
        }
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths.append(p)
    return chain, chain_file, paths


def _write_input(path, rows, s, dtype="oa", t=2):
    payload = {
        "format": "nestfill-design", "version": "0.1.0", "type": dtype,
        "n": len(rows), "m": len(rows[0]), "s": s, "t_claimed": t, "rows": rows,
    }
    path.write_text(json.dumps(payload))
    return path


class TestKronConstruct:
    def test_kron_soa_example(self, tmp_path):
        from golden import KRON_SOA_INPUT_A1, KRON_SOA_INPUT_A2

        chain = chain_omega_ring([Zn(6), Zn(2)])
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(chain.descriptor()))
        a1 = _write_input(
            tmp_path / "a1.json", [list(r) for r in KRON_SOA_INPUT_A1], 6
        )
        a2 = _write_input(
            tmp_path / "a2.json",
            [[code_of(chain, t) for t in row] for row in KRON_SOA_INPUT_A2], 2,
        )
        out = tmp_path / "b.json"
        assert run("construct", "--method", "kron-soa", "--chain", str(chain_file),
                   "--input", str(a1), "--input", str(a2), "--out", str(out)) == 0
        design = load(out)
        assert (design.n, design.m, design.s) == (144, 3, 12)
        assert design.slice_size == 36 and design.collapse_layer == 1
        assert run("verify", "--design", str(out)) == 0

    def test_kron_noa_two_layers(self, tmp_path):
        chain = chain_omega_ring([Zn(2), Zn(2)])
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps(chain.descriptor()))
        tr1 = chain.transversal_codes(1)
        tr2 = chain.transversal_codes(2)
        mk = lambda tr: [
            [tr[a], tr[b], tr[(a + b) % 2]] for a in range(2) for b in range(2)
        ]
        a1 = _write_input(tmp_path / "a1.json", mk(tr1), 2)
        a2 = _write_input(tmp_path / "a2.json", mk(tr2), 2)
        out = tmp_path / "b2.json"
        assert run("construct", "--method", "kron-noa", "--chain", str(chain_file),
                   "--input", str(a1), "--input", str(a2), "--out", str(out)) == 0
        design = load(out)
        assert (design.n, design.s, design.layer_prefixes) == (16, 4, [4, 16])
        assert run("verify", "--design", str(out)) == 0

    def test_ndm_product(self, tmp_path):
        from nestfill.arrays import rao_hamming_oa
        from nestfill.groups import chain_field_tower

        chain = chain_field_tower(2, [1, 2])
        a = rao_hamming_oa(chain.field, chain.layer_codes(2), 2)
        a_file = _write_input(tmp_path / "a.json", a.matrix.codes(), 4)
        out = tmp_path / "prod.json"
        assert run("construct", "--method", "ndm-product", "--p", "2", "--u", "1,2",
                   "--input", str(a_file), "--out", str(out)) == 0
        design = load(out)
        assert (design.n, design.m) == (64, 10)
        assert design.layer_prefixes == [32, 64]
        dm = load(tmp_path / "prod-dm.json")
        assert (dm.type, dm.n, dm.m) == ("dm", 4, 2)
        assert run("verify", "--design", str(out)) == 0
        assert run("verify", "--design", str(tmp_path / "prod-dm.json")) == 0

    def test_kron_ndm_reproduces_reference(self, tmp_path, example3_inputs):
        chain, chain_file, paths = example3_inputs
        out = tmp_path / "e3.json"
        argv = ["construct", "--method", "kron-ndm", "--chain", str(chain_file),
                "--out", str(out)]
        for p in paths:
            argv += ["--input", str(p)]
        assert run(*argv) == 0
        design = load(out)
        texts = [
            tuple(design.symbols[str(c)] for c in row) for row in design.rows
        ]
        assert texts == KRON_NDM_GF4_Z3_Z2
        assert design.layer_prefixes == [4, 12, 48]
        assert run("verify", "--design", str(out)) == 0


class TestLift:
    def test_relabel_only_nested_matches_reference(self, tmp_path, rh_design):
        perms = tmp_path / "p.json"
        perms.write_text(json.dumps({"kind": "nested", "values": NESTED_PERMS}))
        out = tmp_path / "m3.json"
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--stage", "relabel-only", "--perms", str(perms),
                   "--out", str(out)) == 0
        design = load(out)
        assert design.rows == [list(r) for r in RELABELED_NESTED_M3]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b3e6aae2ea9b7a613c045f2b614c6050d46419a2c0220673c6543a6470a8215d")
        assert run("verify", "--design", str(out)) == 0

    def test_relabel_only_sliced_matches_reference(self, tmp_path, rh_design):
        perms = tmp_path / "p.json"
        perms.write_text(json.dumps({"kind": "sliced", "values": SLICED_PERMS}))
        out = tmp_path / "m.json"
        assert run("lift", "--design", str(rh_design), "--mode", "sliced",
                   "--stage", "relabel-only", "--perms", str(perms),
                   "--out", str(out)) == 0
        assert load(out).rows == [list(r) for r in RELABELED_SLICED_M]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "865b081c0a0bac6270d096616b272d809ce61fc6d121401df86dc8643efdad27")

    def test_relabel_only_perms_refuses_seed(self, tmp_path, rh_design, capsys):
        """A relabel-only lift with explicit permutations draws nothing, so a
        --seed given beside them is refused rather than silently dropped."""
        perms = tmp_path / "p.json"
        perms.write_text(json.dumps({"kind": "nested", "values": NESTED_PERMS}))
        out = tmp_path / "m3.json"
        capsys.readouterr()
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--stage", "relabel-only", "--perms", str(perms), "--seed", "99",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --seed is not read by a relabel-only lift with --perms"]
        assert not out.exists()

    def test_relabel_only_lift_of_file_without_strength_verifies(self, tmp_path, rh_design):
        """An `oa` file without `t_claimed` is checked at strength 2, and so is
        the `design` file its relabel-only lift writes, which copies `s` but
        has no strength to copy."""
        data = json.loads(rh_design.read_text())
        del data["t_claimed"]
        source, out = tmp_path / "no-t.json", tmp_path / "m.json"
        source.write_text(json.dumps(data))
        assert run("verify", "--design", str(source)) == 0
        assert run("lift", "--design", str(source), "--mode", "nested",
                   "--stage", "relabel-only", "--seed", "1", "--out", str(out)) == 0
        design = load(out)
        assert (design.type, design.s, design.t_claimed) == ("design", 8, None)
        report = tmp_path / "r.json"
        assert run("verify", "--design", str(out), "--out", str(report)) == 0
        assert _check_names(report) == ["oa-strength"]

    def test_full_lift_deterministic(self, tmp_path, rh_design):
        outs = []
        for name in ("l1.json", "l2.json"):
            out = tmp_path / name
            assert run("lift", "--design", str(rh_design), "--mode", "nested",
                       "--seed", "7", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_full_lift_verifies(self, tmp_path, rh_design):
        out = tmp_path / "lh.json"
        assert run("lift", "--design", str(rh_design), "--mode", "sliced",
                   "--seed", "3", "--out", str(out)) == 0
        assert run("verify", "--design", str(out)) == 0
        design = load(out)
        assert design.type == "lh"
        assert design.seeds == {"lift": 3}

    def test_seed_variable_is_not_read(self, tmp_path, rh_design, monkeypatch):
        """`--seed` is the one seed input: a NESTFILL_SEED in the environment
        leaves a lift without --seed at seed 0."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("NESTFILL_SEED", "99")
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--out", str(a)) == 0
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--seed", "0", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_perm_layers_rejected(self, tmp_path, rh_design, capsys):
        perms = tmp_path / "p.json"
        perms.write_text(json.dumps({"kind": "nested", "values": [[1, 0]] * 3}))
        capsys.readouterr()
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--perms", str(perms), "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: [1, 0] is not a nested permutation for layers [2, 4, 8]"]

    def test_misaligned_prefixes_rejected(self, tmp_path, rh_design):
        data = json.loads(rh_design.read_text())
        data["layer_prefixes"] = [4, 64]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("lift", "--design", str(bad), "--mode", "nested",
                   "--out", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize("stage", ["full", "relabel-only"])
    def test_lift_keeps_the_chain_as_provenance(self, tmp_path, rh_design, stage):
        """A lift's rows are integer levels, so its file has no top-level
        `chain`; `meta.source_chain` is the base's."""
        out = tmp_path / "l.json"
        assert run("lift", "--design", str(rh_design), "--mode", "nested", "--stage", stage,
                   "--seed", "1", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert "chain" not in data
        assert data["meta"]["source_chain"] == json.loads(rh_design.read_text())["chain"]

    @staticmethod
    def _lift_with_chain(tmp_path, rh_design, stage, chain=None):
        """A sliced lift of `rh_design` with a top-level `chain` put back, as
        older lifts carried one: `chain`, or else the base's."""
        out, old = tmp_path / "l.json", tmp_path / "old.json"
        assert run("lift", "--design", str(rh_design), "--mode", "sliced", "--stage", stage,
                   "--seed", "1", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        data["chain"] = chain or data["meta"]["source_chain"]
        old.write_text(json.dumps(data))
        return old

    @pytest.mark.parametrize("stage", ["full", "relabel-only"])
    def test_lift_with_the_base_chain_put_back_verifies(self, tmp_path, rh_design, stage):
        old = self._lift_with_chain(tmp_path, rh_design, stage)
        assert run("verify", "--design", str(old)) == 0

    @pytest.mark.parametrize("stage", ["full", "relabel-only"])
    def test_lift_with_a_malformed_chain_put_back_exits_2(self, tmp_path, rh_design, capsys,
                                                          stage):
        """A `chain` on an `lh` or `design` file is still built and checked."""
        old = self._lift_with_chain(tmp_path, rh_design, stage,
                                    {"kind": "field-tower", "p": 4, "u_chain": [1, 2]})
        capsys.readouterr()
        assert run("verify", "--design", str(old)) == 2
        assert capsys.readouterr().err.splitlines() == ["error: p=4 is not prime"]

    def test_grouped_mode(self, tmp_path, rh_design):
        out = tmp_path / "g.json"
        assert run("lift", "--design", str(rh_design), "--mode", "grouped",
                   "--i", "2", "--j", "2", "--group-order", "0,2,1,3",
                   "--seed", "1", "--out", str(out)) == 0
        assert run("verify", "--design", str(out)) == 0


class TestVerifyAndExport:
    def test_verify_catches_corruption(self, tmp_path, rh_design):
        data = json.loads(rh_design.read_text())
        data["rows"][0][0] = 5  # break the first cell
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("verify", "--design", str(bad)) == 3

    def test_round_trip_json_csv_json(self, tmp_path, rh_design):
        csv_path = tmp_path / "a3.csv"
        back = tmp_path / "back.json"
        assert run("export", "--design", str(rh_design), "--format", "csv",
                   "--out", str(csv_path)) == 0
        assert run("export", "--design", str(csv_path), "--format", "json",
                   "--out", str(back)) == 0
        assert load(back).rows == load(rh_design).rows
        assert run("verify", "--design", str(csv_path)) == 0

    @pytest.mark.parametrize("argv", [
        ["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2", "--k", "2"],
        ["lift", "--design", "{rh}", "--mode", "nested", "--seed", "1"],
        ["export", "--design", "{rh}", "--format", "json"],
    ], ids=["construct", "lift", "export-json"])
    @pytest.mark.parametrize("name", ["x.csv", "x.CSV"])
    def test_json_written_to_a_csv_path_reads_back(self, argv, name, tmp_path, rh_design):
        """Text starting with "{" reads as JSON whatever its suffix, so each
        JSON writer's output verifies under a .csv name too."""
        out = tmp_path / name
        assert run(*(a.format(rh=rh_design) for a in argv), "--out", str(out)) == 0
        assert out.read_text().startswith("{")
        assert run("verify", "--design", str(out)) == 0

    def test_scatter_export(self, tmp_path, rh_design):
        lh = tmp_path / "lh.json"
        assert run("lift", "--design", str(rh_design), "--mode", "nested",
                   "--seed", "5", "--out", str(lh)) == 0
        prefix = tmp_path / "scatter"
        assert run("export", "--design", str(lh), "--format", "scatter",
                   "--out", str(prefix)) == 0
        files = sorted(tmp_path.glob("scatter_*.csv"))
        assert len(files) == 3
        for f in files:
            lines = f.read_text().strip().splitlines()
            assert len(lines) == 65  # header + 64 points

    def test_missing_file_is_spec_error(self, tmp_path):
        assert run("verify", "--design", str(tmp_path / "nope.json")) == 2


_DESIGN = '"format": "nestfill-design", "version": "0.1.0"'
CONSTRUCT_RH = ["construct", "--method", "rh-noa", "--k", "2", "--out", "x.json"]
LIFT_NESTED = ["lift", "--design", "{rh}", "--mode", "nested", "--out", "x.json"]
CONSTRUCT_NDM = ["construct", "--method", "ndm-product", "--p", "2", "--u", "1,2",
                 "--out", "x.json"]


def _gf4_oa(code):
    """A GF(4) field-tower `oa` file with `code` in one cell."""
    return ('{%s, "type": "oa", "rows": [[0, %d], [1, 0]], "layer_prefixes": [1, 2], '
            '"chain": {"kind": "field-tower", "p": 2, "u_chain": [1, 2]}}' % (_DESIGN, code))


def _rh_u12(prefixes):
    """The rh-noa p2 u1,2 k2 `oa` file (the reference table's first 16 rows)
    with `prefixes` as its layer prefixes."""
    f = Field(2, 2)
    rows = [[code_of(f, t) for t in row] for row in RH_NOA_P2_U123_K2[:16]]
    return ('{%s, "type": "oa", "s": 4, "t_claimed": 2, "rows": %s, "layer_prefixes": %s, '
            '"chain": {"kind": "field-tower", "p": 2, "u_chain": [1, 2]}}'
            % (_DESIGN, json.dumps(rows), json.dumps(prefixes)))


def _gf4_dm(prefixes):
    """The D(4, 2, 4) `dm` file of ndm-product p2 u1,2 with `prefixes`."""
    return ('{%s, "type": "dm", "rows": [[0, 0], [0, 1], [0, 2], [0, 3]], '
            '"layer_prefixes": %s, "chain": {"kind": "field-tower", "p": 2, "u_chain": [1, 2]}}'
            % (_DESIGN, json.dumps(prefixes)))


def _lh16(grids):
    """A 16-row Latin hypercube `lh` file (one point per cell of the 4 x 4
    grid) claiming `grids`."""
    rows = [[4 * a + b, 4 * b + a] for a in range(4) for b in range(4)]
    return ('{%s, "type": "lh", "scale": 16, "rows": %s, "grids": %s}'
            % (_DESIGN, json.dumps(rows), json.dumps(grids)))


def _rh_u12_sliced(**keys):
    """The 16-row `_rh_u12` file with prefixes [4, 16] plus sliced annotations."""
    return json.dumps({**json.loads(_rh_u12([4, 16])), **keys})


def _chainless(kind, rows, **keys):
    """A `kind` design file with `rows` and `keys` but no chain."""
    return json.dumps({"format": "nestfill-design", "version": "0.1.0", "type": kind,
                       "rows": rows, **keys})


def _gf8_oa(s):
    """The rao-hamming OA(64, 9, 8, 2) over the top layer of the p2 u1,2,3
    field tower, as an input file declaring `s` levels."""
    from nestfill.arrays import rao_hamming_oa
    from nestfill.groups import chain_field_tower

    oa = rao_hamming_oa(chain_field_tower(2, [1, 2, 3]).field, range(8), 2)
    return _chainless("oa", oa.matrix.codes(), s=s, t_claimed=2)


def _zn5_kron_noa(s2):
    """A kron-noa job over omega(Z5, Z5): the chain file and two OA(25, 3, 5, 2)
    inputs over transversals 1 and 2, the second declaring `s2` levels."""
    chain = chain_omega_ring([Zn(5), Zn(5)])
    files = {"c.json": json.dumps(chain.descriptor())}
    for i, s in ((1, 5), (2, s2)):
        tr = chain.transversal_codes(i)
        rows = [[tr[a], tr[b], tr[(a + b) % 5]] for a in range(5) for b in range(5)]
        files[f"a{i}.json"] = _chainless("oa", rows, s=s, t_claimed=2)
    argv = ["construct", "--method", "kron-noa", "--chain", "c.json", "--input", "a1.json",
            "--input", "a2.json", "--out", "x.json"]
    return files, argv


# a one-column strength-1 nested OA over GF(2) < GF(4): it verifies, and its
# relabeling does too, but a full lift's 2-D grid claims could never hold
_STRENGTH_1_OA = json.dumps({
    "format": "nestfill-design", "version": "0.1.0", "type": "oa", "s": 4, "t_claimed": 1,
    "chain": {"kind": "field-tower", "p": 2, "u_chain": [1, 2]}, "layer_prefixes": [2, 4],
    "rows": [[0], [1], [2], [3]]})


def _with_keys(text, **keys):
    """The design file `text` with `keys` added or replaced."""
    return json.dumps({**json.loads(text), **keys})


def _rh_u12_swapped():
    """`_rh_u12([4, 16])` with rows 1 (0,1,1) and 5 (0,3,3) swapped: both
    collapse alike under rho_1, but code 3 of layer 2 now sits in the
    layer-1 prefix."""
    data = json.loads(_rh_u12([4, 16]))
    rows = data["rows"]
    rows[1], rows[5] = rows[5], rows[1]
    return json.dumps(data)


def _rh_u12_csv(cell, header="x1,x2,x3"):
    """The CSV export of `_rh_u12([4, 16])` with `cell` in place of its first
    data cell (a 0) and `header` in place of its header."""
    data = json.loads(_rh_u12([4, 16]))
    lines = [",".join(map(str, r)) for r in data.pop("rows")]
    lines[0] = cell + lines[0][1:]
    return "# meta=%s\n%s\n%s\n" % (json.dumps(data), header, "\n".join(lines))


def _rh_u12_csv_two_metas():
    """The CSV export of `_rh_u12([4, 16])` with a second meta line after its
    first: type `design`, without `s`, `t_claimed` or `layer_prefixes`."""
    meta_line, *rest = _rh_u12_csv("0").splitlines(keepends=True)
    meta = json.loads(meta_line[len("# meta="):])
    for key in ("s", "t_claimed", "layer_prefixes"):
        del meta[key]
    return meta_line + "# meta=%s\n" % json.dumps({**meta, "type": "design"}) + "".join(rest)


_CSV_CELLS = ["0_0", "+0", "01", "\u0661", "1],[2"]  # first cells that leave no JSON row
_GRID_EXTRA_KEYS = [{"strength": 3}, {"dims": [0, 1]}]  # grid entry keys no check reads
_BAD_CSV_HEADERS = ["x1,x2", "x1junk", "x2,x1,x3"]  # headers of 3-column rows
_DEEP = "[" * 200000 + "]" * 200000  # past the JSON decoder's recursion limit
_LONG = "9" * 5000  # past the 4,300-digit limit of int() on a decimal string

CONSTRUCT_NDM_GF8 = ["construct", "--method", "ndm-product", "--p", "2", "--u", "1,2,3",
                     "--input", "a.json"]

_OUT_OF_RANGE = [
    ({"d.json": _gf4_oa(code)}, argv)
    for code in (99, -1)
    for argv in (["verify", "--design", "d.json"],
                 ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"],
                 CONSTRUCT_NDM + ["--input", "d.json"])
]


@pytest.mark.parametrize("files, argv", [
    ({"c.json": '{"kind": "field-tower", "p": 2}'}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"d.json": '{%s, "type": "oa", "rows": [[0]], "chain": {"kind": "omega"}}' % _DESIGN},
     ["verify", "--design", "d.json"]),
    ({"c.json": "not json"}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"d.csv": "# meta={bad\nx1\n0\n"}, ["verify", "--design", "d.csv"]),
    ({}, CONSTRUCT_RH + ["--chain", "nope.json"]),
    ({}, LIFT_NESTED + ["--perms", "nope.json"]),
    ({"p.json": '{"kind": "nested"}'}, LIFT_NESTED + ["--perms", "p.json"]),
    ({"d.json": "{%s}" % _DESIGN}, ["verify", "--design", "d.json"]),
    ({"d.csv": '# meta={%s, "type": "design"}\nx1,x2\n0,a\n' % _DESIGN},
     ["verify", "--design", "d.csv"]),
    ({"d.json": '{%s, "type": "lh", "rows": [[0], [1]], "grids": [{"grid": 0, "rows": 2}]}'
      % _DESIGN}, ["verify", "--design", "d.json"]),
    ({"d.json": '{%s, "type": "oa", "rows": [[0, 1], [1, 0]], "slice_size": 1, '
      '"collapse_layer": 3, "chain": {"kind": "field-tower", "p": 2, "u_chain": [1]}}'
      % _DESIGN}, ["verify", "--design", "d.json"]),
    ({"d.json": '{%s, "type": "lh", "rows": [[true], [0]]}' % _DESIGN},
     ["verify", "--design", "d.json"]),
    ({"d.json": '{%s, "type": "oa", "rows": [[0, 1], [1, 0]], '
      '"chain": {"kind": "omega", "bases": [{"zn": 5000}]}}' % _DESIGN},
     ["verify", "--design", "d.json"]),
    *_OUT_OF_RANGE,
    ({"d.json": _rh_u12([4, 1000])}, ["verify", "--design", "d.json"]),
    ({"d.json": _gf4_dm([1, 2, 4])}, ["verify", "--design", "d.json"]),
    ({"d.json": _gf4_dm([4, 4])}, ["verify", "--design", "d.json"]),
    ({"d.json": _gf4_dm([1, 4])}, ["lift", "--design", "d.json", "--mode", "grouped", "--i", "1",
                                   "--j", "1", "--stage", "relabel-only", "--out", "x.json"]),
    ({"d.json": _gf4_dm([1, 4])}, ["lift", "--design", "d.json", "--mode", "nested",
                                   "--out", "x.json"]),
    ({"d.json": _lh16([{"rows": 100000, "grid": 2}])}, ["verify", "--design", "d.json"]),
    ({"d.json": _lh16([{"slice_size": 1000, "grid": 1}])}, ["verify", "--design", "d.json"]),
    ({"d.json": _lh16([{"slice_size": 5, "grid": 1}])}, ["verify", "--design", "d.json"]),
    ({"d.json": _lh16([{"grid": 2}])}, ["verify", "--design", "d.json"]),
    ({"d.json": _lh16([{"rows": 16, "slice_size": 4, "grid": 2}])},
     ["verify", "--design", "d.json"]),
    ({"d.json": _rh_u12_sliced(slice_size=4)}, ["verify", "--design", "d.json"]),
    ({"d.json": _rh_u12_sliced(collapse_layer=1)}, ["verify", "--design", "d.json"]),
    ({"d.json": _rh_u12_sliced(slice_size=5)}, ["verify", "--design", "d.json"]),
    ({"d.json": _rh_u12_sliced(slice_size=5, collapse_layer=1)},
     ["verify", "--design", "d.json"]),
    *(({"d.json": _chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2, t_claimed=2, **keys)},
       ["verify", "--design", "d.json"])
      for keys in ({"slice_size": 3, "collapse_layer": 1},
                   {"slice_size": 2, "collapse_layer": 1},
                   {"layer_prefixes": [2, 4]})),
    ({"d.json": _chainless("dm", [[0, 1], [1, 0]])}, ["verify", "--design", "d.json"]),
    ({"a.json": _gf8_oa(4)}, CONSTRUCT_NDM_GF8 + ["--out", "x.json"]),
    _zn5_kron_noa(3),
    ({"d.json": _rh_u12_sliced(slice_size=4)},
     ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"]),
    ({"d.json": _rh_u12_sliced(slice_size=5, collapse_layer=1)},
     ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"]),
    *(({"d.json": _rh_u12_sliced(slice_size=4, collapse_layer=9)},
       ["lift", "--design", "d.json", "--mode", mode, "--out", "x.json"])
      for mode in ("nested", "sliced")),
    ({"d.json": _with_keys(_rh_u12([4, 16]), t_claimed=99)},
     ["lift", "--design", "d.json", "--mode", "nested", "--stage", "relabel-only",
      "--out", "x.json"]),
    ({"d.json": _chainless("design", [[0, 1], [1, 0]], s=4)},
     CONSTRUCT_NDM + ["--input", "d.json"]),
    ({**_zn5_kron_noa(5)[0], "a2.json": _lh16([])}, _zn5_kron_noa(5)[1]),
    (_zn5_kron_noa(5)[0], ["construct", "--method", "kron-ndm", "--chain", "c.json",
                           "--input", "a1.json", "--input", "a2.json", "--out", "x.json"]),
    (_zn5_kron_noa(5)[0], _zn5_kron_noa(5)[1] + ["--k", "9", "--columns", "1;0"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,2", "--input", "nope.json"]),
    ({"c.json": '{"kind": "field-tower", "p": 3, "u_chain": [1, 2]}'},
     CONSTRUCT_RH + ["--chain", "c.json", "--p", "2", "--u", "1,2,3"]),
    ({}, ["lift", "--design", "{rh}", "--mode", "grouped", "--i", "2", "--j", "1",
          "--perms", "nope.json", "--out", "x.json"]),
    ({}, LIFT_NESTED + ["--i", "2", "--j", "1", "--group-order", "0,1"]),
    ({"c.json": '{"kind": "omega", "bases": [{"zn": 2}, {"zn": 1}]}',
      "a1.json": _chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2, t_claimed=2),
      "a2.json": _chainless("oa", [[0, 0]], s=1, t_claimed=2)},
     _zn5_kron_noa(5)[1]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,x"]),
    ({"c.json": '{"kind": "omega", "bases": [{"zn": 2}, {"zn": 2}]}'},
     CONSTRUCT_RH + ["--chain", "c.json", "--columns", "1;0"]),
    ({}, ["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2", "--out", "x.json"]),
    ({}, ["construct", "--method", "bush-noa", "--p", "2", "--u", "2,4", "--k", "3",
          "--columns", "1;0", "--out", "x.json"]),
    ({}, CONSTRUCT_NDM + ["--input", "a.json", "--input", "b.json"]),
    (_zn5_kron_noa(5)[0], ["construct", "--method", "kron-noa", "--chain", "c.json",
                           "--out", "x.json"]),
    (_zn5_kron_noa(5)[0], ["construct", "--method", "kron-soa", "--chain", "c.json",
                           "--input", "a1.json", "--out", "x.json"]),
    ({"d.json": _chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2, t_claimed=2)},
     ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"]),
    ({"d.json": '{%s, "type": "oa", "rows": [[0, 1], [1, 0]], '
      '"chain": {"kind": "field-tower", "p": 2, "u_chain": [1, 2]}}' % _DESIGN},
     ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"]),
    ({"p.json": '{"kind": "sliced", "values": []}'}, LIFT_NESTED + ["--perms", "p.json"]),
    ({}, ["lift", "--design", "{rh}", "--mode", "grouped", "--out", "x.json"]),
    ({"d.json": _with_keys(_rh_u12([4, 16]), grids=[{"grid": 3, "rows": 16}])},
     ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_rh_u12([4, 16]), scale=5)}, ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_gf4_dm([2, 4]), slice_size=2, collapse_layer=1)},
     ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_gf4_dm([2, 4]), grids=[{"grid": 2, "rows": 4}])},
     ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_lh16([]), t_claimed=2)}, ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_lh16([]), s=16)}, ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_gf4_dm([2, 4]), t_claimed=2)}, ["verify", "--design", "d.json"]),
    ({"d.json": _rh_u12_swapped()}, ["lift", "--design", "d.json", "--mode", "nested",
                                     "--seed", "1", "--out", "x.json"]),
    ({"d.json": _with_keys(_rh_u12([4, 16]), n=999, m=42)}, ["verify", "--design", "d.json"]),
    ({"d.csv": '# meta={%s, "type": "design", "n": 3, "m": 2}\nx1,x2\n0,1\n1,0\n' % _DESIGN},
     ["verify", "--design", "d.csv"]),
    ({"d.json": _DEEP}, ["verify", "--design", "d.json"]),
    ({"d.csv": f"# meta={_DEEP}\nx1\n0\n"}, ["verify", "--design", "d.csv"]),
    ({"c.json": _DEEP}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"d.json": '{%s, "type": "design", "s": %s, "rows": [[0]]}' % (_DESIGN, _LONG)},
     ["verify", "--design", "d.json"]),
    ({"p.json": '{"kind": "nested", "values": [[%s]]}' % _LONG},
     LIFT_NESTED + ["--perms", "p.json"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,2", "--columns", ""]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,2", "--chain", ""]),
    ({}, LIFT_NESTED + ["--perms", ""]),
    ({}, ["lift", "--design", "{rh}", "--mode", "grouped", "--i", "2", "--j", "1",
          "--group-order", "", "--out", "x.json"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,,2,"]),
    ({}, ["lift", "--design", "{rh}", "--mode", "grouped", "--i", "2", "--j", "1",
          "--group-order", "0,,1", "--out", "x.json"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,2", "--columns", "1,0;1,3"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,2", "--columns", "1,0;1,2"]),
    ({}, ["construct", "--method", "subfield-noa", "--p", "2", "--u", "1,2", "--k", "2",
          "--columns", "1,0;1,2", "--out", "x.json"]),
    ({**_zn5_kron_noa(5)[0], "c.json": json.dumps(
        chain_omega_ring([Zn(5), Zn(5), Zn(5)]).descriptor())},
     ["construct", "--method", "kron-soa", "--chain", "c.json", "--input", "a1.json",
      "--input", "a2.json", "--out", "x.json"]),
    ({"c.json": '{"kind": "lattice"}'}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "omega", "bases": [{"zn": 0}]}'}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "omega", "bases": [{"q": 3}]}'}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "field-tower", "p": 2, "u_chain": [0, 1]}'},
     CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "field-tower", "p": 2, "u_chain": [2, 4]}'},
     ["construct", "--method", "bush-noa", "--chain", "c.json", "--k", "3", "--out", "x.json"]),
    ({}, CONSTRUCT_RH + ["--p", "2", "--u", "1,40"]),
    ({"c.json": '{"kind": "omega", "bases": []}'}, CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "omega", "bases": [{"zn": "3"}]}'},
     CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"c.json": '{"kind": "omega", "bases": [{"gf": {"p": 2, "u": 0}}]}'},
     CONSTRUCT_RH + ["--chain", "c.json"]),
    ({"d.json": _with_keys(_gf4_dm([2, 4]), s=99)}, ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_rh_u12([4, 16]), s=8)}, ["verify", "--design", "d.json"]),
    ({"d.json": _with_keys(_rh_u12([4, 16]), s=8)},
     ["lift", "--design", "d.json", "--mode", "sliced", "--out", "x.json"]),
    ({"d.json": _with_keys(_lh16([]), scale=5)}, ["verify", "--design", "d.json"]),
    *(({"d.csv": _rh_u12_csv(cell)}, ["verify", "--design", "d.csv"]) for cell in _CSV_CELLS),
    ({}, ["construct", "--method", "rh-noa", "--p", "7", "--u", "1,2", "--k", "6",
          "--out", "x.json"]),
    ({"d.csv": _rh_u12_csv_two_metas()}, ["verify", "--design", "d.csv"]),
    ({"d.json": _STRENGTH_1_OA}, ["lift", "--design", "d.json", "--mode", "nested",
                                  "--seed", "1", "--out", "x.json"]),
    ({"d.json": _with_keys(_lh16([{"grid": 4, "rows": 16}]),
                           rows=[[v] for v in range(16)])}, ["verify", "--design", "d.json"]),
    *(({"d.json": _lh16([{"grid": 2, "rows": 16, **key}])}, ["verify", "--design", "d.json"])
      for key in _GRID_EXTRA_KEYS),
    *(({"d.csv": _rh_u12_csv("0", header)}, ["verify", "--design", "d.csv"])
      for header in _BAD_CSV_HEADERS),
], ids=["chain-without-u_chain", "omega-without-bases", "chain-not-json", "csv-bad-meta",
        "missing-chain-file", "missing-perms-file", "perms-without-values",
        "design-without-type-rows", "csv-cell-not-int", "grid-zero",
        "collapse-layer-out-of-range", "bool-cell", "group-too-large-for-tables"]
    + [f"code-out-of-range-{cmd}-{code}" for code in (99, -1)
       for cmd in ("verify", "lift", "construct")]
    + ["prefix-past-rows", "dm-prefixes-per-layer", "dm-prefixes-equal",
       "lift-dm-file-grouped", "lift-dm-file-nested",
       "grid-rows-past-design", "grid-slice-past-design", "grid-slice-not-dividing",
       "grid-without-extent", "grid-rows-and-slice", "oa-slice-size-alone",
       "oa-collapse-layer-alone", "oa-slice-size-5-alone", "oa-slice-size-not-dividing",
       "chainless-oa-sliced-3", "chainless-oa-sliced-2", "chainless-oa-prefixes",
       "chainless-dm", "ndm-input-declares-s-4", "kron-input-2-declares-s-3",
       "lift-oa-slice-size-alone", "lift-oa-slice-size-not-dividing",
       "lift-nested-collapse-layer-outside-chain", "lift-sliced-collapse-layer-outside-chain",
       "lift-relabel-strength-above-columns",
       "ndm-input-design-file", "kron-noa-input-lh-file", "kron-ndm-input-oa-file",
       "kron-noa-k-columns", "rh-noa-input", "chain-beside-p-u", "grouped-perms",
       "nested-i-j-group-order", "kron-noa-chain-not-growing",
       "u-not-integers", "columns-on-omega-chain", "rh-noa-without-k", "bush-noa-columns",
       "ndm-product-two-inputs", "kron-noa-without-input", "kron-soa-one-input",
       "lift-chainless-oa", "lift-oa-without-prefixes", "perms-of-wrong-kind",
       "grouped-without-i-j", "oa-grids", "oa-scale", "dm-sliced", "dm-grids",
       "lh-t-claimed", "lh-s", "dm-t-claimed",
       "lift-nested-prefix-outside-layer", "header-n-m-mismatch", "csv-header-n-mismatch",
       "json-too-deep", "csv-meta-too-deep", "chain-too-deep", "json-int-too-long",
       "perms-int-too-long", "empty-columns", "empty-chain", "empty-perms",
       "empty-group-order", "u-empty-item", "group-order-empty-item",
       "rh-noa-column-code-outside-field", "rh-noa-column-outside-gf-p",
       "subfield-noa-column-outside-layer-1", "kron-soa-three-layer-chain",
       "chain-kind-unknown", "omega-base-zn-0", "omega-base-unknown", "field-tower-u-0",
       "bush-noa-field-tower-u1-above-1", "field-above-table-limit", "omega-bases-empty",
       "omega-base-zn-not-integer", "omega-base-gf-u-0", "dm-s-not-chain-top",
       "oa-s-not-chain-top", "lift-oa-s-not-chain-top", "lh-scale-not-rows",
       "csv-cell-underscore", "csv-cell-plus", "csv-cell-leading-zero",
       "csv-cell-arabic-indic-digit", "csv-line-two-rows", "construct-above-max-cells",
       "csv-two-meta-lines", "lift-strength-1", "grid-on-one-column",
       "grid-key-strength", "grid-key-dims", "csv-header-one-column-short",
       "csv-header-x1junk", "csv-header-columns-out-of-order"])
def test_malformed_input_exits_2(files, argv, tmp_path, rh_design, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    assert run(*(a.format(rh=rh_design) for a in argv)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("mode", ["nested", "sliced"])
def test_relabel_only_lift_of_strength_1_verifies(mode, tmp_path):
    """Only a full lift claims grids: relabeling a strength-1 array writes a
    `design` file that claims strength 1, and it verifies."""
    base, out = tmp_path / "d.json", tmp_path / "r.json"
    base.write_text(_STRENGTH_1_OA)
    assert run("lift", "--design", str(base), "--mode", mode, "--stage", "relabel-only",
               "--seed", "1", "--out", str(out)) == 0
    assert json.loads(out.read_text())["t_claimed"] == 1
    assert run("verify", "--design", str(out), "--out", str(tmp_path / "report.json")) == 0


@pytest.fixture(scope="module")
def rh_texts(tmp_path_factory):
    """A scratch directory and the texts of an rh-noa p2 u1,2 k2 design file
    and of its CSV export."""
    where = tmp_path_factory.mktemp("readers")
    assert run("construct", "--method", "rh-noa", "--p", "2", "--u", "1,2", "--k", "2",
               "--out", str(where / "rh.json")) == 0
    assert run("export", "--design", str(where / "rh.json"), "--format", "csv",
               "--out", str(where / "rh.csv")) == 0
    return where, {fmt: (where / f"rh.{fmt}").read_text() for fmt in ("json", "csv")}


_SCALARS = st.none() | st.booleans() | st.integers(-3, 99) | st.text(max_size=3)
# a value of each JSON type
_JSON_TYPES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-3, 99) | st.integers() | st.floats(),
    "string": st.text(max_size=6),
    "array": st.lists(_SCALARS, max_size=4),
    "object": st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}
_TYPE_NAMES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_design_file_readers_survive_one_mutation(rh_texts, data):
    """`verify` and `export` of a design file, JSON or CSV, with one key given
    a value of another JSON type, one key dropped or one cell rewritten, exit
    0, 2 or 3 without a traceback, and an exit 2 prints exactly one line."""
    where, texts = rh_texts
    fmt = data.draw(st.sampled_from(["json", "csv"]))
    if fmt == "json":
        head = json.loads(texts[fmt])
    else:
        title, meta, header, *lines = texts[fmt].splitlines()
        head = json.loads(meta[len("# meta="):])
    how = data.draw(st.sampled_from(["retype", "drop", "cell"]))
    if how == "cell":
        r, c = data.draw(st.integers(0, 15)), data.draw(st.integers(0, 2))
        if fmt == "json":
            head["rows"][r][c] = data.draw(st.one_of(*_JSON_TYPES.values()))
        else:
            cells = lines[r].split(",")
            cells[c] = data.draw(st.integers(-3, 99).map(str) | st.text(max_size=6))
            lines[r] = ",".join(cells)
    else:
        keys = [(head, k) for k in head] + [(head["chain"], k) for k in head["chain"]]
        owner, key = data.draw(st.sampled_from(keys))
        if how == "drop":
            del owner[key]
        else:
            kind = data.draw(st.sampled_from(
                [t for t in _JSON_TYPES if t != _TYPE_NAMES[type(owner[key])]]))
            owner[key] = data.draw(_JSON_TYPES[kind])
    path = where / f"d.{fmt}"
    if fmt == "json":
        path.write_text(json.dumps(head), encoding="utf-8")
    else:
        path.write_text("\n".join([title, "# meta=" + json.dumps(head), header, *lines]) + "\n",
                        encoding="utf-8")
    for argv in (["verify", "--design", str(path)],
                 ["export", "--design", str(path), "--format", "json",
                  "--out", str(where / "x.json")]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (code, err.getvalue())
        assert code != 2 or len(err.getvalue().splitlines()) == 1, err.getvalue()


# integers far above every size limit, or small: a chain that is built
# anyway before a size check fails fast instead of allocating
_FUZZ_INTS = st.sampled_from([-1, 0, 1, 2, 3, 7, 2000, 10**12])
_FUZZ_VALUES = (st.none() | st.booleans() | _FUZZ_INTS | st.text(max_size=4)
                | st.lists(_FUZZ_INTS, max_size=3)
                | st.dictionaries(st.sampled_from(["zn", "p", "u", "kind"]), _FUZZ_INTS,
                                  max_size=2))
# three two-layer chains whose transversals are both {0, 1} and {0, 2}
_FUZZ_CHAINS = [chain_omega_ring([Field(2, 1), Zn(2)]).descriptor(),
                {"kind": "field-tower", "p": 2, "u_chain": [1, 2], "modulus": [1, 1, 1]},
                {"kind": "subfield-tower", "p": 2, "u_chain": [1, 2]}]


def _json_slots(value):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, (dict, list)):
        for key in list(value.keys() if isinstance(value, dict) else range(len(value))):
            yield value, key
            yield from _json_slots(value[key])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_chain_and_permutation_files_survive_one_mutation(rh_texts, data):
    """`construct --chain` of an omega, field-tower or subfield-tower
    descriptor, and `lift --perms` of a nested permutation file, with one
    key or list item dropped or replaced, exit 0, 2 or 3 without a
    traceback, and an exit 2 prints exactly one line."""
    where = rh_texts[0]
    for i, t in enumerate(([0, 1], [0, 2]), start=1):  # an OA(4, 3, 2, 2) over T_i
        rows = [[t[a], t[b], t[(a + b) % 2]] for a in range(2) for b in range(2)]
        (where / f"a{i}.json").write_text(_chainless("oa", rows, s=2, t_claimed=2))
    target = data.draw(st.sampled_from(["perms", 0, 1, 2]))
    if target == "perms":
        doc = {"kind": "nested", "values": [[0, 2, 1, 3], [3, 1, 2, 0], [2, 1, 0, 3]]}
        argv = ["lift", "--design", str(where / "rh.json"), "--mode", "nested",
                "--perms", str(where / "f.json"), "--out", str(where / "x.json")]
    else:
        doc = json.loads(json.dumps(_FUZZ_CHAINS[target]))
        argv = ["construct", "--method", "kron-noa", "--chain", str(where / "f.json"),
                "--input", str(where / "a1.json"), "--input", str(where / "a2.json"),
                "--out", str(where / "x.json")]
    owner, key = data.draw(st.sampled_from(list(_json_slots(doc))))
    if data.draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = data.draw(_FUZZ_VALUES)
    (where / "f.json").write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (code, err.getvalue())
    assert code != 2 or len(err.getvalue().splitlines()) == 1, err.getvalue()


def test_nested_lift_names_the_prefix_row_outside_its_layer(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(_rh_u12_swapped())
    assert run("lift", "--design", str(path), "--mode", "nested", "--seed", "1",
               "--out", str(tmp_path / "x.json")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: row 1 of the layer-1 prefix holds code 3 (x+1), which is not in layer 1"]


_VERIFY = ["verify", "--design", "d.json"]
_LIFT = ["lift", "--design", "d.json", "--mode", "nested", "--out", "x.json"]
_LIFT_SLICED = ["lift", "--design", "d.json", "--mode", "sliced", "--out", "x.json"]
_EXPORT = ["export", "--design", "d.json", "--format", "json", "--out", "x.json"]
# the refusals of a file's claims, given only where they are read: by
# `DesignFile.claims` (a chain or `s` they need, and the rules that need the
# chain `cli._file_claims` passes it); a design file's other refusals are
# `DesignFile`'s, and every reader gives them
_CLAIM_REFUSALS = ("need a 'chain'", "needs 's'", "-layer chain", "names a layer outside",
                   "chain's top size")


def _every_reader(text):
    """The commands besides `verify` and `lift` that read the design file
    `text` as d.json: `export`, and for an `oa` file an input of construct."""
    return [_EXPORT] + [CONSTRUCT_NDM + ["--input", "d.json"]] * ('"type": "oa"' in text)


@pytest.mark.parametrize("text, argv, message", [
    (_lh16([{"rows": 100000, "grid": 2}]), _VERIFY,
     "grid claim on the first 100000 rows of a 16-row design"),
    (_lh16([{"slice_size": 5, "grid": 1}]), _VERIFY,
     "slice size 5 does not divide the 16 rows of the design"),
    *((_rh_u12_sliced(slice_size=5, collapse_layer=1), argv,
       "slice size 5 does not divide the 16 rows of the design") for argv in (_VERIFY, _LIFT)),
    (_chainless("dm", [[0, 1], [1, 0]]), _VERIFY,
     "the claims of this 'dm' file need a 'chain' to be checked"),
    (_chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2, layer_prefixes=[2, 4]), _VERIFY,
     "the claims of this 'oa' file need a 'chain' to be checked"),
    *((_chainless(kind, [[0, 0], [1, 1], [2, 2]], **keys), _VERIFY,
       f"the strength claim of this {kind!r} file needs 's', the level count it is checked at")
      for kind, keys in (("design", {"t_claimed": 2}), ("oa", {}))),
    *((_with_keys(_rh_u12([4, 16]), t_claimed=99), argv,
       "strength 99 exceeds column count 3") for argv in (_VERIFY, _LIFT)),
    *((_rh_u12_sliced(**keys), argv,
       "a sliced claim needs both 'slice_size' and 'collapse_layer'")
      for keys in ({"slice_size": 4}, {"collapse_layer": 1}) for argv in (_VERIFY, _LIFT)),
    *((_rh_u12_sliced(slice_size=4, collapse_layer=9), argv,
       "claim 'sliced' names a layer outside 1..2") for argv in (_VERIFY, _LIFT)),
    (_gf4_dm([1, 2, 4]), _VERIFY, "3 layer prefixes for a 2-layer chain"),
    (_rh_u12([4, 8, 16]), _LIFT, "3 layer prefixes for a 2-layer chain"),
    (_gf4_dm([4, 4]), _VERIFY, "layer prefixes [4, 4] are not strictly increasing"),
    (_rh_u12([16, 16]), _LIFT, "layer prefixes [16, 16] are not strictly increasing"),
    *((_rh_u12([4, 1000]), argv, "last layer prefix 1000 is not the row count 16")
      for argv in (_VERIFY, _LIFT)),
    *((_with_keys(_rh_u12([4, 16]), grids=[{"grid": 2, "rows": 16}]), argv,
       "'oa' files cannot carry 'grids'; only lh files do") for argv in (_VERIFY, _LIFT)),
    (_gf4_dm([2, 4]), _LIFT, "cannot lift a 'dm' design file; lift needs an 'oa' file"),
    (_lh16([]), _LIFT, "cannot lift a 'lh' design file; lift needs an 'oa' file"),
    (_chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2), _LIFT,
     "design file carries no chain; cannot lift"),
    (_rh_u12_sliced(layer_prefixes=None, slice_size=4, collapse_layer=1), _LIFT,
     "design file carries no layer prefixes; cannot lift"),
    (_with_keys(_gf4_dm([2, 4]), s=99), _VERIFY, "s=99 is not the chain's top size 4"),
    *((_with_keys(_rh_u12([4, 16]), s=8), argv, "s=8 is not the chain's top size 4")
      for argv in (_VERIFY, _LIFT_SLICED)),
    (_with_keys(_lh16([]), scale=5), _VERIFY,
     "scale 5 of a Latin hypercube is not its row count 16"),
    (_with_keys(_lh16([{"grid": 2, "rows": 16}]), scale=32), _VERIFY,
     "scale 32 of a Latin hypercube is not its row count 16"),
    # a text starting with '#' reads as CSV whatever its suffix; only the first
    # line that is not a comment may be the x1..xm header
    *((_rh_u12_csv(cell), _VERIFY, f"malformed CSV row '{cell},0,0'")
      for cell in [*_CSV_CELLS, "x1"]),
    (_rh_u12_csv_two_metas(), _VERIFY, "CSV design has 2 '# meta=' lines; it must have one"),
    *((_lh16([{"grid": 2, "rows": 16, **key}]), _VERIFY,
       f"grid entry key {next(iter(key))!r} is not grid, rows or slice_size")
      for key in _GRID_EXTRA_KEYS),
    *((_rh_u12_csv("0", header), _VERIFY, f"CSV header {header!r} is not x1..x3 for 3-column rows")
      for header in _BAD_CSV_HEADERS),
    *(("", ["construct", "--method", method, "--p", "2", "--u", u, "--k", "1",
            "--out", "x.json"], message)
      for method, u, message in (
          ("rh-noa", "1,2", "k must be >= 2 so strength-2 claims are checkable"),
          ("bush-noa", "2,4", "k must be >= 2, got 1"))),
], ids=["verify-grid-rows-past-design", "verify-grid-slice-not-dividing",
        "verify-oa-slice-not-dividing", "lift-oa-slice-not-dividing",
        "verify-chainless-dm", "verify-chainless-oa-prefixes",
        "verify-chainless-design-strength-without-s", "verify-chainless-oa-without-s",
        "verify-strength-above-columns", "lift-strength-above-columns",
        "verify-slice-size-alone", "lift-slice-size-alone",
        "verify-collapse-layer-alone", "lift-collapse-layer-alone",
        "verify-collapse-layer-outside-chain", "lift-collapse-layer-outside-chain",
        "verify-dm-prefix-count", "lift-oa-prefix-count", "verify-dm-prefix-order",
        "lift-oa-prefix-order", "verify-last-prefix-not-rows", "lift-last-prefix-not-rows",
        "verify-oa-grids", "lift-oa-grids", "lift-dm-file", "lift-lh-file",
        "lift-chainless-oa", "lift-oa-without-prefixes", "verify-dm-s-not-chain-top",
        "verify-oa-s-not-chain-top", "lift-oa-s-not-chain-top", "verify-lh-scale-not-rows",
        "verify-lh-scale-not-rows-with-grid", "verify-csv-cell-underscore",
        "verify-csv-cell-plus", "verify-csv-cell-leading-zero",
        "verify-csv-cell-arabic-indic-digit", "verify-csv-line-two-rows",
        "verify-csv-second-header", "verify-csv-two-meta-lines", "verify-grid-key-strength",
        "verify-grid-key-dims", "verify-csv-header-one-column-short", "verify-csv-header-x1junk",
        "verify-csv-header-columns-out-of-order", "construct-rh-noa-k-1",
        "construct-bush-noa-k-1"])
def test_reader_refusal_messages(text, argv, message, tmp_path, monkeypatch, capsys):
    """Each refusal of the one design-file reader, of lift's own checks
    before it, and of construct's generator size (a `k` below 2, where no
    design file is read), exits 2 with exactly one line naming what is
    wrong.  A refusal of `verify` that needs no chain is `DesignFile`'s, so
    `export` and construct's `--input` give the same line."""
    monkeypatch.chdir(tmp_path)
    Path("d.json").write_text(text)
    readers = [argv]
    if argv == _VERIFY and not any(r in message for r in _CLAIM_REFUSALS):
        readers += _every_reader(text)
    for argv in readers:
        capsys.readouterr()
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not Path("x.json").exists()


# README "Claims": the file types that may carry each claim key
_CLAIM_KEY_TYPES = {"s": ("oa", "dm", "design"), "t_claimed": ("oa", "design"),
                    "layer_prefixes": ("oa", "dm", "design"), "slice_size": ("oa", "design"),
                    "collapse_layer": ("oa",), "grids": ("lh",), "scale": ("lh",)}
# one file of each type carrying every claim key its type may carry, each in full
_FULL_FILES = {
    "oa": _with_keys(_rh_u12([4, 16]), slice_size=4, collapse_layer=1),
    "dm": _with_keys(_gf4_dm([2, 4]), s=4),
    "design": _with_keys(_rh_u12([4, 16]), type="design", slice_size=4),
    "lh": _lh16([{"grid": 2, "rows": 16}]),
}


@pytest.mark.parametrize("kind", sorted(_FULL_FILES))
def test_claim_keys_allowed_by_file_type(kind, tmp_path, monkeypatch, capsys):
    """`verify` takes every claim key on the types README "Claims" allows it
    on, and exits 2 on each other type with one line naming the key, as
    every other reader does and `DesignFile` raises."""
    monkeypatch.chdir(tmp_path)
    data = json.loads(_FULL_FILES[kind])
    assert {k for k in _CLAIM_KEY_TYPES if k in data} == {
        k for k, types in _CLAIM_KEY_TYPES.items() if kind in types}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    assert run("verify", "--design", str(path), "--out", str(tmp_path / "r.json")) != 2
    for key, types in _CLAIM_KEY_TYPES.items():
        if kind in types:
            continue
        value = next(v[key] for v in map(json.loads, _FULL_FILES.values()) if key in v)
        bad = {**data, key: value}
        path.write_text(json.dumps(bad))
        message = f"{kind!r} files cannot carry {key!r}; only {'/'.join(types)} files do"
        for argv in [_VERIFY, *_every_reader(path.read_text())]:
            capsys.readouterr()
            assert run(*argv) == 2, (key, argv)
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
            assert not Path("x.json").exists()
        with pytest.raises(SpecError) as built:
            DesignFile(**{k: v for k, v in bad.items() if k in DesignFile._fields})
        assert str(built.value) == message


_CONSTRUCT_OPTIONS = {"k": "2", "columns": "1,0;0,1;1,1", "input": "a.json"}
# the construct options each method does not read
_UNREAD = {"rh-noa": ["input"], "subfield-noa": ["input"], "bush-noa": ["input", "columns"],
           **dict.fromkeys(["ndm-product", "kron-soa", "kron-noa", "kron-ndm"], ["k", "columns"])}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_construct_refuses_every_option_its_method_does_not_read(method, tmp_path, monkeypatch,
                                                                  capsys):
    """Each construct option a method does not read exits 2 with one line
    naming it, and agrees with the method's `reads`; an option it reads is
    never refused as unread."""
    monkeypatch.chdir(tmp_path)
    for option, value in _CONSTRUCT_OPTIONS.items():
        capsys.readouterr()
        code = run("construct", "--method", method, "--p", "2", "--u", "1,2",
                   f"--{option}", value, "--out", "x.json")
        err = capsys.readouterr().err.splitlines()
        assert (option in _UNREAD[method]) != (option in METHODS[method].reads)
        if option in _UNREAD[method]:
            assert code == 2
            assert err == [f"error: --{option} is not read by {method}"]
        else:
            assert not any("is not read" in line for line in err)


@pytest.mark.parametrize("method, count, message", [
    ("ndm-product", 2, "ndm-product takes exactly one --input array"),
    ("kron-soa", 3, "kron-soa takes exactly two --input arrays"),
    ("kron-noa", 3, "need one array per chain layer (2), got 3"),
    ("kron-ndm", 3, "need one difference matrix per chain layer (2), got 3"),
], ids=["ndm-product", "kron-soa", "kron-noa", "kron-ndm"])
def test_input_count_is_checked_before_any_input_is_read(method, count, message, tmp_path,
                                                         monkeypatch, capsys):
    """A wrong number of inputs is refused naming both counts before any
    input is read (none of the named files exists)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps(chain_omega_ring([Zn(6), Zn(2)]).descriptor()))
    chain = ["--p", "2", "--u", "1,2"] if method == "ndm-product" else ["--chain", "chain.json"]
    capsys.readouterr()
    assert run("construct", "--method", method, *chain, *["--input", "missing.json"] * count,
               "--out", "x.json") == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_ndm_product_reads_its_input_at_strength_2(tmp_path, capsys):
    """The A of A (+) D is checked at strength 2, or at the higher strength
    its file declares: a `t_claimed` of 1 or 2 writes the same files, a false
    claim of 3 exits 3 naming the input check, and a true one passes."""
    from nestfill.arrays import rao_hamming_oa
    from nestfill.groups import chain_field_tower

    rows = rao_hamming_oa(chain_field_tower(2, [1, 2]).field, range(4), 2).matrix.codes()
    written = []
    for t in (1, 2, 3):
        out = tmp_path / f"t{t}" / "n.json"
        out.parent.mkdir()
        a = _write_input(tmp_path / f"a{t}.json", rows, 4, t=t)
        capsys.readouterr()
        assert run(*CONSTRUCT_NDM[:-2], "--input", str(a), "--out", str(out)) == (3 if t == 3 else 0)
        written.append([p.read_bytes() for p in sorted(out.parent.iterdir())])
    assert written[0] == written[1] and len(written[0]) == 3
    assert written[2] == []
    assert capsys.readouterr().err.splitlines() == [
        "verification failed: ndm-product input: FAIL (run size 16 not divisible by 4^3) "
        "counterexample={'n': 16, 's': 4, 't': 3}"]
    bush, out = tmp_path / "bush.json", tmp_path / "b" / "n.json"
    out.parent.mkdir()
    assert run("construct", "--method", "bush-noa", "--p", "2", "--u", "2", "--k", "3",
               "--out", str(bush)) == 0
    assert load(bush).t_claimed == 3
    assert run(*CONSTRUCT_NDM[:-2], "--input", str(bush), "--out", str(out)) == 0
    report = json.loads(out.with_name("n.json.verify.json").read_text())
    assert report["passed"] and len(report["checks"]) == 10
    assert report["checks"][0] == {"check": "ndm-product input", "passed": True,
                                   "detail": "OA(64, 5, 4, 3)"}
    # a sliced report names the strength its slices were checked at
    assert report["checks"][7] == {"check": "sliced A(+)Delta^1 via rho_1", "passed": True,
                                   "detail": "2 slices of 128 rows, strength 3"}


_WRITES = {
    "construct": CONSTRUCT_RH[:-2] + ["--p", "2", "--u", "1,2", "--out"],
    "lift": LIFT_NESTED[:-1],
    "verify": ["verify", "--design", "{rh}", "--out"],
    "export-csv": ["export", "--design", "{rh}", "--format", "csv", "--out"],
    "export-scatter": ["export", "--design", "{rh}", "--format", "scatter", "--out"],
}


@pytest.mark.parametrize("command, out", [
    *((command, "no-such-dir/x.json") for command in _WRITES),
    # a scatter prefix names files next to it, so only the others can hit a directory
    *((command, "taken") for command in _WRITES if command != "export-scatter"),
    ("construct", "r.json"),  # its report path r.json.verify.json is a directory
], ids=[*(f"{c}-missing-dir" for c in _WRITES),
        *(f"{c}-directory" for c in _WRITES if c != "export-scatter"), "construct-report"])
def test_unwritable_output_exits_2(command, out, tmp_path, rh_design, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    (tmp_path / "r.json.verify.json").mkdir()
    capsys.readouterr()
    assert run(*(a.format(rh=rh_design) for a in _WRITES[command]), out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert out in err[0]


@pytest.mark.parametrize("blocker, files, argv", [
    ("r.json.verify.json", {}, _WRITES["construct"] + ["r.json"]),
    ("n.json.verify.json", {"a.json": _gf8_oa(8)}, CONSTRUCT_NDM_GF8 + ["--out", "n.json"]),
    ("pts_x1_x3.csv", {}, _WRITES["export-scatter"] + ["pts"]),
], ids=["construct-report", "ndm-product-report", "export-scatter-second-pair"])
def test_failed_write_leaves_no_output(blocker, files, argv, tmp_path, rh_design, monkeypatch,
                                       capsys):
    """A write that fails after earlier outputs were written exits 2 and
    removes those outputs: the directory holds only what was there before."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / blocker).mkdir()
    for name, text in files.items():
        (work / name).write_text(text)
    capsys.readouterr()
    assert run(*(a.format(rh=rh_design) for a in argv)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert sorted(p.name for p in work.iterdir()) == sorted([blocker, *files])


# sha256 of the seed-3 lifts of `rh_design` and of their exports (a scatter
# export's files read in name order); the lift, json and csv pins are those of
# files without a top-level `chain`, and the scatter pins predate streamed writers
_LIFT_DIGESTS = {
    "nested": {
        "lift": "87f336cfef6323d164ec0274f238c843e420ea5b6104b314859d2c7ca2ac33cd",
        "json": "87f336cfef6323d164ec0274f238c843e420ea5b6104b314859d2c7ca2ac33cd",
        "csv": "a94e9e952a3bd9fb5f3c3f03df528ba9f4979315e50b6264fe615a36440af171",
        "scatter": "8e68027f7c187bd707d8943585dd31722406754914b206c022956cd299ce81ac",
    },
    "sliced": {
        "lift": "de425d2e6fa279e712de0821d739591583adb465eb60e48ac63a1a040ae03a2a",
        "json": "de425d2e6fa279e712de0821d739591583adb465eb60e48ac63a1a040ae03a2a",
        "csv": "85f39866a23d6c99fabc1346ad5c43771d8f16f0fb11f3e39904145d88abae0e",
        "scatter": "316a100a4e22164c30b2700e0cd615977d2a638e364fb3d985c7a12a05a46f2a",
    },
    "grouped": {
        "lift": "33b7089d32aa6546b5c212166388516017c3561361ed0f56e9b00f4181d5eb79",
        "json": "33b7089d32aa6546b5c212166388516017c3561361ed0f56e9b00f4181d5eb79",
        "csv": "617db8aff19a3af645d35c0548009111c0a1e273382d71ec5a8f160b398a198c",
        "scatter": "6e1b6c596d9e13f5b71960b103d79a718a0c817599c02a177daf4553b496e6a5",
    },
}


@pytest.mark.parametrize("mode", list(_LIFT_DIGESTS))
def test_lift_and_export_bytes_are_pinned(mode, tmp_path, rh_design):
    """The seed-3 lift in each mode, and its json, csv and scatter exports,
    keep their bytes."""
    lift = tmp_path / "lift.json"
    extra = ["--i", "2", "--j", "1"] if mode == "grouped" else []
    assert run("lift", "--design", str(rh_design), "--mode", mode, *extra, "--seed", "3",
               "--out", str(lift)) == 0
    digests = {"lift": hashlib.sha256(lift.read_bytes()).hexdigest()}
    for fmt in ("json", "csv", "scatter"):
        out = tmp_path / fmt
        out.mkdir()
        assert run("export", "--design", str(lift), "--format", fmt,
                   "--out", str(out / ("x" if fmt == "scatter" else f"x.{fmt}"))) == 0
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.read_bytes())
        digests[fmt] = h.hexdigest()
    assert digests == _LIFT_DIGESTS[mode]


def _fail_third_write(monkeypatch):
    """Make every file opened for writing raise ENOSPC on its third write:
    after the header and the first row (a scatter file's points)."""
    real_open = Path.open

    def failing_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        if "w" in mode:
            written = []

            def write(text):
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
                written.append(text)
                return type(f).write(f, text)

            f.write = write
        return f

    monkeypatch.setattr(Path, "open", failing_open)


@pytest.mark.parametrize("argv", [
    _WRITES["lift"],
    ["export", "--design", "{rh}", "--format", "json", "--out"],
    _WRITES["export-csv"],
    _WRITES["export-scatter"],
], ids=["lift", "export-json", "export-csv", "export-scatter"])
def test_write_failing_midway_leaves_no_file(argv, tmp_path, rh_design, monkeypatch, capsys):
    """A write that fails after the first row reached the file exits 2 with
    one error line and removes the partial file."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    _fail_third_write(monkeypatch)
    capsys.readouterr()
    assert run(*(a.format(rh=rh_design) for a in argv), "out") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {'scatter' if 'scatter' in argv else 'design'} file "
        f"{'out_x1_x2.csv' if 'scatter' in argv else 'out'}: No space left on device"]
    assert list(work.iterdir()) == []


def test_write_failing_through_a_link_keeps_the_link(tmp_path, rh_design, monkeypatch, capsys):
    """Only a regular file is removed after a failed write, never a link
    (such as /dev/stdout) or what it points at."""
    monkeypatch.chdir(tmp_path)
    Path("target.json").write_text("old")
    Path("out.json").symlink_to("target.json")
    _fail_third_write(monkeypatch)
    assert run("export", "--design", str(rh_design), "--format", "json",
               "--out", "out.json") == 2
    assert Path("out.json").is_symlink() and Path("target.json").is_file()


def test_input_without_s_is_read_at_the_method_level_count(tmp_path, monkeypatch):
    """A chainless `oa` file without `s` claims a strength no level count is
    given for, so `verify` refuses it; yet it loads, and construct reads it as
    an `--input` at the level count the method uses, writing what an input
    declaring that `s` writes."""
    monkeypatch.chdir(tmp_path)
    files, argv = _zn5_kron_noa(5)
    for name, text in files.items():
        Path(name).write_text(text)
    assert run(*argv) == 0
    with_s = Path("x.json").read_bytes()
    without_s = json.loads(files["a2.json"])
    del without_s["s"]
    Path("a2.json").write_text(json.dumps(without_s))
    assert load("a2.json").s is None
    assert run("verify", "--design", "a2.json") == 2
    assert run(*argv) == 0
    assert Path("x.json").read_bytes() == with_s


def test_chainless_oa_without_strength_is_checked_at_strength_2(tmp_path):
    """A chainless `oa` file without `t_claimed` claims strength 2, as a
    chained one does, not a Latin hypercube its rows cannot be."""
    path, report = tmp_path / "d.json", tmp_path / "r.json"
    path.write_text(_chainless("oa", [[0, 0], [0, 1], [1, 0], [1, 1]], s=2))
    assert run("verify", "--design", str(path), "--out", str(report)) == 0
    assert _check_names(report) == ["oa-strength"]


def test_columns_of_wrong_length_name_codes_and_position(tmp_path, capsys):
    argv = CONSTRUCT_RH[:-2] + ["--p", "2", "--u", "1,2", "--columns", "1,0;0,1;1,1;2",
                                "--out", str(tmp_path / "x.json")]
    assert run(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: generator column 4 (codes 2) does not have length 2"]


def _check_names(path):
    return [c["check"] for c in json.loads(path.read_text())["checks"]]


def _construct_golden(method, tmp_path, example3_inputs):
    """Build `method` on its small golden input; return the output paths."""
    from golden import KRON_SOA_INPUT_A1, KRON_SOA_INPUT_A2
    from nestfill.arrays import rao_hamming_oa
    from nestfill.groups import chain_field_tower

    out = tmp_path / f"{method}.json"
    argv = ["construct", "--method", method, "--out", str(out)]
    towers = {"rh-noa": "1,2,3", "subfield-noa": "1,2", "bush-noa": "1,2"}
    if method in towers:
        k = "3" if method == "bush-noa" else "2"
        argv += ["--p", "2", "--u", towers[method], "--k", k]
    elif method == "ndm-product":
        a = rao_hamming_oa(chain_field_tower(2, [1, 2]).field, range(4), 2)
        argv += ["--p", "2", "--u", "1,2",
                 "--input", str(_write_input(tmp_path / "a.json", a.matrix.codes(), 4))]
    elif method == "kron-ndm":
        _, chain_file, paths = example3_inputs
        argv += ["--chain", str(chain_file)]
        for p in paths:
            argv += ["--input", str(p)]
    else:
        if method == "kron-soa":
            chain = chain_omega_ring([Zn(6), Zn(2)])
            inputs = [
                _write_input(tmp_path / "i1.json", [list(r) for r in KRON_SOA_INPUT_A1], 6),
                _write_input(tmp_path / "i2.json",
                             [[code_of(chain, t) for t in r] for r in KRON_SOA_INPUT_A2], 2),
            ]
        else:
            chain = chain_omega_ring([Zn(2), Zn(2)])
            inputs = []
            for i in (1, 2):
                tr = chain.transversal_codes(i)
                rows = [[tr[a], tr[b], tr[(a + b) % 2]] for a in range(2) for b in range(2)]
                inputs.append(_write_input(tmp_path / f"i{i}.json", rows, 2))
        chain_file = tmp_path / "chain-kron.json"
        chain_file.write_text(json.dumps(chain.descriptor()))
        argv += ["--chain", str(chain_file)]
        for p in inputs:
            argv += ["--input", str(p)]
    assert run(*argv) == 0
    if method == "ndm-product":
        return [out, tmp_path / "ndm-product-dm.json"]
    return [out]


_DELTA_E3 = [f"rho_1(Delta^1_{l})" for l in range(1, 13)] + [
    f"rho_{j}(Delta^2_{l})" for l in range(1, 5) for j in (1, 2)
]

CHECK_LISTS = {
    "rh-noa": (
        ["nested-oa", "sliced[4 rows via rho_1]", "sliced[16 rows via rho_1]",
         "sliced[16 rows via rho_2]"],
        [["nested-oa"]],
    ),
    "subfield-noa": (["nested-oa", "sliced[4 rows via rho_1]"], [["nested-oa"]]),
    "bush-noa": (["nested-oa", "sliced[8 rows via rho_1]"], [["nested-oa"]]),
    "ndm-product": (
        ["ndm-product input", "D", "A(+)D", "rho_1(Delta^1_1)", "rho_1(Delta^1_2)",
         "two-layer ndm (Delta(1,1), D; rho_1, rho_2)", "I-layer ndm",
         "sliced A(+)Delta^1 via rho_1",
         "two-layer noa (A(+)Delta(1,1), A(+)D; rho_1, rho_2)", "I-layer noa"],
        [["nested-oa"], ["nested-dm"]],
    ),
    "kron-soa": (
        ["input A_1", "input A_2", "B", "B slices", "two-layer noa (B^1, B)",
         "two-layer noa (B^2, B)", "two-layer noa (B^3, B)"],
        [["oa-strength", "sliced-oa"]],
    ),
    "kron-noa": (
        ["input A_1", "input A_2", "nested-oa", "sliced[4 rows via rho_1]"],
        [["nested-oa"]],
    ),
    "kron-ndm": (
        ["input D_1", "input D_2", "input D_3", "nested-dm"] + _DELTA_E3,
        [["nested-dm"]],
    ),
}


_CONSTRUCTORS = {
    "rh-noa": "construct_noa_rh", "subfield-noa": "construct_noa_subfield",
    "bush-noa": "construct_noa_bush", "ndm-product": "construct_from_ndm",
    "kron-soa": "construct_soa_kron", "kron-noa": "construct_noa_kron_multi",
    "kron-ndm": "construct_ndm_kron",
}
_DEFAULT_NAMES = {"nested": "nested-oa", "nested-dm": "nested-dm", "sliced": "sliced-oa"}


@pytest.mark.parametrize("method", sorted(_CONSTRUCTORS))
def test_every_construction_returns_nested_families(method, tmp_path, example3_inputs,
                                                    monkeypatch):
    """Every record a construct method returns is a NestedFamily whose nested
    and sliced claims were all checked (an unnamed claim under its oracle's
    default report name), and the file written for it holds its top."""
    import nestfill.arrays as arrays
    from nestfill.arrays import NestedFamily

    build, returned = getattr(arrays, _CONSTRUCTORS[method]), []

    def recording(*args):
        out = build(*args)
        returned.extend(out if isinstance(out, tuple) else [out])
        return out

    monkeypatch.setattr(arrays, _CONSTRUCTORS[method], recording)
    outs = _construct_golden(method, tmp_path, example3_inputs)
    # ndm-product returns (D, A(+)D) and writes A(+)D to --out, D beside it
    for family, path in zip(returned[::-1], outs, strict=True):
        assert isinstance(family, NestedFamily)
        checked = [r.check for r in family.verification]
        for claim in [family.nested, *family.sliced]:
            assert (claim.name or _DEFAULT_NAMES[claim.kind]) in checked
        assert load(path).rows == family.top.codes()


_LIFT_BUILDERS = {"nested": "build_nsfd", "sliced": "build_ssfd_multi",
                  "grouped": "build_ssfd_grouped"}
_CLAIM_KEYS = ("type", "t_claimed", "layer_prefixes", "slice_size", "collapse_layer", "grids")


@pytest.mark.parametrize("case", sorted(_CONSTRUCTORS) + [f"lift-{m}" for m in _LIFT_BUILDERS])
def test_claim_codec_round_trip(case, tmp_path, example3_inputs, rh_design, monkeypatch):
    """`io.annotations` and `DesignFile.claims` invert each other.  For each
    construct method's golden case (the claim `Method.claim` records) and each
    lift mode (the builder's "strat" claims), a file recording the claims
    reads them back with names cleared, after the claim its type implies: an
    `lh` file's Latin hypercube, a sliced `oa` file's top `oa` claim.  Every
    file the job writes gets its claim keys back from the claims it reads
    as, and each lift's grid claims hold on its rows in-process."""
    import nestfill.arrays as arrays
    import nestfill.spacefill as spacefill
    from nestfill.errors import Claim
    from nestfill.io import annotations
    from nestfill.verify import check_claims

    lift, mode = case.startswith("lift-"), case.removeprefix("lift-")
    module, name = (spacefill, _LIFT_BUILDERS[mode]) if lift else (arrays, _CONSTRUCTORS[case])
    build, returned = getattr(module, name), []

    def recording(*args, **kwargs):
        returned.append(build(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, name, recording)
    if not lift:
        outs = _construct_golden(case, tmp_path, example3_inputs)
        [built] = returned
        for family in built if isinstance(built, tuple) else [built]:
            claims = [METHODS[case].claim(family)]
            design = DesignFile(**annotations(claims), rows=family.top.codes(),
                                s=family.chain.top_size, chain=family.chain.descriptor())
            implied = [Claim("oa", strength=claims[0].strength)] * (claims[0].kind == "sliced")
            assert [c._replace(name="") for c in design.claims()] == implied + [
                c._replace(name="") for c in claims]
    else:
        outs = [tmp_path / "lift.json"]
        grouped = ["--i", "2", "--j", "1"] * (mode == "grouped")
        assert run("lift", "--design", str(rh_design), "--mode", mode, *grouped, "--seed", "1",
                   "--out", str(outs[0])) == 0
        [lifted] = returned
        claims = list(lifted.grids)
        assert claims and {c.kind for c in claims} == {"strat"}
        design = DesignFile(**annotations(claims), rows=lifted.lifted, scale=lifted.n)
        assert [c._replace(name="") for c in design.claims()] == [Claim("lh")] + [
            c._replace(name="") for c in claims]
        assert all(check_claims(lifted.lifted, claims, levels=[lifted.n]))
    for out in outs:
        data = json.loads(out.read_text())
        assert annotations(load(out).claims()) == {k: data[k] for k in _CLAIM_KEYS if k in data}


@pytest.mark.parametrize("method", sorted(CHECK_LISTS))
def test_check_lists_pinned(method, tmp_path, example3_inputs):
    """construct's self-checks and verify's re-checks run in a fixed order."""
    want_construct, want_verify = CHECK_LISTS[method]
    outs = _construct_golden(method, tmp_path, example3_inputs)
    assert _check_names(outs[0].with_name(outs[0].name + ".verify.json")) == want_construct
    for out, want in zip(outs, want_verify, strict=True):
        report = tmp_path / "report.json"
        assert run("verify", "--design", str(out), "--out", str(report)) == 0
        assert _check_names(report) == want


@pytest.mark.parametrize("lift_args, want", [
    (["--mode", "nested"],
     ["latin-hypercube"] + [f"stratification[first {n} rows, g={g}]"
                            for n, g in ((4, 2), (16, 4), (64, 8))]),
    (["--mode", "sliced"],
     ["latin-hypercube", "stratification[slices of 4 rows, g=2]",
      "stratification[slices of 16 rows, g=4]", "stratification[first 64 rows, g=8]"]),
    (["--mode", "grouped", "--i", "2", "--j", "1"],
     ["latin-hypercube", "stratification[slices of 16 rows, g=2]",
      "stratification[first 64 rows, g=8]"]),
    (["--mode", "nested", "--stage", "relabel-only"], ["oa-strength"]),
])
def test_lift_check_lists_pinned(lift_args, want, tmp_path, rh_design):
    out, report = tmp_path / "lift.json", tmp_path / "report.json"
    assert run("lift", "--design", str(rh_design), *lift_args, "--seed", "1",
               "--out", str(out)) == 0
    assert run("verify", "--design", str(out), "--out", str(report)) == 0
    assert _check_names(report) == want


def test_verify_counterexample_levels_as_element_text(tmp_path, rh_design, example3_inputs):
    """A failing check names its levels, or its uncovered difference, by
    element text: here for a tampered field-tower `oa` file and a tampered
    omega-ring `dm` file."""
    cases = [
        # row 24 is (x, x^2, x^2+x): x -> x^2+x keeps rho_1 and rho_2, breaks rho_3
        (rh_design, (24, 0), 6, "nested-oa[layer 3 via rho_3]", "levels", ["x", "x^2"]),
        # row 4 is (0, w, 2w): w -> 2w keeps rho_1, breaks layer 2 via rho_2
        (_construct_golden("kron-ndm", tmp_path, example3_inputs)[0], (4, 1), 8,
         "nested-dm[layer 2 via rho_2]", "element", "w"),
    ]
    for path, (r, c), code, check, key, want in cases:
        data = json.loads(path.read_text())
        data["rows"][r][c] = code
        bad, report = tmp_path / "bad.json", tmp_path / "report.json"
        bad.write_text(json.dumps(data))
        assert run("verify", "--design", str(bad), "--out", str(report)) == 3
        first = json.loads(report.read_text())["checks"][0]
        assert first["check"] == check
        assert first["counterexample"][key] == want


def test_chained_dm_without_prefixes_claims_one_difference_matrix(tmp_path, example3_inputs):
    """A chained `dm` file without `layer_prefixes` claims a difference matrix
    over the chain's top group: the kron-ndm output with the key dropped
    passes it, and fails it once one cell is changed."""
    data = json.loads(_construct_golden("kron-ndm", tmp_path, example3_inputs)[0].read_text())
    del data["layer_prefixes"]
    path, report = tmp_path / "d.json", tmp_path / "report.json"
    for code, want in ((data["rows"][4][1], 0), (8, 3)):
        data["rows"][4][1] = code
        path.write_text(json.dumps(data))
        assert run("verify", "--design", str(path), "--out", str(report)) == want
        assert _check_names(report) == ["difference-matrix"]


def test_failing_input_oracle_exits_3(tmp_path, capsys):
    """kron-noa over [Z2]^2 whose first input is not an OA: exit 3, one
    `verification failed` line naming the input, no output written."""
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(chain_omega_ring([Zn(2), Zn(2)]).descriptor()))
    a1 = _write_input(tmp_path / "a1.json", [[0, 0], [0, 1], [1, 0], [1, 0]], 2)
    a2 = _write_input(tmp_path / "a2.json", [[0, 0], [0, 2], [2, 0], [2, 2]], 2)
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run("construct", "--method", "kron-noa", "--chain", str(chain_file),
               "--input", str(a1), "--input", str(a2), "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verification failed: input A_1: FAIL")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a1.json", "a2.json", "chain.json"]


def test_verify_fail_line_names_levels_as_text(tmp_path, rh_design, capsys):
    """The stderr FAIL line of a tampered field-tower `oa` file prints the
    counterexample levels as element text, as the report file does."""
    data = json.loads(rh_design.read_text())
    data["rows"][24][0] = 6  # x -> x^2+x keeps rho_1 and rho_2, breaks rho_3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", "--design", str(bad), "--out", str(tmp_path / "report.json")) == 3
    fail = [line for line in capsys.readouterr().err.splitlines() if ": FAIL" in line]
    assert len(fail) == 1 and fail[0].startswith("nested-oa[layer 3 via rho_3]: FAIL")
    assert "'levels': ['x', 'x^2']" in fail[0]


def test_verify_names_the_first_uneven_strength_3_tuple(tmp_path, capsys):
    """A strength-3 `bush-noa` file with one cell of its layer-1 prefix
    changed fails the layer-1 claim at the one tuple it lost, (0, 1, 7) of
    columns 0..2, printed as element text."""
    good, bad = tmp_path / "bush.json", tmp_path / "bad.json"
    assert run("construct", "--method", "bush-noa", "--p", "2", "--u", "2,4", "--k", "3",
               "--out", str(good)) == 0
    data = json.loads(good.read_text())
    assert data["t_claimed"] == 3 and data["rows"][1][:3] == [0, 1, 7]
    data["rows"][1][0] = 1
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", "--design", str(bad), "--out", str(tmp_path / "report.json")) == 3
    assert capsys.readouterr().err.splitlines() == [
        "nested-oa[layer 1 via rho_1]: FAIL (unbalanced level tuple) counterexample="
        "{'columns': [0, 1, 2], 'levels': ['0', '1', 'x^2+x+1'], 'observed': 0, 'expected': 1}"]


def test_outputs_identical_across_hash_seeds(tmp_path):
    """construct -> grouped lift -> verify, each command in its own
    interpreter, writes the same bytes and messages under two string hash
    seeds, so no output depends on set or dict order of hashed values."""
    src = str(Path(nestfill.__file__).parents[1])
    commands = [
        ["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2,3", "--k", "2", "--out", "a.json"],
        ["lift", "--design", "a.json", "--mode", "grouped", "--i", "2", "--j", "1", "--seed", "5",
         "--out", "g.json"],
        ["verify", "--design", "g.json", "--out", "r.json"],
    ]
    runs = []
    for hash_seed in ("1", "2"):
        work = tmp_path / hash_seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        printed = []
        for argv in commands:
            proc = subprocess.run([sys.executable, "-m", "nestfill.cli", *argv], cwd=work, env=env,
                                  capture_output=True)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout + proc.stderr)
        runs.append((printed, {f.name: f.read_bytes() for f in sorted(work.iterdir())}))
    assert sorted(runs[0][1]) == ["a.json", "a.json.verify.json", "g.json", "r.json"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv", [
    CONSTRUCT_RH[:-2] + ["--p", "2", "--u", "1,2", "--format", "csv", "--out", "x.csv"],
    LIFT_NESTED[:-1] + ["x.csv", "--format", "csv"],
    CONSTRUCT_RH + ["--p", "2", "--u", "1,2,3", "--modulus", "1,0,1,1"],
], ids=["construct-format", "lift-format", "construct-modulus"])
def test_removed_options_are_unknown_arguments(argv, tmp_path, rh_design, monkeypatch, capsys):
    """CSV comes from `export` and a modulus from a `--chain` descriptor;
    `construct`/`lift --format` and `construct --modulus` are not options."""
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(rh=rh_design) for a in argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a3.json", "a3.json.verify.json"]


@pytest.mark.parametrize("u, line", [("2", "1 check passed"), ("1,2", "2 checks passed")])
def test_construct_counts_its_checks_in_words(u, line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run("construct", "--method", "rh-noa", "--p", "2", "--u", u, "--k", "2",
               "--out", "x.json") == 0
    assert capsys.readouterr().out.endswith(f"; {line}\n")


def test_construct_from_chain_with_modulus(tmp_path):
    """A chain descriptor's non-default modulus (x^3+x^2+1) is recorded in
    the design file, and the design verifies over it."""
    chain = tmp_path / "c.json"
    chain.write_text(json.dumps({"kind": "field-tower", "p": 2, "u_chain": [1, 2, 3],
                                 "modulus": [1, 0, 1, 1]}))
    out = tmp_path / "m.json"
    assert run("construct", "--method", "rh-noa", "--chain", str(chain), "--k", "2",
               "--out", str(out)) == 0
    design = load(out)
    assert design.chain["modulus"] == [1, 0, 1, 1]
    assert chain_from_descriptor(design.chain).field.modulus == (1, 0, 1, 1)
    assert json.loads((tmp_path / "m.json.verify.json").read_text())["passed"] is True
    assert run("verify", "--design", str(out)) == 0


def test_file_with_unread_keys_verifies_and_lifts_unchanged(tmp_path, rh_design, capsys):
    """A construct file carrying `layer` and `alphabet` after its chain, as
    older writers wrote them, verifies and lifts exactly like the file
    without them: nothing reads either key."""
    old = {}
    for key, value in json.loads(rh_design.read_text()).items():
        old[key] = value
        if key == "chain":
            old.update(layer=3, alphabet="layer")
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(old, indent=2))
    outputs = []
    for path in (rh_design, old_path):
        stem = path.stem
        capsys.readouterr()
        assert run("verify", "--design", str(path), "--out", str(tmp_path / f"{stem}.r")) == 0
        report = json.loads((tmp_path / f"{stem}.r").read_text())
        assert report.pop("design") == str(path)
        assert run("lift", "--design", str(path), "--mode", "sliced", "--seed", "3",
                   "--out", str(tmp_path / f"{stem}.lh")) == 0
        printed = capsys.readouterr()
        outputs.append((report, printed.err, (tmp_path / f"{stem}.lh").read_bytes()))
    assert outputs[0] == outputs[1]


_GF2_40 = {"kind": "field-tower", "p": 2, "u_chain": [1, 40]}


@pytest.mark.parametrize("argv", [
    ["construct", "--method", "rh-noa", "--p", "2", "--u", "1,40", "--k", "2", "--out", "x.json"],
    ["construct", "--method", "rh-noa", "--p", "1000000000000000003", "--u", "1", "--k", "2",
     "--out", "x.json"],
    ["verify", "--design", "lh.json"],
], ids=["construct-gf-2-40", "construct-huge-prime", "verify-lh-over-gf-2-40"])
def test_oversized_field_refused_before_it_is_built(argv, tmp_path):
    """A field above the table limit exits 2 at once, before the primality
    test or the modulus search; each command runs in its own interpreter
    under a timeout, so a field that is built anyway fails the test."""
    (tmp_path / "lh.json").write_text(json.dumps(
        {"format": "nestfill-design", "version": "0.1.0", "type": "lh", "rows": [[0], [1]],
         "chain": _GF2_40}))
    src = str(Path(nestfill.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "nestfill.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "is too large" in err[0]
    assert not (tmp_path / "x.json").exists()


_KRON_NOA = ["construct", "--method", "kron-noa", "--chain", "c.json", "--input", "a1.json",
             "--input", "a2.json", "--out", "x.json"]


@pytest.mark.parametrize("top, argv, message", [
    (None, ["construct", "--method", "rh-noa", "--p", "7", "--u", "1,2", "--k", "6",
            "--out", "x.json"], "4194304 cells"),
    (None, ["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2,3,4", "--k", "6",
            "--out", "x.json"], "4194304 cells"),
    *((n, _KRON_NOA, f"group of order {n} is too large") for n in (2000, 10**7, 10**12)),
], ids=["rh-noa-49-to-the-6", "rh-noa-16-to-the-6", "kron-noa-z3-z2000", "kron-noa-z3-z10e7",
        "kron-noa-z3-z10e12"])
def test_oversized_construction_refused_before_it_allocates(top, argv, message, tmp_path):
    """A construction above MAX_CELLS, or over a chain above the table limit
    (here omega(Z_3, Z_top) with two 9-row Z_3 inputs), exits 2 with one
    line before its arrays, tables or transversal lists are built; each
    command runs in its own interpreter under a timeout and a 1 GiB
    address-space cap, so one that allocates anyway fails the test quickly."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    if top is not None:
        (tmp_path / "c.json").write_text(json.dumps(
            {"kind": "omega", "bases": [{"zn": 3}, {"zn": top}]}))
        rows = [[a, b, (a + b) % 3] for a in range(3) for b in range(3)]
        for name in ("a1.json", "a2.json"):
            (tmp_path / name).write_text(_chainless("oa", rows, s=3, t_claimed=2))
    src = str(Path(nestfill.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "nestfill.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=30, preexec_fn=cap)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and "is too large" in err[0] and message in err[0]
    assert not (tmp_path / "x.json").exists()


def _fresh_python(code, cwd, *args):
    """Run `code` in a fresh interpreter that imports the package from this
    checkout; its stdout."""
    src = str(Path(nestfill.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PACKAGE_MODULES = sorted(f"nestfill.{path.stem}"
                          for path in Path(nestfill.__file__).parent.glob("*.py")
                          if path.stem != "__init__")


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    """Every CLI job imports `nestfill.cli` in a fresh interpreter, where
    `dataclasses` would cost it `inspect`, `ast`, `dis` and `tokenize`; a
    subprocess checks this, as pytest itself loads both.  The probe runs
    every module of the package, since `cli` loads some of them only when
    a command reads from them."""
    probe = (f"import sys, nestfill.cli, {', '.join(_PACKAGE_MODULES)}\n"
             f"print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))")
    assert _fresh_python(probe, tmp_path) == "[]\n"


_LOAD_PROBE = """
import json, sys, types
import nestfill.cli
loaded = sorted(m for m in sys.modules if m.startswith("nestfill."))
code = nestfill.cli.main(sys.argv[1:])
# a lazily loaded module stays a _LazyModule until one of its attributes is read
lazy = sorted(m for m in loaded if type(sys.modules[m]) is not types.ModuleType)
print(json.dumps([loaded, code, lazy]))
"""


def test_each_command_runs_only_the_modules_it_reads(tmp_path):
    """`import nestfill.cli` registers every package module, so a wrapper
    installed right after it reaches them all; one `main` call then runs
    only the modules its command reads: `verify` skips the construction
    code, and of a lift's integer levels the group code too, `lift` the
    constructions and the oracles, `export` every group module too,
    `construct` the lifts."""
    jobs = [(["construct", "--method", "rh-noa", "--p", "2", "--u", "1,2", "--k", "2",
              "--out", "a.json"], ["nestfill.spacefill"]),
            (["verify", "--design", "a.json", "--out", "r.json"],
             ["nestfill.arrays", "nestfill.spacefill"]),
            (["export", "--design", "a.json", "--format", "csv", "--out", "a.csv"],
             ["nestfill.arrays", "nestfill.galois", "nestfill.groups", "nestfill.kronecker",
              "nestfill.spacefill", "nestfill.verify"]),
            (["lift", "--design", "a.json", "--mode", "nested", "--seed", "1",
              "--out", "l.json"], ["nestfill.arrays", "nestfill.verify"]),
            (["verify", "--design", "l.json", "--out", "lr.json"],
             ["nestfill.arrays", "nestfill.galois", "nestfill.groups", "nestfill.kronecker",
              "nestfill.spacefill"])]
    for argv, want in jobs:
        out = _fresh_python(_LOAD_PROBE, tmp_path, *argv).splitlines()[-1]
        assert json.loads(out) == [_PACKAGE_MODULES, 0, want], argv


_ROOT_PROBE = """
import json, sys
import nestfill
ran = sorted(m for m in sys.modules if m.startswith("nestfill."))
homes = {}
for name in set(nestfill.__all__) - {"__version__"}:
    value = getattr(nestfill, name)
    homes[name] = [value.__module__, vars(sys.modules[value.__module__])[name] is value]
modules = {m: getattr(nestfill, m) is sys.modules[f"nestfill.{m}"]
           for m in ("errors", "galois", "groups", "kronecker")}
star = {}
exec("from nestfill import *", star)
print(json.dumps([ran, homes, modules, sorted(star.keys() - {"__builtins__"}),
                  hasattr(nestfill, "arrays")]))
"""


def test_package_import_runs_no_module(tmp_path):
    """`import nestfill` runs none of its modules; each `__all__` name is
    then the object its home module defines, read on first access, and
    `nestfill.groups` and the other home modules resolve as attributes, as
    when the package root imported them all."""
    ran, homes, modules, star, arrays = json.loads(_fresh_python(_ROOT_PROBE, tmp_path))
    assert ran == []
    want = {"errors": ["NestfillError", "SpecError", "VerificationFailure"],
            "galois": ["Field"],
            "groups": ["Zn", "FieldTowerChain", "SubfieldTowerChain", "OmegaRingChain",
                       "chain_field_tower", "chain_subfield_tower", "chain_omega_ring",
                       "chain_from_descriptor"],
            "kronecker": ["GroupMatrix", "kron_sum", "col_kron_sum"]}
    assert homes == {name: [f"nestfill.{home}", True]
                     for home, names in want.items() for name in names}
    assert modules == dict.fromkeys(want, True)
    assert star == sorted(nestfill.__all__)
    assert not arrays  # no name of `__all__` lives there, so it stays unimported


_LIFTS = [["--mode", "nested"], ["--mode", "sliced"], ["--mode", "grouped", "--i", "2", "--j", "1"],
          ["--mode", "sliced", "--stage", "relabel-only"]]


@pytest.mark.parametrize("case", sorted(CHECK_LISTS) + [" ".join(a) for a in _LIFTS])
def test_check_claims_yields_one_report_per_claim(case, tmp_path, example3_inputs, rh_design,
                                                  monkeypatch):
    """Every claim list that construct's self-checks and verify's re-checks
    run, for each construct method's golden case and each lift mode, yields
    exactly one report per claim."""
    import nestfill.arrays
    import nestfill.verify
    from nestfill.verify import check_claims

    counts = []

    def counting(rows, claims, *args, **kwargs):
        reports = list(check_claims(rows, claims, *args, **kwargs))
        counts.append((len(reports), len(claims)))
        return iter(reports)

    monkeypatch.setattr(nestfill.arrays, "check_claims", counting)
    monkeypatch.setattr(nestfill.verify, "check_claims", counting)
    if case in CHECK_LISTS:
        outs = _construct_golden(case, tmp_path, example3_inputs)
    else:
        outs = [tmp_path / "lift.json"]
        assert run("lift", "--design", str(rh_design), *case.split(), "--seed", "1",
                   "--out", str(outs[0])) == 0
    for out in outs:
        assert run("verify", "--design", str(out), "--out", str(tmp_path / "report.json")) == 0
    assert counts and all(got == want for got, want in counts)


def test_tampered_slice_fails_its_grid_claim_once(tmp_path, rh_design, capsys):
    """A sliced lift with one row of slice 3 swapped for a row of slice 4 in
    another grid cell stays a Latin hypercube, and its 16-row slices and 64
    rows still stratify: only the 4-row slice grid fails, as one report that
    names block 3 and its first uneven cell."""
    lift = tmp_path / "lift.json"
    assert run("lift", "--design", str(rh_design), "--mode", "sliced", "--seed", "1",
               "--out", str(lift)) == 0
    data = json.loads(lift.read_text())
    assert data["grids"][0] == {"slice_size": 4, "grid": 2}
    rows, scale = data["rows"], data["scale"]

    def cell(row):
        return [v * 2 // scale for v in row]

    swap = next(r for r in range(12, 16) if cell(rows[r]) != cell(rows[8]))
    rows[8], rows[swap] = rows[swap], rows[8]
    bad, report = tmp_path / "bad.json", tmp_path / "report.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", "--design", str(bad), "--out", str(report)) == 3
    err = capsys.readouterr().err.splitlines()
    checks = json.loads(report.read_text())["checks"]
    assert len(err) == len(checks) == 4
    failed = [c for c in checks if not c["passed"]]
    assert [c["check"] for c in failed] == ["stratification[slices of 4 rows, g=2]"]
    ce = failed[0]["counterexample"]
    assert sorted(ce) == ["block", "cell", "dims", "expected", "observed"]
    assert ce["block"] == 3 and ce["expected"] == 1


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_setting(collecting, tmp_path, rh_design, capsys):
    """`main` runs each command without the cyclic garbage collector and
    leaves `gc.isenabled()` as it found it, whether the command exits 0, 2
    or 3 or argparse exits on a usage error."""
    import gc

    data = json.loads(rh_design.read_text())
    data["rows"][0][0] = 5  # a first cell that breaks the strength claim
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    jobs = [(["verify", "--design", str(rh_design)], 0),
            (["verify", "--design", str(tmp_path / "missing.json")], 2),
            (["verify", "--design", str(bad)], 3)]
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, code in jobs:
            assert main(argv) == code
            assert gc.isenabled() is collecting, argv
        with pytest.raises(SystemExit):
            main(["verify", "--no-such-option"])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def _tampered(rh_design, tmp_path):
    """A copy of `rh_design` whose first cell breaks its strength claim."""
    data = json.loads(rh_design.read_text())
    data["rows"][0][0] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    return bad


def test_main_never_freezes_the_heap(tmp_path, rh_design):
    """In-process `main` leaves `gc.get_freeze_count()` as it found it, whether
    the command exits 0, 2 or 3 or argparse exits on a usage error: only
    `run`, the process entry point, freezes the heap."""
    import gc

    bad = _tampered(rh_design, tmp_path)
    frozen = gc.get_freeze_count()
    for argv, code in [(["verify", "--design", str(rh_design)], 0),
                       (["verify", "--design", str(tmp_path / "missing.json")], 2),
                       (["verify", "--design", str(bad)], 3)]:
        assert main(argv) == code
        assert gc.get_freeze_count() == frozen, argv
    with pytest.raises(SystemExit):
        main(["verify", "--no-such-option"])
    assert gc.get_freeze_count() == frozen


_RUN_PROBE = """
import contextlib, gc, io, json, sys
from nestfill.cli import main, run

def code(call, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return call(argv)
        except SystemExit as exc:
            return exc.code

seen = []
for argv in json.loads(sys.argv[1]):
    by_main = code(main, argv)
    unfrozen = gc.get_freeze_count()
    by_run = code(run, argv)
    seen.append([by_main, unfrozen, by_run, gc.get_freeze_count()])
    gc.unfreeze()
print(json.dumps(seen))
"""


def test_run_freezes_the_heap_on_every_exit(tmp_path, rh_design):
    """In a fresh interpreter, `run` returns what `main` returns for a
    passing, a malformed and a tampered file and for argparse's usage error,
    and leaves the heap frozen after each, as `main` never does."""
    bad = _tampered(rh_design, tmp_path)
    jobs = [["verify", "--design", str(path)]
            for path in (rh_design, tmp_path / "missing.json", bad)]
    seen = json.loads(_fresh_python(_RUN_PROBE, tmp_path,
                                    json.dumps(jobs + [["verify", "--no-such-option"]])))
    assert [(by_main, by_run) for by_main, _, by_run, _ in seen] == [(0, 0), (2, 2), (3, 3),
                                                                     (2, 2)]
    assert all(unfrozen == 0 < frozen for _, unfrozen, _, frozen in seen), seen


def test_module_entry_point_exits_3_on_a_tampered_file(tmp_path, rh_design):
    """`python -m nestfill.cli verify`, which ends through `run`, exits 3 on a
    tampered file, prints its one failing line and writes its report."""
    bad, report = _tampered(rh_design, tmp_path), tmp_path / "report.json"
    src = str(Path(nestfill.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "nestfill.cli", "verify", "--design", str(bad),
                           "--out", str(report)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("nested-oa[layer 1 via rho_1]: FAIL ")
    checks = json.loads(report.read_text())["checks"]
    assert [c["passed"] for c in checks] == [False]
