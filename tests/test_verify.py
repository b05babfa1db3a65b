import ast
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestfill.verify
from golden import KRON_NDM_GF4_Z3_Z2, RH_NOA_P2_U123_K2
from nestfill.errors import SpecError
from nestfill.galois import Field, poly_residue
from nestfill.groups import Zn, chain_field_tower, chain_omega_ring
from nestfill.verify import (
    check_difference_matrix,
    check_latin_hypercube,
    check_nested,
    check_nested_dm,
    check_oa_strength,
    check_projection_compatibility,
    check_sliced,
    check_stratification,
)


@pytest.fixture(scope="module")
def table1_codes():
    f = Field(2, 3)
    return [[f.parse_code(t) for t in row] for row in RH_NOA_P2_U123_K2]


class TestOaStrength:
    def test_reference_design_passes(self, table1_codes):
        assert check_oa_strength(table1_codes, 8, 2).passed

    def test_collapsed_prefix_passes(self, table1_codes):
        collapsed = [[v % 2 for v in row] for row in table1_codes[:4]]
        assert check_oa_strength(collapsed, 2, 2).passed

    def test_uncollapsed_prefix_fails(self, table1_codes):
        # the 16-row prefix is no OA on 8 levels before collapsing
        rep = check_oa_strength(table1_codes[:16], 8, 2)
        assert not rep.passed
        # same rows repeated to fix divisibility: still only 4 of 8 levels
        rep = check_oa_strength(table1_codes[:16] * 4, 8, 2)
        assert not rep.passed
        assert "4 distinct levels" in rep.detail

    def test_divisibility_failure_is_report_not_exception(self):
        rep = check_oa_strength([[0, 1], [1, 0], [0, 0]], 2, 2)
        assert not rep.passed
        assert rep.counterexample == {"n": 3, "s": 2, "t": 2}

    def test_strength_exceeding_columns_raises(self):
        with pytest.raises(SpecError):
            check_oa_strength([[0, 1]], 2, 3)

    def test_counterexample_is_lex_first(self):
        rows = [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
        rep = check_oa_strength(rows, 2, 2)
        assert not rep.passed
        assert rep.counterexample["columns"] == [0, 1]
        assert rep.counterexample["levels"] == [0, 0]
        assert (rep.counterexample["observed"], rep.counterexample["expected"]) == (2, 1)


class TestDifferenceMatrix:
    def test_small_gf4_matrix(self):
        f = Field(2, 2)
        rows = [[f.element(0), f.element(c)] for c in range(4)]
        rep = check_difference_matrix(rows, f.elements())
        assert rep.passed, rep.message()

    def test_constant_matrix_fails(self):
        rep = check_difference_matrix([[0, 0], [0, 0]], [0, 1])
        assert not rep.passed

    def test_reference_ndm_top_layer(self):
        chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
        rows = [[chain.parse(t) for t in row] for row in KRON_NDM_GF4_Z3_Z2]
        els = [chain.element_from_code(c) for c in range(24)]
        rep = check_difference_matrix(rows, els)
        assert rep.passed, rep.message()

    def test_zn_subtraction(self):
        z = Zn(3)
        rows = [[0, a] for a in range(3)]
        assert check_difference_matrix(rows, range(3), subtract=z.sub_codes).passed


class TestLatinHypercube:
    def test_identity_column(self):
        assert check_latin_hypercube([[0], [1], [2]]).passed

    def test_repeated_value_fails(self):
        rep = check_latin_hypercube([[0, 0], [1, 1], [2, 1]])
        assert not rep.passed
        assert rep.counterexample["column"] == 1


class TestStratification:
    def test_trivial_grid(self):
        assert check_stratification([[0, 1], [1, 0]], scale=2, g=1).passed

    def test_perfect_grid(self):
        rows = [(0, 0), (1, 3), (2, 1), (3, 2)]
        assert check_stratification(rows, scale=4, g=2).passed

    def test_clustered_fails(self):
        rows = [(0, 0), (1, 1), (2, 2), (3, 3)]
        rep = check_stratification(rows, scale=4, g=2)
        assert not rep.passed
        assert rep.counterexample["cell"] == [0, 0]
        assert rep.counterexample["observed"] == 2

    def test_single_pair_selection(self):
        rows = [(0, 0, 0), (1, 3, 1), (2, 1, 2), (3, 2, 3)]
        assert check_stratification(rows, scale=4, g=2, dims=(0, 1)).passed
        assert not check_stratification(rows, scale=4, g=2, dims=(0, 2)).passed


class TestNestedAndSliced:
    def test_reference_family(self, table1_codes):
        layers = [table1_codes[:4], table1_codes[:16], table1_codes]
        projections = [{c: c % 2 for c in range(8)}, {c: c % 4 for c in range(8)}, {c: c for c in range(8)}]
        rep = check_nested(layers, projections, [2, 4, 8], 2)
        assert rep.passed, rep.message()

    def test_shuffled_layer_fails(self, table1_codes):
        layers = [table1_codes[4:8], table1_codes[:16]]
        projections = [{c: c % 2 for c in range(8)}, {c: c % 4 for c in range(8)}]
        rep = check_nested(layers, projections, [2, 4], 2)
        assert not rep.passed
        assert "row prefix" in rep.detail

    def test_single_layer_reduces_to_strength(self, table1_codes):
        rep = check_nested([table1_codes], [{c: c for c in range(8)}], [8], 2)
        assert rep.passed

    def test_equal_dm_layers_fail(self):
        # GF(4) codes under XOR: both collapses of D are difference matrices
        rows = [[0, a] for a in range(4)]
        projections = [{c: c & 1 for c in range(4)}, {c: c for c in range(4)}]
        rep = check_nested_dm([rows, rows], projections, [[0, 1], range(4)], operator.xor)
        assert not rep.passed
        assert rep.detail == "layer 2 not larger than layer 1"

    def test_misaligned_dm_inputs_raise(self):
        rows = [[0, a] for a in range(4)]
        projections = [{c: c & 1 for c in range(4)}, {c: c for c in range(4)}]
        with pytest.raises(SpecError):
            check_nested_dm([rows], projections, [range(4)], operator.xor)

    def test_sliced_reference(self, table1_codes):
        rho2 = {c: c % 4 for c in range(8)}
        rep = check_sliced(table1_codes, 16, rho2, 4, 2)
        assert rep.passed, rep.message()

    def test_single_slice_reduces_to_collapsed_check(self, table1_codes):
        rho1 = {c: c % 2 for c in range(8)}
        assert check_sliced(table1_codes, 64, rho1, 2, 2).passed

    def test_sliced_failure_reports_slice(self, table1_codes):
        rho1 = {c: c % 2 for c in range(8)}
        # slicing at the wrong granularity breaks balance
        rep = check_sliced(table1_codes[:8], 2, rho1, 2, 2)
        assert not rep.passed


class TestProjectionCompatibility:
    def test_subgroup_projections_compatible(self):
        chain = chain_field_tower(2, [1, 2, 3])
        maps = [chain.projection_table(i) for i in (1, 2, 3)]
        maps = [dict(enumerate(t)) for t in maps]
        assert check_projection_compatibility(maps).passed

    def test_modulus_projection_fails(self):
        # residue mod x^2+x+1 and mod x+1 are not a compatible family
        f = Field(2, 3)

        def phi(g):
            return {
                c: f.encode(poly_residue(f.coeffs(c), g, 2) + (0, 0, 0))
                for c in range(8)
            }

        maps = [phi((1, 1)), phi((1, 1, 1)), {c: c for c in range(8)}]
        rep = check_projection_compatibility(maps)
        assert not rep.passed
        # the documented violating pair: x^2 and x+1 agree under the middle
        # collapse but disagree under the coarse one
        x2, xp1 = f.parse_code("x^2"), f.parse_code("x+1")
        assert maps[1][x2] == maps[1][xp1] == f.parse_code("x+1")
        assert maps[0][x2] == 1 and maps[0][xp1] == 0


def _pairwise_compatibility(projections):
    """Reference: scan every (a, b) pair of every layer pair (j, i) in order
    and return the first violation as (layers, pair), or None."""
    for i in range(len(projections)):
        domain = list(projections[i])
        for j in range(i):
            for a in domain:
                for b in domain:
                    if (projections[i][a] == projections[i][b]
                            and projections[j][a] != projections[j][b]):
                        return [j + 1, i + 1], [a, b]
    return None


@st.composite
def projection_families(draw):
    """Up to four maps on a shuffled domain; each map below the top is either
    random or a coarsening of the map above it, so both outcomes occur."""
    q = draw(st.integers(1, 10))
    domain = draw(st.permutations(range(q)))
    images = [draw(st.lists(st.integers(0, 3), min_size=q, max_size=q))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            coarsen = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
            images.insert(0, [coarsen[v] for v in images[0]])
        else:
            images.insert(0, draw(st.lists(st.integers(0, 3), min_size=q, max_size=q)))
    return [{a: img[a] for a in domain} for img in images]


@settings(max_examples=300, deadline=None)
@given(projection_families())
def test_compatibility_matches_pairwise_scan(projections):
    rep = check_projection_compatibility(projections)
    want = _pairwise_compatibility(projections)
    assert rep.passed == (want is None)
    if want is not None:
        layers, pair = want
        assert rep.counterexample == {"layers": layers, "pair": pair}


def test_verify_imports_no_construction_code():
    """The oracles must not trust construction code: verify.py may import
    nothing from the package but its errors."""
    imported = set()
    for node in ast.walk(ast.parse(Path(nestfill.verify.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            imported.update(f"nestfill.{n}" for n in names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nestfill":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "nestfill")
    assert imported <= {"nestfill.errors"}
