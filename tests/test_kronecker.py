import ast
import importlib
import random
from pathlib import Path

import pytest

from golden import code_of
from nestfill.errors import SpecError
from nestfill.galois import Field
from nestfill.groups import Zn, chain_omega_ring
from nestfill.kronecker import GroupMatrix, col_kron_sum, kron_sum
from nestfill.verify import check_oa_strength


def col(chain, txts):
    return GroupMatrix([[code_of(chain.group, t)] for t in txts], chain.group)


def parsed(chain, rows):
    return GroupMatrix([[code_of(chain.group, t) for t in row] for row in rows], chain.group)


@pytest.fixture
def f8_tower():
    from nestfill.groups import chain_field_tower

    return chain_field_tower(2, [1, 2, 3])


def test_zero_block_is_identity(f8_tower):
    zero = GroupMatrix([[0]], f8_tower.group)
    b = col(f8_tower, ["0", "1", "x", "x+1"])
    assert kron_sum(zero, b) == b


def test_kron_sum_column_vectors(f8_tower):
    t1 = col(f8_tower, ["0", "1"])
    t2 = col(f8_tower, ["0", "x"])
    t3 = col(f8_tower, ["0", "x^2"])
    text = f8_tower.group.text_code
    assert [text(r[0]) for r in kron_sum(t1, t2).code_rows] == ["0", "x", "1", "x+1"]
    assert [text(r[0]) for r in kron_sum(t2, t3).code_rows] == ["0", "x^2", "x", "x^2+x"]


def test_kron_sum_shape(f8_tower):
    a = GroupMatrix([[0] * 3] * 2, f8_tower.group)  # 2x3
    b = GroupMatrix([[0] * 5] * 4, f8_tower.group)  # 4x5
    assert kron_sum(a, b).shape == (8, 15)
    assert col_kron_sum(a, GroupMatrix([[0] * 3] * 4, f8_tower.group)).shape == (8, 3)


def test_col_kron_zero_row_identity():
    chain = chain_omega_ring([Zn(6), Zn(2)])
    a1 = parsed(chain, [("0", "1", "5"), ("2", "3", "4")])
    zero_row = GroupMatrix([[0] * 3], chain.group)
    assert col_kron_sum(zero_row, a1) == a1


def test_col_kron_block_row():
    # second block of A2 (+c) A1 starts at A2 row 2 + A1 row 1
    chain = chain_omega_ring([Zn(6), Zn(2)])
    a1_first = parsed(chain, [("0", "0", "5")])
    a2 = parsed(chain, [("0", "0", "0"), ("0", "w", "w")])
    out = col_kron_sum(a2, a1_first)
    assert [chain.text_code(c) for c in out.code_rows[1]] == ["0", "w", "5+w"]


def test_col_kron_ndm_row5():
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    d1 = parsed(chain, [("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")])
    d2 = parsed(chain, [("0", "0", "0"), ("0", "w", "2w"), ("0", "2w", "w")])
    e2 = col_kron_sum(d2, d1)
    assert [chain.text_code(c) for c in e2.code_rows[4]] == ["0", "w", "2w"]


def test_mismatch_errors(f8_tower):
    other = chain_omega_ring([Zn(2)])
    a = GroupMatrix([[0]], f8_tower.group)
    b = GroupMatrix([[0]], other.group)
    with pytest.raises(SpecError):
        kron_sum(a, b)
    with pytest.raises(SpecError):
        col_kron_sum(GroupMatrix([[0] * 2], f8_tower.group), GroupMatrix([[0] * 3], f8_tower.group))


@pytest.mark.parametrize("rows, message", [
    ([], "matrix must have at least one row and one column"),
    ([[0, 1], [0]], "ragged rows"),
    ([[0], [0, 1], [1]], "ragged rows"),
], ids=["no-rows", "ragged", "ragged-first-row-shorter"])
def test_group_matrix_refuses_a_non_rectangular_matrix(rows, message):
    with pytest.raises(SpecError, match=f"^{message}$"):
        GroupMatrix(rows, Field(2, 1))


@pytest.mark.parametrize("rows, code", [([[0, 1], [-1, 4]], -1), ([[0, 1], [3, 4]], 4)],
                         ids=["below-range", "above-range"])
def test_group_matrix_names_the_first_code_out_of_range(rows, code):
    """A code below the range is named before one above it."""
    with pytest.raises(SpecError, match=rf"^code {code} out of range 0\.\.3 for Field\(p=2, u=2\)$"):
        GroupMatrix(rows, Field(2, 2))


def test_col_kron_associative(f8_tower):
    rng = random.Random(7)
    codes = [rng.randrange(8) for _ in range(60)]
    mk = lambda rows, cols, off: GroupMatrix(
        [[codes[(off + r * cols + c) % 60] for c in range(cols)] for r in range(rows)],
        f8_tower.group,
    )
    for off in range(5):
        a, b, c = mk(2, 3, off), mk(3, 3, off + 7), mk(2, 3, off + 20)
        left = col_kron_sum(col_kron_sum(a, b), c)
        right = col_kron_sum(a, col_kron_sum(b, c))
        assert left == right


def _cyclic_oa(chain, layer, s):
    """OA(s^2, 3, s, 2) over the layer-'layer' transversal: rows (a, b, a+b)."""
    tr = chain.transversal_codes(layer)
    rows = []
    for a in range(s):
        for b in range(s):
            rows.append((tr[a], tr[b], tr[(a + b) % s]))
    return GroupMatrix(rows, chain.group)


@pytest.mark.parametrize("s1,s2", [(2, 2), (2, 3), (3, 2), (3, 4)])
def test_strength_preserved_under_col_kron(s1, s2):
    chain = chain_omega_ring([Zn(s1), Zn(s2)])
    a1 = _cyclic_oa(chain, 1, s1)
    a2 = _cyclic_oa(chain, 2, s2)
    assert check_oa_strength(a1.code_rows, s1, 2).passed
    assert check_oa_strength(a2.code_rows, s2, 2).passed
    b = col_kron_sum(a2, a1)
    rep = check_oa_strength(b.code_rows, s1 * s2, 2)
    assert rep.passed, rep.message()


def test_owner_is_required():
    """A matrix is codes of one group: rows without their owner are refused."""
    with pytest.raises(TypeError):
        GroupMatrix([[0, 1], [1, 0]])


@pytest.mark.parametrize("module", ["arrays", "kronecker", "spacefill", "cli"])
def test_engine_imports_no_element(module):
    """The engine and the CLI hold integer codes: Element is an edge view
    that these modules never import."""
    path = Path(importlib.import_module(f"nestfill.{module}").__file__)
    imported = {a.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert "Element" not in imported



# the modules that may name Element besides galois, which defines it, and
# the functions in each that may: the three element views stay only because
# the benchmark's traced pass wraps or calls them
_EDGE = {"__init__.py": set(),
         "groups.py": {"layer_elements", "enumerate_ordered", "projection_map"}}


def _element_uses(tree):
    """(enclosing function or None, node) for every use of the name Element:
    a load, store or annotation, or an import of it."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id == "Element"
                or isinstance(node, ast.alias) and node.name == "Element"):
            out.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_element_appears_only_at_the_edge():
    """`Element(group, code)` is the one way to make an element.  Besides
    `galois`, only the package's re-export in `__init__` and `groups` name
    it, and `groups` only in its import, the `OmegaElement` alias and the
    element views the benchmark pins."""
    package = Path(importlib.import_module("nestfill").__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "galois.py":
            continue
        tree = ast.parse(path.read_text())
        views = _EDGE.get(path.name)
        if views is None:
            assert _element_uses(tree) == [], path.name
            continue
        edge = {id(a) for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
        edge |= {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["OmegaElement"]}
        stray = [(func, node.lineno) for func, node in _element_uses(tree)
                 if id(node) not in edge and func not in views]
        assert stray == [], path.name
