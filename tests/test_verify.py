import ast
import operator
from collections import Counter
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nestfill.arrays
import nestfill.verify
from golden import KRON_NDM_GF4_Z3_Z2, RH_NOA_P2_U123_K2, code_of
from nestfill.errors import SpecError
from nestfill.galois import Field, poly_residue
from nestfill.groups import Zn, chain_field_tower, chain_omega_ring
from nestfill.verify import (
    Claim,
    check_claims,
    check_difference_matrix,
    check_latin_hypercube,
    check_nested,
    check_nested_dm,
    check_oa_strength,
    check_projection_compatibility,
    check_sliced,
    check_stratification,
    VerificationReport,
)


@pytest.fixture(scope="module")
def table1_codes():
    f = Field(2, 3)
    return [[code_of(f, t) for t in row] for row in RH_NOA_P2_U123_K2]


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
        rows = [[0, c] for c in range(4)]
        rep = check_difference_matrix(rows, range(4), subtract=f.sub_codes)
        assert rep.passed, rep.message()

    def test_constant_matrix_fails(self):
        rep = check_difference_matrix([[0, 0], [0, 0]], [0, 1])
        assert not rep.passed

    def test_reference_ndm_top_layer(self):
        chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
        rows = [[code_of(chain, t) for t in row] for row in KRON_NDM_GF4_Z3_Z2]
        rep = check_difference_matrix(rows, range(24), subtract=chain.sub_codes)
        assert rep.passed, rep.message()

    def test_zn_subtraction(self):
        rows = [[0, a] for a in range(3)]
        assert check_difference_matrix(rows, range(3), subtract=lambda a, b: (a - b) % 3).passed


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
        assert check_stratification([r[:2] for r in rows], scale=4, g=2).passed
        assert not check_stratification([r[::2] for r in rows], scale=4, g=2).passed


class TestNestedAndSliced:
    def test_reference_family(self, table1_codes):
        projections = [{c: c % 2 for c in range(8)}, {c: c % 4 for c in range(8)}, {c: c for c in range(8)}]
        rep = check_nested(table1_codes, [4, 16, 64], projections, [2, 4, 8], 2)
        assert rep.passed, rep.message()

    def test_single_layer_reduces_to_strength(self, table1_codes):
        rep = check_nested(table1_codes, [64], [{c: c for c in range(8)}], [8], 2)
        assert rep.passed

    def test_equal_dm_layers_fail(self):
        # GF(4) codes under XOR: both collapses of D are difference matrices
        rows = [[0, a] for a in range(4)]
        projections = [{c: c & 1 for c in range(4)}, {c: c for c in range(4)}]
        rep = check_nested_dm(rows, [4, 4], projections, [[0, 1], range(4)], operator.xor)
        assert not rep.passed
        assert rep.detail == "layer 2 not larger than layer 1"

    def test_misaligned_dm_inputs_raise(self):
        # two layers, one element set: check_claims refuses the missing layer
        rows = [[0, a] for a in range(4)]
        projections = [{c: c & 1 for c in range(4)}, {c: c for c in range(4)}]
        with pytest.raises(SpecError):
            check_nested_dm(rows, [2, 4], projections, [range(4)], operator.xor)

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
        x2, xp1 = code_of(f, "x^2"), code_of(f, "x+1")
        assert maps[1][x2] == maps[1][xp1] == code_of(f, "x+1")
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


# Reference oracles: the ordered cell-by-cell scans, with no shortcut for a
# perfect histogram.  The oracles in verify.py must give the same report.

def _ref_oa_strength(rows, s, t, name="oa-strength"):
    rows = [tuple(r) for r in rows]
    n, m = len(rows), len(rows[0])
    if n % s**t:
        return VerificationReport(name, False, f"run size {n} not divisible by {s}^{t}",
                                  {"n": n, "s": s, "t": t})
    levels = sorted({v for r in rows for v in r})
    if len(levels) != s:
        return VerificationReport(name, False, f"found {len(levels)} distinct levels, "
                                  f"expected {s}", {"levels": levels})
    expected = n // s**t
    for cols in combinations(range(m), t):
        counts = Counter(tuple(r[c] for c in cols) for r in rows)
        for combo in product(levels, repeat=t):
            if counts[combo] != expected:
                return VerificationReport(name, False, "unbalanced level tuple", {
                    "columns": list(cols), "levels": list(combo),
                    "observed": counts[combo], "expected": expected})
    return VerificationReport(name, True, f"OA({n}, {m}, {s}, {t})")


def _ref_difference_matrix(rows, elements, subtract, name="difference-matrix"):
    r, c, s = len(rows), len(rows[0]), len(elements)
    if r % s:
        return VerificationReport(name, False, f"row count {r} not divisible by group "
                                  f"order {s}", {"rows": r, "group order": s})
    expected = r // s
    for c1, c2 in permutations(range(c), 2):
        counts = Counter(subtract(row[c1], row[c2]) for row in rows)
        for el in sorted(elements):
            if counts[el] != expected:
                return VerificationReport(name, False, "uneven difference coverage", {
                    "columns": [c1, c2], "element": el,
                    "observed": counts[el], "expected": expected})
    return VerificationReport(name, True, f"D({r}, {c}, {s})")


def _ref_latin_hypercube(rows, name="latin-hypercube"):
    n, m = len(rows), len(rows[0])
    for j in range(m):
        col = sorted(r[j] for r in rows)
        if col != list(range(n)):
            missing = sorted(set(range(n)) - set(col))
            return VerificationReport(name, False, f"column {j} is not a permutation of "
                                      f"0..{n - 1}", {"column": j, "missing": missing[:5]})
    return VerificationReport(name, True, f"{n}x{m} Latin hypercube")


def _ref_stratification(rows, scale, g, name="stratification"):
    n, m = len(rows), len(rows[0])
    if n % (g * g):
        return VerificationReport(name, False, f"run size {n} not divisible by {g}^2",
                                  {"n": n, "g": g})
    expected = n // (g * g)
    for d1, d2 in combinations(range(m), 2):
        counts = Counter((r[d1] * g // scale, r[d2] * g // scale) for r in rows)
        for cell in product(range(g), repeat=2):
            if counts[cell] != expected:
                return VerificationReport(name, False, "uneven grid cell", {
                    "dims": [d1, d2], "cell": list(cell),
                    "observed": counts[cell], "expected": expected})
    return VerificationReport(name, True, f"{g}x{g} grid, {expected}/cell")


@st.composite
def near_balanced(draw, s, m, top):
    """Rows with m columns and values in 0..top: random ones, or each of the
    s**m tuples over 0..s-1 (balanced in every sense the oracles test) once
    or twice in shuffled order, with up to three edits: a cell set to any
    value, or two cells of a column swapped (the column stays balanced)."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([1, s, s * s, 2 * s * s]))
        return draw(st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m),
                             min_size=n, max_size=n))
    copies = draw(st.integers(1, 2))
    rows = draw(st.permutations([list(r) for r in product(range(s), repeat=m)
                                 for _ in range(copies)]))
    for _ in range(draw(st.integers(0, 3))):
        i, k = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        j = draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            rows[i][j] = draw(st.integers(0, top))
        else:
            rows[i][j], rows[k][j] = rows[k][j], rows[i][j]
    return rows


@st.composite
def oa_cases(draw):
    s, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # a value s gives the extra-level case, claiming s + 1 levels the
    # missing-level one
    rows = draw(near_balanced(s, m, draw(st.sampled_from([s - 1, s]))))
    return rows, s + draw(st.sampled_from([0, 0, 1])), draw(st.integers(1, m))


@st.composite
def dm_cases(draw):
    s, c = draw(st.integers(1, 4)), draw(st.integers(2, 3))
    rows = draw(near_balanced(s, c, s - 1))
    # mod s keeps every difference in the group; plain and mod s+1
    # differences can fall outside it
    modulus = draw(st.sampled_from([s, s + 1, None]))
    subtract = operator.sub if modulus is None else (lambda a, b: (a - b) % modulus)
    return rows, list(range(s)), subtract


@st.composite
def strat_cases(draw):
    g, width, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    scale = g * width
    # cell g lies past the grid: its values are scale..scale+width-1
    cells = draw(near_balanced(g, m, draw(st.sampled_from([g - 1, g]))))
    rows = [[c * width + draw(st.integers(0, width - 1)) for c in r] for r in cells]
    return rows, scale, g


@st.composite
def lh_cases(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    cols = [draw(st.permutations(range(n))) for _ in range(m)]
    rows = [list(r) for r in zip(*cols)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(st.integers(0, n))
    return rows


@settings(max_examples=300, deadline=None)
@given(oa_cases())
@example(([[0], [0], [0], [1]], 2, 1))  # every level seen, but unevenly
@example(([[0, 0], [0, 1], [1, 0], [0, 0]], 2, 2))  # index 1, row 3 a copy of row 0
@example(([[3, 3], [3, 5], [5, 3], [3, 3]], 2, 2))  # the same on ranked levels {3, 5}
# OA(8, 4, 2, 3) with cell (4, 1) flipped: the first uneven tuple of columns
# [0, 1, 2] is (1, 0, 0), whose place values a reversed digit order reads as (0, 1, 0)
@example(([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0],
           [1, 1, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], 2, 3))
def test_oa_strength_matches_ordered_scan(case):
    rows, s, t = case
    assert check_oa_strength(rows, s, t) == _ref_oa_strength(rows, s, t)


@st.composite
def high_strength_cases(draw):
    """Strength 3 or 4 over 2 or 3 levels, on up to 5 columns: `oa_cases`
    draws at most 3 columns, so it never reaches t = 4."""
    s, t = draw(st.sampled_from([2, 3])), draw(st.sampled_from([3, 4]))
    rows = draw(near_balanced(s, draw(st.integers(t, 5)), draw(st.sampled_from([s - 1, s]))))
    return rows, s, t


@settings(max_examples=300, deadline=None)
@given(high_strength_cases())
def test_high_strength_counterexample_matches_ordered_scan(case):
    """At t = 3 and 4 the first uneven column subset and level tuple, and
    every other report field, are the ordered scan's."""
    rows, s, t = case
    assert check_oa_strength(rows, s, t) == _ref_oa_strength(rows, s, t)


@settings(max_examples=300, deadline=None)
@given(dm_cases())
@example(([[0, 0], [1, 0]], [0, 1], operator.sub))  # difference -1 outside {0, 1}
def test_difference_matrix_matches_ordered_scan(case):
    rows, elements, subtract = case
    assert (check_difference_matrix(rows, elements, subtract)
            == _ref_difference_matrix(rows, elements, subtract))


@settings(max_examples=300, deadline=None)
@given(strat_cases())
@example(([[0, 0], [0, 2], [2, 0], [4, 2]], 4, 2))  # cell (2, 1) past the grid
@example(([[0, 0, 0], [0, 1, 1], [0, 2, 1], [1, 1, 0]], 2, 2))  # (0, 2) aliases (1, 0)
def test_stratification_matches_ordered_scan(case):
    rows, scale, g = case
    assert check_stratification(rows, scale, g) == _ref_stratification(rows, scale, g)


@st.composite
def strat_family_cases(draw):
    """Equal blocks of rows for the one-pass grid check of a block family:
    each block holds every cell tuple over 0..g-1 once or twice (one point
    per g x g cell for two columns), or random cells, with up to three
    edits over the whole family (a cell set to any value, possibly past the
    grid, or two cells of a column swapped, possibly across blocks).  A
    block size that g**2 does not divide fails every block."""
    g, width, m = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    top = draw(st.sampled_from([g - 1, g]))
    copies, blocks = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        size = draw(st.sampled_from([1, g, g * g, 2 * g * g]))
        cells = draw(st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m),
                              min_size=size * blocks, max_size=size * blocks))
    else:
        size = copies * g**m
        cells = []
        for _ in range(blocks):
            cells += draw(st.permutations([list(r) for r in product(range(g), repeat=m)
                                           for _ in range(copies)]))
    for _ in range(draw(st.integers(0, 3))):
        i, k = (draw(st.integers(0, len(cells) - 1)) for _ in range(2))
        j = draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            cells[i][j] = draw(st.integers(0, top))
        else:
            cells[i][j], cells[k][j] = cells[k][j], cells[i][j]
    rows = [[c * width + draw(st.integers(0, width - 1)) for c in r] for r in cells]
    return rows, g * width, g, size


@settings(max_examples=300, deadline=None)
@given(strat_family_cases())
@example(([[0, 0], [0, 1], [0, 2], [1, 1]], 2, 2, 4))  # key 0*2+2 aliases cell (1, 0)
# block 1's cell (1, 2) aliases block 2's (0, 0), block 2's (0, -1) block 1's (1, 1)
@example(([[0, 0], [0, 1], [1, 0], [1, 2], [0, -1], [0, 1], [1, 0], [1, 1]], 2, 2, 4))
def test_stratification_family_matches_blocks(case):
    """The one-pass decision on a block family is the per-block loop's: it
    passes exactly when every block does, and a failing family reports the
    first failing block.  check_claims yields the family report alone.  The
    per-block oracle is held to the row-wise reference as well."""
    rows, scale, g, size = case
    blocks = [rows[b : b + size] for b in range(0, len(rows), size)]
    reps = [check_stratification(block, scale, g) for block in blocks]
    assert reps == [_ref_stratification(block, scale, g) for block in blocks]
    family = check_stratification(rows, scale, g, size=size)
    assert family.passed == all(reps)
    first = next((b for b, rep in enumerate(reps) if not rep), None)
    if first is None or len(blocks) == 1:
        assert family == reps[0]
    else:
        assert family == reps[first]._replace(counterexample={
            "block": first + 1, **reps[first].counterexample})
    claims = [Claim("strat", strength=g, size=size)]
    assert list(check_claims(rows, claims, levels=[scale])) == [family]


@pytest.mark.parametrize("check", [
    lambda: check_stratification([[0, 0], [1, 4], [4, 1], [5, 5], [2, 2], [3, 6], [6, 3], [7, 7]],
                                 8, 2, size=4),
    lambda: check_oa_strength([list(r) + [sum(r) % 2] for r in product(range(2), repeat=3)], 2, 3),
], ids=["strat-blocks", "oa-strength"])
def test_a_passing_family_is_decided_in_one_pass(check, monkeypatch):
    """A family that passes is accepted by the one-pass test over all of its
    blocks: the ordered block-by-block scan, the one caller of `_uneven`
    here, never runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return uneven(*args)

    uneven = nestfill.verify._uneven
    monkeypatch.setattr(nestfill.verify, "_uneven", counted)
    assert check().passed
    assert calls == []


@pytest.mark.parametrize("size", [0, 2])
def test_stratification_refuses_one_column(size):
    """A grid is a pair of columns, so a grid claim on one column has nothing
    to count and is refused, as a strength above the column count is."""
    rows = [[v] for v in range(4)]
    with pytest.raises(SpecError, match="^a grid claim needs at least two columns, got 1$"):
        check_stratification(rows, 4, 2, size=size)
    with pytest.raises(SpecError):
        list(check_claims(rows, [Claim("strat", size=size)], levels=[4]))


def test_stratification_family_size_not_dividing_rows():
    rows = [[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1]]
    want = VerificationReport("stratification", False, "run size 6 not divisible by block size 4",
                              {"n": 6, "size": 4})
    assert check_stratification(rows, 2, 2, size=4) == want
    assert list(check_claims(rows, [Claim("strat", strength=2, size=4)], levels=[2])) == [want]


@settings(max_examples=300, deadline=None)
@given(lh_cases())
def test_latin_hypercube_matches_ordered_scan(rows):
    assert check_latin_hypercube(rows) == _ref_latin_hypercube(rows)


# Row-wise references of the composite oracles: every layer cut from the top
# as a list of rows, and every collapse made one row at a time before the
# reference flat oracle counts it.  The column-wise oracles in verify.py must
# give the same report.

def _project(rows, table):
    return [tuple(table[v] for v in r) for r in rows]


def _ref_nested(rows, stops, projections, s_levels, t, name="nested-oa"):
    return _ref_layers(rows, stops, projections, s_levels,
                       lambda rows, s, layer: _ref_oa_strength(rows, s, t, layer),
                       name, f"{len(stops)} layers, strength {t}")


def _ref_nested_dm(rows, stops, projections, element_sets, subtract, name="nested-dm"):
    return _ref_layers(rows, stops, projections, element_sets,
                       lambda rows, els, layer: _ref_difference_matrix(rows, els, subtract, layer),
                       name, f"{len(stops)} layers")


def _ref_layers(rows, stops, projections, per_layer, oracle, name, detail):
    """Layer sizes, compatibility, then oracle(collapsed rows, per_layer[j],
    name) on every collapse rho_j of every layer i, the first stops[i] rows
    (j <= i)."""
    for i in range(len(stops) - 1):
        if stops[i + 1] <= stops[i]:
            return VerificationReport(name, False, f"layer {i + 2} not larger than layer {i + 1}")
    violation = _pairwise_compatibility(projections)
    if violation is not None:
        layers, pair = violation
        return VerificationReport(name, False, "refinement violated",
                                  {"layers": layers, "pair": pair})
    for i, stop in enumerate(stops):
        for j in range(i + 1):
            rep = oracle(_project(rows[:stop], projections[j]), per_layer[j],
                         f"{name}[layer {i + 1} via rho_{j + 1}]")
            if not rep:
                return rep
    return VerificationReport(name, True, detail)


def _ref_sliced(rows, slice_size, projection, s_low, t, name="sliced-oa"):
    n = len(rows)
    if n % slice_size:
        return VerificationReport(name, False,
                                  f"run size {n} not divisible by slice size {slice_size}")
    for l in range(n // slice_size):
        block = _project(rows[l * slice_size : (l + 1) * slice_size], projection)
        rep = _ref_oa_strength(block, s_low, t, f"{name}[slice {l + 1}]")
        if not rep:
            return rep
    return VerificationReport(name, True, f"{n // slice_size} slices of {slice_size} rows, "
                                          f"strength {t}")


def _ref_claim(rows, c, projections, levels, element_sets, subtract):
    named = {"name": c.name} if c.name else {}
    if c.kind == "nested":
        return _ref_nested(rows, c.rows, [projections[j - 1] for j in c.layers],
                           [levels[j - 1] for j in c.layers], c.strength, **named)
    if c.kind == "nested-dm":
        return _ref_nested_dm(rows, c.rows, [projections[j - 1] for j in c.layers],
                              [element_sets[j - 1] for j in c.layers], subtract, **named)
    j = c.layers[0] if c.layers else len(levels)
    block = rows[c.rows[0] : c.rows[1]] if c.rows else rows
    if c.kind == "sliced":
        return _ref_sliced(block, c.size, projections[j - 1], levels[j - 1], c.strength, **named)
    if c.layers:
        block = _project(block, projections[j - 1])
    if c.kind == "oa":
        return _ref_oa_strength(block, levels[j - 1], c.strength, **named)
    return _ref_difference_matrix(block, element_sets[j - 1], subtract, **named)


_GOLDEN = [[code_of(Field(2, 3), v) for v in row] for row in RH_NOA_P2_U123_K2]


@st.composite
def chain_matrices(draw):
    """A top matrix with one projection per layer, all on relabeled codes.

    The top is the 64-row three-layer nested OA over GF(8) (collapsed by
    codes mod 2 and mod 4) or a near-balanced matrix over 0..s-1 collapsed
    mod the smaller level counts.  Every layer's levels are relabeled by an
    injection into 0..15, so level codes are sparse and their sorted order
    is not that of the originals; now and then one projection is made
    incompatible.  Up to two cells of the top are set to other codes.
    Returns (top rows, projections, level counts)."""
    if draw(st.booleans()):
        sizes, top = [2, 4, 8], [list(r) for r in _GOLDEN]
    else:
        sizes = draw(st.sampled_from([[2], [4], [2, 4], [3], [3, 9]]))
        top = draw(near_balanced(sizes[-1], draw(st.integers(1, 3)), sizes[-1] - 1))
    q = sizes[-1]
    labels = [draw(st.lists(st.integers(0, 15), min_size=s, max_size=s, unique=True))
              for s in sizes]
    folds = [(lambda c, s=s: c % s) for s in sizes]
    if len(sizes) > 1 and draw(st.integers(0, 4)) == 0:
        j = draw(st.integers(0, len(sizes) - 2))
        folds[j] = lambda c, k=q // sizes[j]: c // k
    projections = [{labels[-1][c]: labels[j][fold(c)] for c in range(q)}
                   for j, fold in enumerate(folds)]
    top = [[labels[-1][c] for c in r] for r in top]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(top))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(labels[-1]))
    return top, projections, sizes


@st.composite
def nested_cases(draw):
    """A chain matrix with prefix stops, increasing (or random, so a layer
    may not be larger), the last one its row count."""
    top, projections, sizes = draw(chain_matrices())
    n = len(top)
    natural = [n * s // sizes[-1] for s in sizes]
    if draw(st.booleans()) and all(natural):
        stops = natural
    else:
        stops = sorted(draw(st.lists(st.integers(1, n), min_size=len(sizes) - 1,
                                     max_size=len(sizes) - 1))) + [n]
    return top, stops, projections, sizes, draw(st.integers(1, min(3, len(top[0]))))


def _sparse_nest():
    """Two layers over the codes {0, 1, 6, 7}, as a top and its prefix stops:
    the four binary pairs, then all sixteen pairs with the 6 and the 0 of
    rows (6, 6) and (7, 0) exchanged, which the collapse mod 2 cannot see."""
    swap = {(6, 6): (6, 0), (7, 0): (7, 6)}
    top = [(0, 0), (0, 1), (1, 0), (1, 1)] + [
        swap.get(r, r) for r in product([0, 1, 6, 7], repeat=2) if not set(r) <= {0, 1}]
    return top, [4, 16], [{c: c % 2 for c in (0, 1, 6, 7)}, {c: c for c in (0, 1, 6, 7)}]


# the 2^3 factorial on the codes {1, 6} with row (1, 6, 6) replaced by a second (1, 1, 6)
_T3_ROWS = [tuple(6 if b else 1 for b in r) for r in product([1, 0], repeat=3)
            if r != (0, 1, 1)] + [(1, 1, 6)]


@settings(max_examples=300, deadline=None)
@given(nested_cases())
@example((*_sparse_nest(), [2, 4], 2))  # layer 2 via rho_2 fails at sparse codes (6, 0)
@example((_T3_ROWS, [8], [{1: 1, 6: 6}], [2], 3))  # strength 3 fails at levels (1, 1, 6)
def test_nested_matches_rowwise_reference(case):
    rows, stops, projections, s_levels, t = case
    assert (check_nested(rows, stops, projections, s_levels, t)
            == _ref_nested(rows, stops, projections, s_levels, t))


def test_nested_counterexample_at_sparse_codes():
    rows, stops, projections = _sparse_nest()
    rep = check_nested(rows, stops, projections, [2, 4], 2)
    assert (rep.check, rep.counterexample) == (
        "nested-oa[layer 2 via rho_2]",
        {"columns": [0, 1], "levels": [6, 0], "observed": 2, "expected": 1})


@st.composite
def sliced_cases(draw):
    top, projections, sizes = draw(chain_matrices())
    j = draw(st.integers(0, len(sizes) - 1))
    size = draw(st.integers(1, len(top)))
    t = draw(st.integers(1, min(3, len(top[0]))))
    return top, size, projections[j], sizes[j], t


@settings(max_examples=300, deadline=None)
@given(sliced_cases())
@example((_GOLDEN, 16, {c: c % 4 for c in range(8)}, 4, 2))  # every slice passes
@example((_sparse_nest()[0], 8, {c: c for c in (0, 1, 6, 7)}, 4, 1))  # slice 1: four 0s
@example((_T3_ROWS * 2, 8, {1: 1, 6: 6}, 2, 3))  # slice 1 fails at levels (1, 1, 6)
def test_sliced_matches_rowwise_reference(case):
    rows, size, projection, s_low, t = case
    assert (check_sliced(rows, size, projection, s_low, t)
            == _ref_sliced(rows, size, projection, s_low, t))


@st.composite
def claim_cases(draw):
    """A chain matrix with a list of claims of every kind the column view
    serves: nested prefixes, sliced blocks, and collapsed OA and DM claims
    on row ranges, at strengths 1..3."""
    top, projections, sizes = draw(chain_matrices())
    n, m = len(top), len(top[0])
    layers = tuple(range(1, len(sizes) + 1))
    claims = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["nested", "sliced", "oa", "dm"]))
        t = draw(st.integers(1, min(3, m)))
        start = draw(st.integers(0, n - 1))
        block = (start, draw(st.integers(start + 1, n)))
        j = (draw(st.sampled_from(layers)),)
        if kind == "nested":
            stops = sorted(draw(st.lists(st.integers(1, n), min_size=len(sizes) - 1,
                                         max_size=len(sizes) - 1))) + [n]
            claims.append(Claim("nested", rows=tuple(stops), layers=layers, strength=t))
        elif kind == "sliced":
            claims.append(Claim("sliced", rows=block, layers=j, strength=t,
                                size=draw(st.integers(1, block[1] - block[0]))))
        elif kind == "oa":
            claims.append(Claim("oa", rows=draw(st.sampled_from([(), block])),
                                layers=draw(st.sampled_from([(), j])), strength=t))
        else:
            claims.append(Claim("dm", rows=block, layers=j))
    element_sets = [sorted(set(p.values())) for p in projections]
    return top, claims, projections, sizes, element_sets


@settings(max_examples=300, deadline=None)
@given(claim_cases())
@example((_sparse_nest()[0], [Claim("oa", rows=(4, 16), layers=(1,)),
                              Claim("oa", layers=(2,))],
          _sparse_nest()[2], [2, 4], [[0, 1], [0, 1, 6, 7]]))  # the second fails at (6, 0)
def test_claims_match_rowwise_reference(case):
    rows, claims, projections, levels, element_sets = case
    subtract = lambda a, b: (a - b) % 16  # noqa: E731
    assert list(check_claims(rows, claims, projections, levels, element_sets, subtract)) == [
        _ref_claim(rows, c, projections, levels, element_sets, subtract) for c in claims]


def _ndm_case(*claims):
    """`claims` on the three-layer nested DM of README example 3 (codes over
    GF(4) x Z3 x Z2) with its chain's oracle inputs: one case of
    nested_dm_claim_cases."""
    chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
    rows = [[code_of(chain, t) for t in row] for row in KRON_NDM_GF4_Z3_Z2]
    inputs = chain.oracle_inputs()
    return (rows, list(claims), inputs["projections"], inputs["levels"],
            inputs["element_sets"], inputs["subtract"])


@st.composite
def nested_dm_claim_cases(draw):
    """The claims of claim_cases with nested-DM claims mixed in, each on a
    sorted subset of the layers (so rho_p of a report is the p-th claimed
    layer, not layer p), at random prefix stops."""
    top, claims, projections, sizes, element_sets = draw(claim_cases())
    n = len(top)
    for _ in range(draw(st.integers(1, 2))):
        layers = tuple(sorted(draw(st.sets(st.integers(1, len(sizes)), min_size=1))))
        stops = sorted(draw(st.lists(st.integers(1, n), min_size=len(layers),
                                     max_size=len(layers))))
        claims.insert(draw(st.integers(0, len(claims))),
                      Claim("nested-dm", rows=tuple(stops), layers=layers))
    return top, claims, projections, sizes, element_sets, lambda a, b: (a - b) % 16


@settings(max_examples=300, deadline=None)
@given(nested_dm_claim_cases())
@example(_ndm_case(Claim("nested-dm", rows=(4, 12, 48), layers=(1, 2, 3)),
                   Claim("nested-dm", rows=(8, 48), layers=(1, 3)),
                   Claim("dm", rows=(12, 24), layers=(2,))))  # all pass
# the 24-row third layer fails via rho_3
@example(_ndm_case(Claim("nested-dm", rows=(4, 12, 24), layers=(1, 2, 3))))
def test_nested_dm_claims_match_rowwise_reference(case):
    rows, claims, projections, levels, element_sets, subtract = case
    assert list(check_claims(rows, claims, projections, levels, element_sets, subtract)) == [
        _ref_claim(rows, c, projections, levels, element_sets, subtract) for c in claims]


@settings(max_examples=300, deadline=None)
@given(nested_cases())
def test_nested_dm_matches_rowwise_reference(case):
    rows, stops, projections, sizes, _ = case
    element_sets = [sorted(set(p.values())) for p in projections]
    subtract = lambda a, b: (a - b) % 16  # noqa: E731
    assert (check_nested_dm(rows, stops, projections, element_sets, subtract)
            == _ref_nested_dm(rows, stops, projections, element_sets, subtract))


@st.composite
def repeated_block_cases(draw):
    """Claim lists that meet the same block again and again.  A chain matrix
    is stacked two or three times, now and then with one cell of one copy
    changed.  The claims are sliced claims with one slice per copy, oa and
    dm claims on each copy's rows, oa and dm claims on the whole matrix and
    on each of its collapses (each listed twice, at two strengths), a nested
    claim, and one claim listed again under two other names, in a random
    order."""
    top, projections, sizes = draw(chain_matrices())
    size, copies = len(top), draw(st.integers(2, 3))
    rows = [list(r) for r in top * copies]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(sorted(projections[-1])))
    n, layers = len(rows), tuple(range(1, len(sizes) + 1))
    t = draw(st.integers(1, min(3, len(rows[0]))))
    claims = [Claim("sliced", layers=(j,), strength=t, size=size) for j in layers]
    claims += [Claim(kind, rows=(b, b + size), layers=(j,), strength=t)
               for kind in ("oa", "dm") for b in range(0, n, size) for j in layers]
    claims += [Claim(kind, layers=js, strength=strength)
               for strength in (t, draw(st.integers(1, min(3, len(rows[0])))))
               for kind in ("oa", "dm") for js in [(), *((j,) for j in layers)]]
    claims.append(Claim("nested", rows=tuple(max(1, size * s // sizes[-1]) for s in sizes[:-1])
                        + (n,), layers=layers, strength=t))
    again = draw(st.sampled_from(claims))
    claims += [again._replace(name="first"), again._replace(name="second")]
    element_sets = [sorted(set(p.values())) for p in projections]
    return rows, draw(st.permutations(claims)), projections, sizes, element_sets


@settings(max_examples=100, deadline=None)
@given(repeated_block_cases())
# the whole collapse mod 2 passes, and the whole matrix, on four levels, fails
@example((_sparse_nest()[0], [Claim("oa", layers=(1,)), Claim("oa")],
          [{c: c % 2 for c in (0, 1, 6, 7)}], [2], [[0, 1]]))
def test_repeated_blocks_match_rowwise_reference(case):
    """A block equal to one already proven takes that block's passing report
    under its own name; a failing block is counted again wherever it
    recurs, so it keeps its own name and counterexample."""
    rows, claims, projections, levels, element_sets = case
    subtract = lambda a, b: (a - b) % 16  # noqa: E731
    assert list(check_claims(rows, claims, projections, levels, element_sets, subtract)) == [
        _ref_claim(rows, c, projections, levels, element_sets, subtract) for c in claims]


def test_failing_block_keeps_its_name_and_counterexample():
    """The 64-row nested OA stacked twice, its second copy with one cell
    changed: the first copy's slices pass, and the changed slice fails with
    its own name and the counterexample of its own count."""
    rows = [list(r) for r in _GOLDEN * 2]
    rows[64][0] ^= 1  # another level mod 4
    rho2 = {c: c % 4 for c in range(8)}
    claims = [Claim("sliced", name=name, layers=(2,), size=64) for name in ("a", "b")]
    claims += [Claim("oa", rows=(b, b + 64), layers=(2,)) for b in (0, 64, 0)]
    reports = list(check_claims(rows, claims, [rho2, rho2], [4, 4]))
    assert reports == [_ref_claim(rows, c, [rho2, rho2], [4, 4], [], None) for c in claims]
    assert [(r.check, r.passed) for r in reports] == [
        ("a[slice 2]", False), ("b[slice 2]", False), ("oa-strength", True),
        ("oa-strength", False), ("oa-strength", True)]
    assert reports[0].counterexample == reports[1].counterexample == reports[3].counterexample


def test_each_distinct_block_is_counted_once(monkeypatch):
    """The rh-noa self-check (a nested claim and one sliced claim per
    collapse) hands the strength oracle each distinct block once: a block
    equal to one already proven is not counted again."""
    seen = []
    oracle = nestfill.verify.check_oa_strength

    def record(rows, s, t, name):
        seen.append((s, t, tuple(map(tuple, rows.cols))))
        return oracle(rows, s, t, name)

    monkeypatch.setattr(nestfill.verify, "check_oa_strength", record)
    nestfill.arrays.construct_noa_rh(chain_field_tower(2, [1, 2, 3]), 2)
    assert len(seen) == len(set(seen)) == 6


def test_each_collapse_is_made_once_per_claim_list(monkeypatch):
    """The rh-noa self-check (one nested claim and three sliced claims over
    a three-layer chain) collapses its top once per layer it uses."""
    calls = []
    project = nestfill.verify._ColumnView.project
    monkeypatch.setattr(nestfill.verify._ColumnView, "project",
                        lambda view, table: calls.append(table) or project(view, table))
    nestfill.arrays.construct_noa_rh(chain_field_tower(2, [1, 2, 3]), 2)
    assert len(calls) == 3


@pytest.mark.parametrize("claim", [
    Claim("oa", rows=(0, 1000)),
    Claim("strat", rows=(0, 64), strength=2),
    Claim("sliced", rows=(0, 64), layers=(1,), size=4),
    Claim("nested", rows=(4, 1000), layers=(1, 2)),
    Claim("oa", rows=(-1, 4)),
    Claim("dm", rows=(2, 2), layers=(1,)),
    Claim("nested", rows=(0, 4), layers=(1, 2)),
], ids=["oa-past-rows", "strat-past-rows", "sliced-past-rows", "nested-stop-past-rows",
        "oa-negative-start", "dm-empty-range", "nested-stop-0"])
def test_claims_refuse_rows_outside_the_matrix(claim):
    """A row range or prefix stop outside the matrix is refused, not cut
    short by slicing."""
    oa = [[0, 0], [0, 1], [1, 0], [1, 1]]
    with pytest.raises(SpecError):
        list(check_claims(oa, [claim], [{0: 0, 1: 1}] * 2, [2, 2], [[0, 1]] * 2))


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


def test_arrays_checks_only_through_claims():
    """Every constructor self-check is a Claim: arrays.py imports nothing from
    verify but the claim model, so no oracle is called beside check_claims."""
    imported = set()
    for node in ast.walk(ast.parse(Path(nestfill.arrays.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("verify", "nestfill.verify"):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "nestfill"):
            imported.update("module verify" for a in node.names if a.name == "verify")
        elif isinstance(node, ast.Import):
            imported.update("module verify" for a in node.names if a.name == "nestfill.verify")
    assert imported <= {"Claim", "VerificationReport", "check_claims"}


def test_sliced_run_size_not_divisible(table1_codes):
    rho1 = {c: c % 2 for c in range(8)}
    rep = check_sliced(table1_codes, 24, rho1, 2, 2)
    assert (rep.passed, rep.detail, rep.counterexample) == (
        False, "run size 64 not divisible by slice size 24", None)


def test_nested_reports_incompatible_projections(table1_codes):
    """A prefix family whose coarse projection (the x^2 bit) splits a class
    of the finer one (c mod 4) fails on compatibility, before any layer
    oracle runs."""
    stops = [4, 16, 64]
    identity = {c: c for c in range(8)}
    rho2 = {c: c % 4 for c in range(8)}
    assert check_nested(table1_codes, stops, [{c: c % 2 for c in range(8)}, rho2, identity],
                        [2, 4, 8], 2)
    rep = check_nested(table1_codes, stops, [{c: c >> 2 for c in range(8)}, rho2, identity],
                       [2, 4, 8], 2)
    assert (rep.check, rep.passed, rep.detail, rep.counterexample) == (
        "nested-oa", False, "refinement violated", {"layers": [1, 2], "pair": [0, 4]})


_OA4 = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
_IDENTITY = {0: 0, 1: 1}


def test_oa_strength_refuses_an_empty_matrix():
    with pytest.raises(SpecError, match="^empty matrix$"):
        check_oa_strength([], 2, 1)


@pytest.mark.parametrize("call", [
    lambda: check_oa_strength(_OA4, 0, 1),
    lambda: check_oa_strength(_OA4, 2, 0),
    lambda: check_difference_matrix(_OA4, []),
    lambda: check_stratification(_OA4, 2, 0),
    lambda: check_stratification(_OA4, 2, -1),
    lambda: check_stratification(_OA4, 0, 1),
    lambda: check_stratification(_OA4, 2, 1, size=-2),
    lambda: check_sliced(_OA4, -2, _IDENTITY, 2, 2),
    lambda: check_sliced(_OA4, 0, _IDENTITY, 2, 2),
    lambda: check_sliced(_OA4, 4, _IDENTITY, 0, 2),
    lambda: check_nested(_OA4, [4], [_IDENTITY], [2], 0),
    lambda: check_nested(_OA4, [4], [_IDENTITY], [0], 2),
    lambda: check_nested_dm(_OA4, [4], [_IDENTITY], [[]]),
    lambda: list(check_claims(_OA4, [Claim("strat", strength=2, size=-1)], levels=[2])),
    lambda: list(check_claims(_OA4, [Claim("oa")])),
    lambda: list(check_claims(_OA4, [Claim("dm")], levels=[2])),
    lambda: list(check_claims(_OA4, [Claim("nested", rows=(2, 4), layers=(1, 2))], levels=[2, 2])),
    lambda: list(check_claims([[0, 1], [1, 0]], [Claim("nested")], levels=[2])),
    lambda: list(check_claims([[0, 1], [1, 0]], [Claim("nested-dm")], levels=[2],
                              element_sets=[[0, 1]])),
    lambda: list(check_claims(_OA4, [Claim("latin-square")], levels=[2])),
], ids=["oa-s0", "oa-t0", "dm-no-elements", "strat-g0", "strat-g-1", "strat-scale0",
        "strat-size-2", "sliced-size-2", "sliced-size0", "sliced-s0", "nested-t0", "nested-s0",
        "nested-dm-no-elements", "claims-strat-size-1", "claims-no-levels",
        "claims-dm-no-element-sets", "claims-nested-no-projections", "claims-nested-no-layers",
        "claims-nested-dm-no-layers", "claims-unknown-kind"])
def test_oracles_refuse_nonsense_parameters(call):
    """A level count, strength, grid, scale or slice size below 1, a negative
    block size, or an empty element set is a claim no matrix can meet or
    fail: each public oracle refuses it instead of passing or crashing.  So
    does a claim list handed too few level counts, projections or element
    sets for the layers its claims read, and a nested claim that names no
    layers, which would pass without counting anything."""
    with pytest.raises(SpecError):
        call()
