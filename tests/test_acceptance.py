"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with -s to see the lines for passing tests)."""

import random
from contextlib import contextmanager
from itertools import permutations as iperms

import pytest

from golden import (
    KRON_NDM_GF4_Z3_Z2,
    KRON_SOA_INPUT_A1,
    KRON_SOA_INPUT_A2,
    RELABELED_NESTED_M3,
    RELABELED_SLICED_M,
    RH_NOA_P2_U123_K2,
    code_of,
)
from nestfill.arrays import (
    DifferenceMatrix,
    OrthogonalArray,
    construct_from_ndm,
    construct_ndm_kron,
    construct_noa_bush,
    construct_noa_rh,
    construct_soa_kron,
    rao_hamming_oa,
)
from nestfill.cli import main
from nestfill.galois import Field, poly_residue
from nestfill.groups import Zn, chain_field_tower, chain_omega_ring
from nestfill.io import load
from nestfill.kronecker import GroupMatrix, kron_sum
from nestfill.spacefill import (
    build_nsfd,
    build_ssfd_multi,
    is_nested_permutation,
    is_sliced_permutation,
)
from nestfill.verify import (
    check_difference_matrix,
    check_latin_hypercube,
    check_nested,
    check_nested_dm,
    check_oa_strength,
    check_sliced,
    check_stratification,
)

NESTED_PERMS = [(4, 1, 2, 7, 6, 5, 3, 0), (5, 2, 0, 7, 3, 4, 1, 6), (2, 6, 1, 4, 3, 5, 7, 0)]
SLICED_PERMS = [(0, 1, 2, 3, 7, 6, 5, 4), (7, 6, 5, 4, 1, 0, 2, 3), (0, 1, 3, 2, 4, 5, 7, 6)]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {desc}")


@pytest.fixture(scope="module")
def tower():
    return chain_field_tower(2, [1, 2, 3])


@pytest.fixture(scope="module")
def rh_family(tower):
    return construct_noa_rh(tower, 2)


def test_criterion_01_table_exact_reproduction(tmp_path):
    with criterion(1, "rh-noa (p=2, u=1,2,3, k=2) reproduces the 64-row reference table exactly"):
        out = tmp_path / "a3.json"
        assert main(["construct", "--method", "rh-noa", "--p", "2", "--u",
                     "1,2,3", "--k", "2", "--out", str(out)]) == 0
        design = load(out)
        texts = [tuple(design.symbols[str(c)] for c in row) for row in design.rows]
        assert texts == RH_NOA_P2_U123_K2


def test_criterion_02_first_family_oracles(rh_family, tower):
    with criterion(2, "every collapse of every layer and every sliced family passes its oracle"):
        for i in range(1, 4):
            a_i = rh_family.top.code_rows[: rh_family.nested.rows[i - 1]]
            for j in range(1, i + 1):
                rho = tower.projection_table(j)
                rows = [[rho[e] for e in r] for r in a_i]
                rep = check_oa_strength(rows, 2**j, 2)
                assert rep.passed, (i, j, rep.message())
        for i in (1, 2):
            for j in range(1, i + 1):
                rep = check_sliced(
                    rh_family.top.code_rows, 4**i, tower.projection_table(j), 2**j, 2
                )
                assert rep.passed, (i, j, rep.message())


def test_criterion_03_column_kron_soa():
    with criterion(3, "B = A_2 (+c) A_1 is an OA(144,3,12,2) with sliced and prefix-nested structure"):
        chain = chain_omega_ring([Zn(6), Zn(2)])
        a1 = OrthogonalArray(GroupMatrix(KRON_SOA_INPUT_A1, chain.group), 6, 2)
        a2 = OrthogonalArray(
            GroupMatrix([[code_of(chain, t) for t in r] for r in KRON_SOA_INPUT_A2],
                        chain.group), 2, 2
        )
        out = construct_soa_kron(a2, a1, chain)
        b = out.top.code_rows
        assert check_oa_strength(b, 12, 2).passed
        rho1 = chain.projection_table(1)
        rho2 = chain.projection_table(2)
        for i in range(4):
            block = [[rho1[e] for e in r] for r in b[i * 36 : (i + 1) * 36]]
            assert check_oa_strength(block, 6, 2).passed
        for l in (1, 2, 3):
            rep = check_nested(b, [36 * l, 144], [rho1, rho2], [6, 12], 2)
            assert rep.passed, rep.message()


def test_criterion_04_kron_ndm_table_and_oracles():
    with criterion(4, "kron-ndm reproduces the 48-row reference matrix; all listed collapses are difference matrices"):
        chain = chain_omega_ring([Field(2, 2), Zn(3), Zn(2)])
        mk = lambda rows: DifferenceMatrix(
            GroupMatrix([[code_of(chain, t) for t in r] for r in rows], chain.group))
        d1 = mk([("0", "0", "0"), ("0", "1", "x"), ("0", "x", "x+1"), ("0", "x+1", "1")])
        d2 = mk([("0", "0", "0"), ("0", "w", "2w"), ("0", "2w", "w")])
        d3 = mk([("0", "0", "0"), ("0", "0", "w2"), ("0", "w2", "0"), ("0", "w2", "w2")])
        out = construct_ndm_kron([d1, d2, d3], chain)
        texts = [tuple(map(chain.text_code, r)) for r in out.top.code_rows]
        assert texts == KRON_NDM_GF4_Z3_Z2
        e1, e2, e3 = (out.top.code_rows[:stop] for stop in out.nested.rows)
        rho = {j: chain.projection_table(j) for j in (1, 2, 3)}
        proj = lambda rows, j: [tuple(rho[j][c] for c in r) for r in rows]
        els = {j: chain.layer_codes(j) for j in (1, 2, 3)}
        dm = lambda rows, j: check_difference_matrix(rows, els[j], chain.sub_codes)
        # stacked-copy identities
        assert proj(e3, 2) == list(e2) * 4
        assert proj(e3, 1) == list(e1) * 12
        assert proj(e2, 1) == list(e1) * 3
        # every listed collapse passes the difference-matrix oracle
        assert dm(proj(e3, 3), 3).passed
        assert dm(proj(e3, 2), 2).passed
        assert dm(proj(e3, 1), 1).passed
        for l in range(1, 13):
            block = out.top.code_rows[(l - 1) * len(e1) : l * len(e1)]
            assert proj(block, 1) == list(e1)
            assert dm(proj(block, 1), 1).passed
        for l in range(1, 5):
            block = out.top.code_rows[(l - 1) * len(e2) : l * len(e2)]
            assert proj(block, 2) == list(e2)
            assert dm(proj(block, 1), 1).passed
            assert dm(proj(block, 2), 2).passed


def test_criterion_05_relabel_determinism(rh_family):
    with criterion(5, "relabel-only lifts reproduce both reference relabeled designs exactly"):
        nested = build_nsfd(rh_family, NESTED_PERMS, stage="relabel-only")
        assert [tuple(r) for r in nested.design] == RELABELED_NESTED_M3
        sliced = build_ssfd_multi(rh_family, SLICED_PERMS, stage="relabel-only")
        assert [tuple(r) for r in sliced.design] == RELABELED_SLICED_M


def test_criterion_06_nested_lift_stratification(rh_family):
    with criterion(6, "the lifted nested design is a Latin hypercube whose prefixes stratify 2^i grids exactly"):
        out = build_nsfd(rh_family, NESTED_PERMS, seed=20240809)
        assert check_latin_hypercube(out.lifted).passed
        for i in (1, 2, 3):
            prefix = out.lifted[: 4**i]
            rep = check_stratification(prefix, scale=64, g=2**i)
            assert rep.passed, (i, rep.message())


def test_criterion_07_sliced_lift_stratification(rh_family):
    with criterion(7, "the lifted sliced design stratifies at every slicing granularity simultaneously"):
        out = build_ssfd_multi(rh_family, SLICED_PERMS, seed=20240809)
        s = out.lifted
        assert check_latin_hypercube(s).passed
        for l in range(16):
            assert check_stratification(s[l * 4 : (l + 1) * 4], scale=64, g=2).passed
        for l in range(4):
            assert check_stratification(s[l * 16 : (l + 1) * 16], scale=64, g=4).passed
        assert check_stratification(s, scale=64, g=8).passed


def test_criterion_08_bush_strength_three():
    with criterion(8, "bush-noa (p=3, u=1,2, k=3) yields strength-3 arrays at 4 columns with collapsing"):
        chain = chain_field_tower(3, [1, 2])
        fam = construct_noa_bush(chain, 3)
        a1, a2 = (fam.top.code_rows[:stop] for stop in fam.nested.rows)
        assert len(a1[0]) == 4
        assert check_oa_strength(a1, 3, 3).passed
        assert check_oa_strength(a2, 9, 3).passed
        rho1 = chain.projection_table(1)
        collapsed = [[rho1[c] for c in r] for r in a2]
        assert check_oa_strength(collapsed, 3, 3).passed


def test_criterion_09_ndm_product_bundle():
    with criterion(9, "difference-matrix product: D(4,2,4), A(+)D = OA(64,10,4,2), nested/sliced wrappers pass"):
        chain = chain_field_tower(2, [1, 2])
        a = rao_hamming_oa(chain.field, chain.layer_codes(2), 2)
        assert (a.n, a.m, a.levels) == (16, 5, 4)
        dm, out = construct_from_ndm(chain, a)
        subtract = chain.group.sub_codes
        assert check_difference_matrix(dm.top.code_rows, chain.layer_codes(2), subtract).passed
        a_plus_d = kron_sum(a.matrix, dm.top)
        assert a_plus_d.shape == (64, 10)
        assert check_oa_strength(a_plus_d.code_rows, 4, 2).passed
        projections = [chain.projection_table(1), chain.projection_table(2)]
        el_sets = [chain.layer_codes(1), chain.layer_codes(2)]
        combined = out.top.code_rows
        assert check_nested(combined, [32, 64], projections, [2, 4], 2).passed
        assert check_sliced(combined, 32, projections[0], 2, 2).passed
        assert check_nested_dm(dm.top.code_rows, [2, 4], projections, el_sets, subtract).passed


def test_criterion_10_selected_columns_strength_three(tower):
    with criterion(10, "selected columns (e1,e2,e3,(1,1,1)) over GF(2), k=3, give a strength-3 array"):
        cols = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        fam = construct_noa_rh(tower, 3, cols)
        rep = check_oa_strength(fam.top.code_rows, 8, 3)
        assert rep.passed, rep.message()


def test_criterion_11_modulus_projection_counterexample():
    with criterion(11, "the residue-based collapse family violates refinement at the pair (x^2, x+1)"):
        f = Field(2, 3)

        def phi(g, code):
            return f.encode(poly_residue(f.coeffs(code), g, 2) + (0, 0, 0))

        x2, xp1 = code_of(f, "x^2"), code_of(f, "x+1")
        assert phi((1, 1, 1), x2) == phi((1, 1, 1), xp1) == code_of(f, "x+1")
        assert phi((1, 1), x2) == 1
        assert phi((1, 1), xp1) == 0
        assert phi((1, 1), x2) != phi((1, 1), xp1)


def _random_chain(rng):
    if rng.random() < 0.5:
        p = rng.choice([2, 3])
        max_u = {2: 6, 3: 3}[p]
        n_layers = rng.randint(1, 3)
        us = sorted(rng.sample(range(1, max_u + 1), n_layers))
        return chain_field_tower(p, us)
    bases, total = [], 1
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 4)
        if total * n > 64:
            break
        bases.append(Zn(n))
        total *= n
    return chain_omega_ring(bases or [Zn(2)])


def test_criterion_12_property_suite():
    with criterion(12, "1000 randomized projection-law trials pass; validators agree with definitions on all 8! permutations"):
        rng = random.Random(12)
        for _ in range(1000):
            chain = _random_chain(rng)
            i = rng.randint(1, chain.layers)
            j = rng.randint(1, chain.layers)
            add, rho_i, rho_j = chain.group.add, chain.proj[i - 1], chain.proj[j - 1]
            g1 = rng.randrange(chain.top_size)
            g2 = rng.randrange(chain.top_size)
            assert rho_i[add[g1][g2]] == add[rho_i[g1]][rho_i[g2]]
            assert rho_i[rho_j[g1]] == chain.proj[min(i, j) - 1][g1]
            if j <= i and rho_i[g1] == rho_i[g2]:
                assert rho_j[g1] == rho_j[g2]
            # counting law: collapsing the inner-first enumeration repeats
            # every layer element in consecutive runs
            proj = [rho_i[c] for c in chain.ordered_codes("inner-first")]
            rep = chain.top_size // chain.sizes[i - 1]
            blocks = [proj[k * rep : (k + 1) * rep] for k in range(chain.sizes[i - 1])]
            assert all(len(set(b)) == 1 for b in blocks)
            assert len({b[0] for b in blocks}) == chain.sizes[i - 1]

        sizes = (2, 4, 8)
        top = 8

        def nested_def(p):
            return all(
                sorted(p[t] * s // top for t in range(s)) == list(range(s))
                for s in sizes
            )

        def sliced_def(p):
            for s in sizes[:-1]:
                q = top // s
                for g in range(s):
                    block = set(p[g * q : (g + 1) * q])
                    if not any(block == set(range(d * q, (d + 1) * q)) for d in range(s)):
                        return False
            return True

        n_nested = n_sliced = 0
        for p in iperms(range(8)):
            vn, vs = is_nested_permutation(p, sizes), is_sliced_permutation(p, sizes)
            assert vn == nested_def(p)
            assert vs == sliced_def(p)
            n_nested += vn
            n_sliced += vs
        assert 0 < n_nested < 40320
        assert 0 < n_sliced < 40320
