"""Exact arithmetic in GF(p^u).

Elements are polynomials over Z_p reduced modulo a fixed monic irreducible
polynomial of degree u.  An element is identified by its integer code
``sum_j c_j * p**j`` where ``c_j`` is the coefficient of x^j; codes run from
0 to p**u - 1 and ascending code order is the canonical element order used
everywhere in this package (enumeration, relabeling, file formats).

Polynomials are handled as coefficient tuples, lowest degree first.  Fields
here are tiny (a few dozen elements at most in practice), so irreducibility
is checked by exhaustive trial division.  Arithmetic on codes reads q x q
addition and multiplication tables, built on first use: addition digit by
digit, multiplication from the powers of a primitive element; a Field
above the table limit is refused when built, so its tables fit.  Text is
per code too, and one way: `Field.text_code` prints a code, and no reader
turns text back into one, as every input to the package is a code.

The package computes on codes alone and keeps no element objects for
users: `Element(group, code)`, a range-checked code that adds by its
group's table, is not API and stays only for the benchmark harness's
element views in :mod:`nestfill.groups`.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Any, Optional, Sequence

from .errors import Described, FrozenRecord, SpecError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Product of two coefficient tuples over Z_p (no modular reduction)."""
    a, b = _poly_trim(a), _poly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def poly_residue(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Residue of polynomial a modulo polynomial m, coefficients in Z_p.

    m must be nonzero; it need not be monic (its leading coefficient is
    inverted mod p).
    """
    m = _poly_trim(m)
    if not m:
        raise SpecError("division by the zero polynomial")
    lead_inv = pow(m[-1], p - 2, p) if m[-1] != 1 else 1
    r = [c % p for c in a]
    while len(_poly_trim(r)) >= len(m):
        r = list(_poly_trim(r))
        shift = len(r) - len(m)
        factor = (r[-1] * lead_inv) % p
        for i, mc in enumerate(m):
            r[shift + i] = (r[shift + i] - factor * mc) % p
    return _poly_trim(r)


def _poly_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    m = _poly_trim(m)
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for tail in range(p**d):
            div = _digits(tail, p, d) + (1,)
            if not poly_residue(m, div, p):
                return False
    return True


def _digits(code: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(code % p)
        code //= p
    return tuple(out)


def _default_modulus(p: int, u: int) -> tuple[int, ...]:
    # Smallest monic irreducible of degree u by ascending tail code, with a
    # nonzero constant term (at u=1 this selects x+1 rather than x).
    for tail in range(p**u):
        if tail % p == 0:
            continue
        cand = _digits(tail, p, u) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise SpecError(f"no irreducible polynomial of degree {u} over Z_{p}")


MAX_TABLE_ORDER = 1024  # a q x q table of Python ints takes about 40*q^2 bytes


def check_table_order(q: int) -> None:
    """Refuse table arithmetic for a group whose tables would not fit."""
    if q > MAX_TABLE_ORDER:
        raise SpecError(
            f"group of order {q} is too large: arithmetic tables are limited to "
            f"order {MAX_TABLE_ORDER}"
        )


def direct_sum_table(tables: Sequence[Sequence[Sequence[int]]]) -> list[list[int]]:
    """Addition table of a direct product of groups, given the factors'
    addition tables, lowest mixed-radix digit first (code = sum of the
    factor codes times the product of the earlier factor sizes)."""
    out, weight = [[0]], 1
    for table in tables:
        # shifted[lo][s]: row lo of the table so far, plus s times `weight`
        shifted = [[[x + weight * s for x in prev] for s in range(len(table))] for prev in out]
        out = [list(itertools.chain.from_iterable(map(by_digit.__getitem__, row)))
               for row in table for by_digit in shifted]
        weight *= len(table)
    return out


class Field(Described):
    """GF(p**u) with elements encoded as integers 0 .. p**u - 1.

    The modulus may be supplied as u+1 coefficients (lowest degree first,
    monic, irreducible); by default the smallest monic irreducible with a
    nonzero constant term is selected, which for p=2 and u=1,2,3 gives
    x+1, x^2+x+1 and x^3+x+1.
    """

    def __init__(self, p: int, u: int, modulus: Optional[Sequence[int]] = None):
        # refused before the primality test and the modulus search, which would
        # run for ages; u capped at the limit's bit length keeps p**u small and
        # the comparison exact
        if p > 1 and u > 0 and p ** min(u, MAX_TABLE_ORDER.bit_length()) > MAX_TABLE_ORDER:
            raise SpecError(f"GF({p}^{u}) is too large: arithmetic tables are limited to "
                            f"order {MAX_TABLE_ORDER}")
        if not is_prime(p):
            raise SpecError(f"p={p} is not prime")
        if u < 1:
            raise SpecError(f"extension degree must be >= 1, got {u}")
        self.p = p
        self.u = u
        self.size = p**u
        if modulus is None:
            self.modulus = _default_modulus(p, u)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != u + 1 or mod[-1] != 1:
                raise SpecError(f"modulus must be monic of degree {u}")
            if not _poly_is_irreducible(mod, p):
                raise SpecError("modulus is reducible over Z_%d" % p)
            self.modulus = mod

    # -- code-level arithmetic -------------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        return _digits(code, self.p, self.u)

    def encode(self, coeffs: Sequence[int]) -> int:
        if len(coeffs) > self.u and any(c % self.p for c in coeffs[self.u :]):
            raise SpecError("coefficient vector exceeds field degree")
        return sum((c % self.p) * self.p**j for j, c in enumerate(coeffs[: self.u]))

    @cached_property
    def add(self) -> list[list[int]]:
        """add[a][b] is the code of a + b: digit-wise addition mod p."""
        zp = [[(a + b) % self.p for b in range(self.p)] for a in range(self.p)]
        return direct_sum_table([zp] * self.u)

    @cached_property
    def neg(self) -> list[int]:
        return [row.index(0) for row in self.add]

    @cached_property
    def mul(self) -> list[list[int]]:
        """mul[a][b] is the code of a * b, read off the powers of the
        smallest-code primitive element."""
        q = self.size
        for g in range(1, q):
            exp = [1]
            while len(exp) < q - 1:
                prod = poly_mul(self.coeffs(exp[-1]), self.coeffs(g), self.p)
                c = self.encode(poly_residue(prod, self.modulus, self.p))
                if c == 1:
                    break
                exp.append(c)
            if len(exp) == q - 1:
                break
        log = [0] * q
        for i, c in enumerate(exp):
            log[c] = i
        table = [[0] * q]
        for a in range(1, q):
            shifted = exp[log[a] :] + exp[: log[a]]
            table.append([0] + [shifted[log[b]] for b in range(1, q)])
        return table

    def add_codes(self, a: int, b: int) -> int:
        return self.add[a][b]

    def sub_codes(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def mul_codes(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def pow_code(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul[result][base]
            base = self.mul[base][base]
            e >>= 1
        return result

    # -- text form ---------------------------------------------------------

    def text_code(self, code: int) -> str:
        terms = []
        cs = self.coeffs(code)
        for j in range(self.u - 1, -1, -1):
            c = cs[j]
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                var = "x" if j == 1 else f"x^{j}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    # -- identity ----------------------------------------------------------

    def descriptor(self) -> dict:
        return {"gf": {"p": self.p, "u": self.u, "modulus": list(self.modulus)}}

    def __repr__(self) -> str:
        return f"Field(p={self.p}, u={self.u})"


class Element(FrozenRecord):
    """One element of a group (a Field, or an omega ring): its code, checked
    to lie in 0 .. group.size - 1; immutable, hashed on its code, and equal
    only to an Element of the same group and code.  Not API: a view kept
    only for the element methods the benchmark harness wraps or calls."""

    __slots__ = _fields = ("group", "code")

    def __init__(self, group: Any, code: int):
        if not 0 <= code < group.size:
            raise SpecError(f"code {code} out of range 0..{group.size - 1} for {group!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "code", code)

    def __hash__(self) -> int:
        # the code alone: hashing the group would build its descriptor each call
        return hash(self.code)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element) or other.group != self.group:
            raise SpecError("operands belong to different groups")
        return Element(self.group, self.group.add[self.code][other.code])
