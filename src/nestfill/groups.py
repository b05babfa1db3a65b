"""Group towers F_1 ⊂ ... ⊂ F_I with transversal decompositions and the
layer projections they induce.

Three chain kinds are provided:

* a field tower, where layer i holds the polynomials of degree < u_i inside
  GF(p^{u_I}) and the transversal T_i is the additive span of the monomials
  x^{u_{i-1}}, ..., x^{u_i - 1};
* a subfield tower (degrees dividing upward), where layer i is the genuine
  subfield GF(p^{u_i}) and T_i a canonical additive complement — the right
  structure when generator coefficients must multiply layers into themselves;
* an omega ring, where layer i holds formal sums
  psi_0 + psi_1*w + ... + psi_{i-1}*w^{i-1} with each psi_b drawn from a base
  group (Z_n or a Galois field), added component-wise, and T_i is the set of
  pure w^{i-1} terms.

In every kind each element of the top layer splits uniquely into one part per
transversal, and projecting onto layer i keeps the first i parts.  For field
towers and omega rings the canonical integer code (base-p digits, resp. mixed
radix over the base-group sizes) makes layer i exactly the codes below its
size; subfield layers are scattered code sets, still listed ascending.

Inside the package everything is an integer code: each chain's `group` (the
Galois field of a tower, or the omega ring itself) carries `add`/`neg`
tables and prints a code (`text_code`), and each chain carries `proj`
tables built once from the direct sum of its transversals.  Text only
leaves the package: every group prints a code, and none reads text back.
A `Zn` or omega ring above the table limit is refused when built, as a
`Field` is.  `galois.Element(chain.group, code)` makes an element at the
API edge; three element views stay only for the benchmark harness:
`layer_elements`, `enumerate_ordered`, `projection_map`.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from typing import Optional, Sequence, Union

from .errors import Described, SpecError, is_int
from .galois import Element, Field, check_table_order, direct_sum_table


class Zn(Described):
    """Additive group of integers modulo n, used as an omega-ring base."""

    def __init__(self, n: int):
        if n < 1:
            raise SpecError(f"Z_n needs n >= 1, got {n}")
        check_table_order(n)
        self.n = n
        self.size = n

    @cached_property
    def add(self) -> list[list[int]]:
        return [[(a + b) % self.n for b in range(self.n)] for a in range(self.n)]

    def text_code(self, a: int) -> str:
        return str(a)

    def descriptor(self) -> dict:
        return {"zn": self.n}

    def __repr__(self) -> str:
        return f"Zn({self.n})"


BaseGroup = Union[Zn, Field]


def _int_list(v) -> bool:
    return isinstance(v, list) and all(map(is_int, v))


def _field_args(d: dict, degrees: str, check) -> tuple:
    """(p, d[degrees], modulus) of a field or tower descriptor whose
    `degrees` entry passes `check`."""
    modulus = d.get("modulus")
    if not (is_int(d.get("p")) and check(d.get(degrees))
            and (modulus is None or _int_list(modulus))):
        raise SpecError(
            f"descriptor {d!r} needs an integer 'p', integer {degrees!r} and "
            "optionally an integer list 'modulus'"
        )
    return d["p"], d[degrees], modulus


def base_from_descriptor(d: dict) -> BaseGroup:
    if isinstance(d, dict) and "zn" in d:
        if not is_int(d["zn"]):
            raise SpecError(f"Z_n descriptor needs an integer n, got {d!r}")
        return Zn(d["zn"])
    if isinstance(d, dict) and isinstance(d.get("gf"), dict):
        return Field(*_field_args(d["gf"], "u", is_int))
    raise SpecError(f"unknown base group descriptor {d!r}")


# the benchmark's traced pass counts element additions as groups.OmegaElement.__add__
OmegaElement = Element


class GroupChain(Described):
    """Shared behavior of the chain kinds.

    sizes[i-1] is |F_i| and the top layer has index I = layers.  `group` is
    the additive group every layer lives in (a Field, or the omega ring
    itself): codes 0 .. top_size-1 with `add`/`neg` tables and
    `text_code`.  Subclasses provide `group` and `descriptor`;
    transversals default to the digit-structured layout where T_i holds the
    multiples of |F_{i-1}| below |F_i|.
    """

    kind: str
    sizes: tuple[int, ...]

    @property
    def layers(self) -> int:
        return len(self.sizes)

    @property
    def top_size(self) -> int:
        return self.sizes[-1]

    def _check_layer(self, i: int) -> None:
        if not 1 <= i <= self.layers:
            raise SpecError(f"layer {i} out of range 1..{self.layers}")

    def transversal_codes(self, i: int) -> list[int]:
        self._check_layer(i)
        return list(range(0, self.sizes[i - 1], self.sizes[i - 2] if i > 1 else 1))

    def layer_codes(self, i: int) -> list[int]:
        """Layer i in ascending code order (zero first)."""
        self._check_layer(i)
        return list(range(self.sizes[i - 1]))

    def layer_elements(self, i: int) -> list[Element]:
        # an element view kept only because the benchmark's traced pass wraps it
        return [Element(self.group, c) for c in self.layer_codes(i)]

    @cached_property
    def proj(self) -> list[list[int]]:
        """proj[i-1][c] is the code of the layer-i projection of code c.

        Built once from the direct-sum structure: summing one element per
        transversal must reach every top element exactly once, and the
        running sum after i transversals is the layer-i projection.
        """
        add = self.group.add
        sums = [(0,)]
        for i in range(1, self.layers + 1):
            sums = [s + (add[s[-1]][t],) for s in sums for t in self.transversal_codes(i)]
        table = [[-1] * self.top_size for _ in self.sizes]
        for s in sums:
            if table[-1][s[-1]] != -1:
                raise SpecError("transversals do not form a direct sum")
            for row, v in zip(table, s[1:]):
                row[s[-1]] = v
        if len(sums) != self.top_size:
            raise SpecError("transversal sums do not cover the top layer")
        return table

    def ordered_codes(self, order: str) -> list[int]:
        """Kronecker-sum enumeration of the top layer.

        "inner-first" nests T_1 ... T_I with the last transversal varying
        fastest; "outer-first" reverses the nesting so T_1 varies fastest
        (for field towers and omega rings that is ascending code order).
        """
        blocks = [self.transversal_codes(i) for i in range(1, self.layers + 1)]
        if order == "outer-first":
            blocks.reverse()
        elif order != "inner-first":
            raise SpecError(f"unknown enumeration order {order!r}")
        add = self.group.add
        out = [0]
        for block in blocks:
            out = [add[a][b] for a in out for b in block]
        return out

    def enumerate_ordered(self, order: str) -> list[Element]:
        # an element view kept only because the benchmark's traced pass wraps it
        return [Element(self.group, c) for c in self.ordered_codes(order)]

    def projection_table(self, i: int) -> list[int]:
        """Code-level table: entry c is the code of the layer-i projection."""
        self._check_layer(i)
        return list(self.proj[i - 1])

    def projection_map(self, i: int) -> dict[Element, Element]:
        # an element view kept only because the benchmark's setup script calls it
        els = [Element(self.group, c) for c in range(self.top_size)]
        return {els[c]: els[v] for c, v in enumerate(self.projection_table(i))}

    def oracle_inputs(self) -> dict:
        """Keyword arguments of `verify.check_claims` for code matrices over
        this chain: code-keyed projection maps, level counts, layer code
        lists and code subtraction."""
        layers = range(1, self.layers + 1)
        return {
            "projections": [dict(enumerate(self.projection_table(j))) for j in layers],
            "levels": self.sizes,
            "element_sets": [self.layer_codes(j) for j in layers],
            "subtract": self.group.sub_codes,
        }


class _FieldChain(GroupChain):
    """A tower of additive subgroups of one Galois field GF(p^{u_I})."""

    def __init__(self, p: int, u_chain: Sequence[int], modulus: Optional[Sequence[int]] = None):
        u_chain = tuple(int(u) for u in u_chain)
        if not u_chain or any(b <= a for a, b in zip(u_chain, u_chain[1:])):
            raise SpecError(f"u_chain must be strictly increasing, got {list(u_chain)}")
        if u_chain[0] < 1:
            raise SpecError("u_chain entries must be positive")
        self.field = Field(p, u_chain[-1], modulus)
        self.u_chain = u_chain
        self.sizes = tuple(p**u for u in u_chain)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def group(self) -> Field:
        return self.field

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "u_chain": list(self.u_chain),
            "modulus": list(self.field.modulus),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, u_chain={list(self.u_chain)})"


class FieldTowerChain(_FieldChain):
    """Additive tower of degree-filtered subgroups inside one Galois field:
    layer i holds the codes below p^{u_i}, T_i the monomial span of
    x^{u_{i-1}}, ..., x^{u_i - 1}."""

    kind = "field-tower"


class SubfieldTowerChain(_FieldChain):
    """Tower of genuine subfields GF(p^{u_1}) ⊂ ... ⊂ GF(p^{u_I}).

    Needs u_i | u_{i+1} so every layer exists as a subfield (the fixed points
    of the matching Frobenius power).  Layers are multiplicatively closed, so
    generator-matrix products with layer-1 coefficients stay inside each
    layer — which the degree-filtered tower does not guarantee.  Transversals
    are canonical greedy complements: extend the previous layer's basis with
    the smallest-code elements that are independent of it.
    """

    kind = "subfield-tower"

    def __init__(self, p: int, u_chain: Sequence[int], modulus: Optional[Sequence[int]] = None):
        super().__init__(p, u_chain, modulus)
        for a, b in zip(self.u_chain, self.u_chain[1:]):
            if b % a:
                raise SpecError(
                    f"subfield tower needs each degree to divide the next, got {list(self.u_chain)}"
                )
        self._layer_codes = [self._subfield_codes(u) for u in self.u_chain]
        self._transversals = self._complement_transversals()

    def _subfield_codes(self, u: int) -> list[int]:
        q = self.p**u
        codes = [c for c in range(self.field.size) if self.field.pow_code(c, q) == c]
        if len(codes) != q:
            raise AssertionError(f"subfield of order {q} has {len(codes)} elements")
        return codes

    def _complement_transversals(self) -> list[list[int]]:
        add = self.field.add

        def extend(span: set, v: int) -> set:
            multiples = [0]
            for _ in range(self.p - 1):
                multiples.append(add[multiples[-1]][v])
            return {add[a][m] for a in span for m in multiples}

        out = []
        prev = {0}
        for layer in self._layer_codes:
            span, t_span = prev, {0}
            for cand in layer:
                if len(span) == len(layer):
                    break
                if cand not in span:
                    span, t_span = extend(span, cand), extend(t_span, cand)
            out.append(sorted(t_span))
            prev = set(layer)
        return out

    def layer_codes(self, i: int) -> list[int]:
        self._check_layer(i)
        return list(self._layer_codes[i - 1])

    def layer_elements(self, i: int) -> list[Element]:
        # an element view kept only because the benchmark's traced pass wraps it
        return [Element(self.field, c) for c in self.layer_codes(i)]

    def transversal_codes(self, i: int) -> list[int]:
        self._check_layer(i)
        return list(self._transversals[i - 1])


class OmegaRingChain(GroupChain):
    """Tower of truncated formal sums over base groups in the symbol w."""

    kind = "omega"

    def __init__(self, bases: Sequence[BaseGroup]):
        bases = tuple(bases)
        if not bases:
            raise SpecError("omega ring needs at least one base group")
        for b in bases:
            if not isinstance(b, (Zn, Field)):
                raise SpecError(f"unsupported base group {b!r}")
        self.bases = bases
        self.sizes = tuple(
            prod(b.size for b in bases[:i]) for i in range(1, len(bases) + 1)
        )
        check_table_order(self.top_size)

    # -- the ring as the additive group of its codes -----------------------

    @property
    def group(self) -> "OmegaRingChain":
        return self

    @property
    def size(self) -> int:
        return self.top_size

    @cached_property
    def add(self) -> list[list[int]]:
        """add[a][b] is the code of a + b: component-wise in the bases."""
        return direct_sum_table([b.add for b in self.bases])

    @cached_property
    def neg(self) -> list[int]:
        return [row.index(0) for row in self.add]

    def sub_codes(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    # -- text form: psi_0 first, then psi_b * w^b with ascending b ---------

    def text_code(self, code: int) -> str:
        terms = []
        for b, base in enumerate(self.bases):
            code, c = divmod(code, base.size)
            if not c:
                continue
            coeff = base.text_code(c)
            unit = "w" if b == 1 else f"w{b}"
            if b == 0:
                terms.append(coeff)
            elif coeff == "1":
                terms.append(unit)
            elif "+" in coeff:
                terms.append(f"({coeff}){unit}")
            else:
                terms.append(f"{coeff}{unit}")
        return "+".join(terms) if terms else "0"

    def descriptor(self) -> dict:
        return {"kind": self.kind, "bases": [b.descriptor() for b in self.bases]}

    def __repr__(self) -> str:
        return f"OmegaRingChain({list(self.bases)!r})"


def chain_field_tower(
    p: int, u_chain: Sequence[int], modulus: Optional[Sequence[int]] = None
) -> FieldTowerChain:
    return FieldTowerChain(p, u_chain, modulus)


def chain_subfield_tower(
    p: int, u_chain: Sequence[int], modulus: Optional[Sequence[int]] = None
) -> SubfieldTowerChain:
    return SubfieldTowerChain(p, u_chain, modulus)


def chain_omega_ring(bases: Sequence[BaseGroup]) -> OmegaRingChain:
    return OmegaRingChain(bases)


def chain_from_descriptor(d: dict) -> GroupChain:
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind == "field-tower":
        return FieldTowerChain(*_field_args(d, "u_chain", _int_list))
    if kind == "subfield-tower":
        return SubfieldTowerChain(*_field_args(d, "u_chain", _int_list))
    if kind == "omega":
        if not isinstance(d.get("bases"), list):
            raise SpecError(f"omega chain descriptor needs a 'bases' list, got {d!r}")
        return OmegaRingChain([base_from_descriptor(b) for b in d["bases"]])
    raise SpecError(f"unknown chain kind {kind!r}")
