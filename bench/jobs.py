"""Workload job lists and the input files they read.

A workload is a fixed list of CLI jobs (one *pass*).  Everything a job reads
is written here from the workload seed: input arrays and difference
matrices, chain descriptors, permutation files, and, for ``lift-export``,
the base designs built once through the CLI.  The seed picks the
``lift --seed`` values, the relabel permutations and the tampered cell; it
never changes the amount of work, so runs with different seeds measure the
same job list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FORMAT = {"format": "nestfill-design", "version": "0.1.0"}


@dataclass
class Job:
    """One CLI invocation; `argv` paths are relative to the pass directory
    (inputs live in ``../inputs``)."""

    command: str
    argv: list[str]
    expect_exit: int = 0
    # report file whose "passed" flag must be true
    report: str | None = None


@dataclass
class Tamper:
    """Copy `source` with one cell changed, then expect `verify` to exit 3.

    The cell sits in column 0 of the first `prefix_rows` rows and takes a
    value from `values`, so the oracle rejects the copy at its first check
    whatever the seed: the cost of the failing verify does not depend on it.
    """

    source: str
    prefix_rows: int
    values: int
    cell: tuple[int, int] = (0, 0)  # (row, value), drawn from the seed by build()


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    tamper: Tamper
    chains: list[dict]  # every chain descriptor the workload builds
    base_jobs: list[Job] = field(default_factory=list)  # built once, untimed


# -- input generators (pure Python, independent of the program) ------------


def zn_oa(p: int) -> list[list[int]]:
    """OA(p^2, p+1, p, 2) over Z_p for prime p: columns b, a + l*b; first row zero."""
    return [[b] + [(a + l * b) % p for l in range(p)] for a in range(p) for b in range(p)]


def zn_dm(p: int) -> list[list[int]]:
    """Multiplication table of Z_p: a D(p, p, p) difference matrix, first row zero."""
    return [[(a * b) % p for b in range(p)] for a in range(p)]


def gf8_mul(a: int, b: int) -> int:
    """GF(8) product with modulus x^3 + x + 1 (the program's default for p=2, u=3)."""
    out = 0
    for bit in range(3):
        if b >> bit & 1:
            out ^= a << bit
    for deg in (4, 3):
        if out >> deg & 1:
            out ^= 0b1011 << (deg - 3)
    return out


def gf8_oa() -> list[list[int]]:
    """OA(64, 9, 8, 2): rows (a, b), columns b and a + l*b for l in GF(8)."""
    return [[b] + [a ^ gf8_mul(l, b) for l in range(8)] for a in range(8) for b in range(8)]


def on_transversal(rows, scale: int) -> list[list[int]]:
    """Place Z_n codes on omega-ring transversal i (code = part * scale)."""
    return [[v * scale for v in r] for r in rows]


def nested_permutation(sizes, rng: random.Random) -> list[int]:
    """Nested permutation of 0..top-1: the first s_i values hit s_i distinct
    blocks of width top/s_i, for every layer size s_i."""
    top = sizes[-1]
    values: list[int] = []
    for t in range(1, top + 1):
        q = top // next(s for s in sizes if s >= t)
        used = {v // q for v in values}
        values.append(rng.choice([v for v in range(top) if v // q not in used and v not in values]))
    return values


def omega(*bases) -> dict:
    return {"kind": "omega", "bases": list(bases)}


def zn(n: int) -> dict:
    return {"zn": n}


def field_tower(p: int, u: list[int]) -> dict:
    return {"kind": "field-tower", "p": p, "u_chain": u}


def subfield_tower(p: int, u: list[int]) -> dict:
    return {"kind": "subfield-tower", "p": p, "u_chain": u}


GF4 = {"gf": {"p": 2, "u": 2, "modulus": [1, 1, 1]}}
# README / golden example 3: D_1 over GF(4), D_2 over Z_3 (codes 4, 8), D_3 over Z_2 (code 12)
EXAMPLE3_DMS = [
    [[0, 0, 0], [0, 1, 2], [0, 2, 3], [0, 3, 1]],
    [[0, 0, 0], [0, 4, 8], [0, 8, 4]],
    [[0, 0, 0], [0, 0, 12], [0, 12, 0], [0, 12, 12]],
]


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload))


def write_design(path: Path, rows, s: int, kind: str = "oa", t: int = 2) -> str:
    payload = {**FORMAT, "type": kind, "n": len(rows), "m": len(rows[0]), "s": s, "rows": rows}
    if kind == "oa":
        payload["t_claimed"] = t
    write_json(path, payload)
    return f"../inputs/{path.name}"


def kron_inputs(inputs: Path, stem: str, tables, scales, s_list, kind="oa"):
    """Write one input file per chain layer; return their relative paths."""
    return [
        write_design(inputs / f"{stem}{i}.json", on_transversal(t, sc), s, kind)
        for i, (t, sc, s) in enumerate(zip(tables, scales, s_list), start=1)
    ]


def construct(out: str, *args: str) -> Job:
    return Job("construct", [*args, "--out", out], report=f"{out}.verify.json")


def verify(design: str) -> Job:
    return Job("verify", ["--design", design, "--out", f"{design}.check.json"],
               report=f"{design}.check.json")


def construct_input_args(method: str, chain: str, files) -> list[str]:
    args = ["--method", method, "--chain", f"../inputs/{chain}"]
    for f in files:
        args += ["--input", f]
    return args


# -- workloads --------------------------------------------------------------


def gf_construct(inputs: Path, rng: random.Random, smoke: bool) -> Workload:
    specs = [
        ("rh4.json", "rh-noa", "2", "1,2,3,4", "3"),
        ("rh6.json", "rh-noa", "2", "1,2,3,4,5,6", "2"),
        ("rh7.json", "rh-noa", "7", "1,2", "2"),
        ("bush.json", "bush-noa", "2", "2,4", "3"),
        ("sub.json", "subfield-noa", "3", "1,2", "3"),
    ]
    tamper = Tamper("rh7.json", prefix_rows=49, values=7)
    if smoke:
        specs = [("rh2.json", "rh-noa", "2", "1,2", "2")]
        tamper = Tamper("rh2.json", prefix_rows=4, values=2)
    jobs = [construct(out, "--method", m, "--p", p, "--u", u, "--k", k) for out, m, p, u, k in specs]
    jobs += [verify(out) for out, *_ in specs]
    first = specs[0][0]
    jobs.append(Job("export", ["--design", first, "--format", "csv", "--out", first[:-5] + ".csv"]))
    chains = [
        (subfield_tower if m != "rh-noa" else field_tower)(int(p), [int(v) for v in u.split(",")])
        for _, m, p, u, _ in specs
    ]
    return Workload("gf-construct", jobs, tamper, chains)


def lift_export(inputs: Path, rng: random.Random, smoke: bool) -> Workload:
    # (stem, chain, construct args or None for the kron-noa inputs, rows, columns)
    bases = [
        ("rh4", field_tower(2, [1, 2, 3, 4]),
         ["--method", "rh-noa", "--p", "2", "--u", "1,2,3,4", "--k", "3"], 4096, 7),
        ("kron5", omega(zn(5), zn(5), zn(5)), None, 15625, 6),
    ]
    if smoke:
        bases = [("rh2", field_tower(2, [1, 2]),
                  ["--method", "rh-noa", "--p", "2", "--u", "1,2", "--k", "2"], 16, 3)]
    base_jobs, jobs = [], []
    for stem, chain, args, _, m in bases:
        if args is None:
            write_json(inputs / f"{stem}.chain.json", chain)
            files = kron_inputs(inputs, stem + "-a", [zn_oa(5)] * 3, [1, 5, 25], [5, 5, 5])
            args = construct_input_args("kron-noa", f"{stem}.chain.json", files)
        base = f"../inputs/{stem}.json"
        base_jobs.append(Job("construct", [*args, "--out", base]))
        perms = [nested_permutation(chain_sizes(chain), rng) for _ in range(m)]
        write_json(inputs / f"{stem}.perms.json", {"kind": "nested", "values": perms})
        lifts = [
            (f"{stem}-nested.json", ["--mode", "nested", "--seed", str(rng.randrange(2**31))]),
            (f"{stem}-sliced.json", ["--mode", "sliced", "--seed", str(rng.randrange(2**31))]),
            (f"{stem}-grouped.json", ["--mode", "grouped", "--i", "2", "--j", "1",
                                      "--seed", str(rng.randrange(2**31))]),
            (f"{stem}-relabel.json", ["--mode", "nested", "--stage", "relabel-only",
                                      "--perms", f"../inputs/{stem}.perms.json"]),
        ]
        if smoke:
            lifts = lifts[:1]
        jobs += [Job("lift", ["--design", base, *how, "--out", out]) for out, how in lifts]
        jobs += [verify(out) for out, _ in lifts]
        nested = lifts[0][0]
        csv = nested[:-5] + ".csv"
        jobs.append(Job("export", ["--design", nested, "--format", "csv", "--out", csv]))
        jobs.append(Job("export", ["--design", nested, "--format", "scatter", "--out", nested[:-5]]))
        jobs.append(verify(csv))
    stem, n = bases[0][0], bases[0][3]
    # a Latin hypercube rejects any changed cell; column 0 keeps the cost fixed
    tamper = Tamper(f"{stem}-nested.json", prefix_rows=n, values=n)
    return Workload("lift-export", jobs, tamper, [b[1] for b in bases], base_jobs)


def dm_kron(inputs: Path, rng: random.Random, smoke: bool) -> Workload:
    chains = {
        "z3x4": omega(zn(3), zn(3), zn(3), zn(3)),
        "z7x3": omega(zn(7), zn(7), zn(7)),
        "ex3": omega(GF4, zn(3), zn(2)),
        "z5x2": omega(zn(5), zn(5)),
    }
    for name, desc in chains.items():
        write_json(inputs / f"{name}.chain.json", desc)
    ex3 = construct("ex3.json", *construct_input_args(
        "kron-ndm", "ex3.chain.json",
        kron_inputs(inputs, "ex3-d", EXAMPLE3_DMS, [1, 1, 1], [4, 3, 2], kind="dm")))
    if smoke:
        jobs = [ex3, verify("ex3.json")]
        return Workload("dm-kron", jobs, Tamper("ex3.json", 4, 4), [chains["ex3"]])
    jobs = [
        construct("kron-noa.json", *construct_input_args(
            "kron-noa", "z3x4.chain.json",
            kron_inputs(inputs, "z3-a", [zn_oa(3)] * 4, [1, 3, 9, 27], [3] * 4))),
        construct("kron-ndm.json", *construct_input_args(
            "kron-ndm", "z7x3.chain.json",
            kron_inputs(inputs, "z7-d", [zn_dm(7)] * 3, [1, 7, 49], [7] * 3, kind="dm"))),
        ex3,
        construct("kron-soa.json", *construct_input_args(
            "kron-soa", "z5x2.chain.json",
            kron_inputs(inputs, "z5-a", [zn_oa(5)] * 2, [1, 5], [5, 5]))),
        construct("ndm.json", "--method", "ndm-product", "--p", "2", "--u", "1,2,3",
                  "--input", write_design(inputs / "gf8-oa.json", gf8_oa(), 8)),
    ]
    outputs = ["kron-noa.json", "kron-ndm.json", "ex3.json", "kron-soa.json", "ndm.json", "ndm-dm.json"]
    jobs += [verify(out) for out in outputs]
    return Workload("dm-kron", jobs, Tamper("kron-ndm.json", 7, 7),
                    [*chains.values(), field_tower(2, [1, 2, 3])])


def chain_sizes(desc: dict) -> list[int]:
    """Layer sizes of a field-tower or Z_n omega-ring descriptor."""
    if desc["kind"] == "omega":
        sizes, acc = [], 1
        for b in desc["bases"]:
            acc *= b["zn"]
            sizes.append(acc)
        return sizes
    return [desc["p"] ** u for u in desc["u_chain"]]


WORKLOADS = {"gf-construct": gf_construct, "lift-export": lift_export, "dm-kron": dm_kron}


def build(name: str, inputs: Path, seed: int, smoke: bool = False) -> Workload:
    """Write the inputs of workload `name` under `inputs` and return its job list."""
    rng = random.Random(f"nestfill-bench:{name}:{seed}")
    workload = WORKLOADS[name](inputs, rng, smoke)
    t = workload.tamper
    t.cell = (rng.randrange(t.prefix_rows), rng.randrange(t.values))
    return workload
