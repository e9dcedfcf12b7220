"""Seeded k-stage composite programs: the Section IX scale family.

Each program chains k communication stages, one after another, where a
stage is one of the four root-centred patterns the paper profiles:

* ``fanout`` -- the Section IX broadcast: root sends to every rank;
* ``gather`` -- every rank sends to the root;
* ``pipeline`` -- data flows 0 -> 1 -> ... -> np-1;
* ``exchange`` -- the Fig. 5 mdcask exchange with the root.

Every stage owns its variables (``x3``, ``y3``, ``i3`` for stage 3), so the
constraint graph grows with k the way the paper's mdcask graphs do.  The
programs are built with :mod:`repro.lang.build` and rendered with
``to_source``; the analyzer only ever sees the rendered text.

A *round* is the unit the workload measures: four programs with k = 3, 4,
5 and 6 whose 18 stages hold every kind four times plus two extra kinds.
The shape of round ``i`` -- stage kinds and order, the kind of value each
stage sends, each exchange's send/receive placement -- is one fixed design
drawn from ``i`` alone; the run seed draws the numbers in it (values,
offsets, pipeline increments).  Different seeds therefore give different
programs of the same shapes, whose cost differs little from seed to seed
even though each program's cost depends on the memo tables the programs
before it left behind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lang.build import (
    ID,
    NP,
    add,
    assign,
    eq,
    for_,
    if_,
    lt,
    mul,
    num,
    program,
    recv,
    send,
    sub,
    to_source,
    var,
)

KINDS = ("fanout", "gather", "pipeline", "exchange")
ROUND_KS = (3, 4, 5, 6)
#: process counts the dynamic-interpreter oracle checks every program at
NP_VALUES = (4, 6, 8)


@dataclass(frozen=True)
class ScaleProgram:
    """One generated program plus the choices that produced it."""

    name: str
    kinds: Tuple[str, ...]
    source: str
    np_values: Tuple[int, ...] = NP_VALUES

    @property
    def k(self) -> int:
        return len(self.kinds)


def _value(shape: Optional[random.Random], rng: random.Random):
    choice = shape.randrange(3) if shape else 0
    if choice == 0:
        return num(rng.randrange(1, 50))
    if choice == 1:
        return add(ID, num(rng.randrange(1, 9)))
    return mul(num(rng.randrange(2, 9)), ID)


def _stage(kind: str, s: int, shape: Optional[random.Random], rng: random.Random) -> list:
    x, y, i = f"x{s}", f"y{s}", f"i{s}"
    head = assign(x, _value(shape, rng))
    if kind == "fanout":
        root = [for_(i, num(1), sub(NP, num(1)), [send(var(x), var(i))])]
        return [head, if_(eq(ID, 0), root, [recv(y, num(0))])]
    if kind == "gather":
        root = [for_(i, num(1), sub(NP, num(1)), [recv(y, var(i))])]
        return [head, if_(eq(ID, 0), root, [send(var(x), num(0))])]
    if kind == "pipeline":
        middle = [
            recv(y, sub(ID, num(1))),
            assign(x, add(var(y), num(rng.randrange(1, 5)))),
            send(var(x), add(ID, num(1))),
        ]
        rest = [if_(lt(ID, sub(NP, num(1))), middle, [recv(y, sub(ID, num(1)))])]
        return [head, if_(eq(ID, 0), [send(var(x), num(1))], rest)]
    if kind == "exchange":
        if shape is None or shape.random() < 0.5:
            loop = [send(var(x), var(i)), recv(y, var(i))]
            worker = [recv(y, num(0)), send(var(x), num(0))]
        else:
            loop = [recv(y, var(i)), send(var(x), var(i))]
            worker = [send(var(x), num(0)), recv(y, num(0))]
        root = [for_(i, num(1), sub(NP, num(1)), loop)]
        return [head, if_(eq(ID, 0), root, worker)]
    raise ValueError(f"unknown stage kind {kind!r}")


def build(kinds, shape: Optional[random.Random], rng: random.Random,
          name: str) -> ScaleProgram:
    """Compose one program from a sequence of stage kinds; ``shape`` draws
    the value kinds and placements (None: constants, send first), ``rng``
    the numbers."""
    body: list = []
    for s, kind in enumerate(kinds):
        body.extend(_stage(kind, s, shape, rng))
    return ScaleProgram(name, tuple(kinds), to_source(program(*body)))


def make_round(seed: int, index: int, ks=ROUND_KS, stream: str = "scale") -> List[ScaleProgram]:
    """Round ``index`` of ``stream`` for ``seed``: one program per size in
    ``ks``, every stage kind used equally often (up to the remainder)."""
    shape = random.Random(f"perfbench-{stream}-design:{index}")
    rng = random.Random(f"perfbench-{stream}:{seed}:{index}")
    total = sum(ks)
    stages = list(KINDS) * (total // len(KINDS)) + shape.sample(KINDS, total % len(KINDS))
    shape.shuffle(stages)
    sizes = list(ks)
    shape.shuffle(sizes)
    programs = []
    for k in sizes:
        kinds, stages = stages[:k], stages[k:]
        programs.append(build(kinds, shape, rng, f"{stream}-{seed}-{index}-k{k}"))
    return programs


def pure(kind: str, k: int) -> ScaleProgram:
    """k stages of one kind sending constants, as the Section IX broadcast
    does (the scaling-curve family in NOTES.md)."""
    return build([kind] * k, None, random.Random(f"perfbench-pure:{kind}:{k}"), f"{kind}-k{k}")
