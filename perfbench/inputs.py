"""Seeded input generator for the benchmark.

Everything the program reads is built here from integers with Python's
``random`` module seeded by strings, so the same arguments give the same
bytes on every platform and numpy version.

Graph instances are fixed per ladder rung (drawn once, with random costs
and randomly chosen uncertain roads), and the workload seed relabels them:
it renames every node and road, flips road orientation and shuffles the
document order. A relabelled instance has the same exact answers, so the
values recorded in ``references.json`` from the seed commit check exact
outputs to 1e-9 under any seed, and the planner does the same work under
every seed. Exact planner cost varies about 8x between random 3x4 grids
with 10 uncertain roads (1.1 to 9.5 s measured on a 2-CPU machine), which
no run of a few dozen seconds could average away.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

# rung name -> (rows, cols, uncertain roads)
RUNGS = {
    "g3x3u6": (3, 3, 6),
    "g3x3u8": (3, 3, 8),
    "g3x4u10": (3, 4, 10),
    "g6x6u30": (6, 6, 30),
}

# elicitation shape name -> (roads, covariate columns, expert draws)
ELICIT_SHAPES = {
    "large": (400, 4, 8),
    "small": (60, 3, 4),
}


@dataclass(frozen=True)
class Instance:
    """A graph document's content plus the journey asked about it."""

    name: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, str, float], ...]  # (id, u, v, cost)
    probabilities: dict[str, float]
    source: str
    sink: str

    def text(self) -> str:
        doc = {
            "directed": False,
            "nodes": list(self.nodes),
            "edges": [
                {"id": i, "u": u, "v": v, "cost": c, "p": self.probabilities[i]}
                for i, u, v, c in self.edges
            ],
        }
        return json.dumps(doc, indent=1) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.text().encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Relabelled:
    """An instance under fresh names; maps translate back to the base."""

    text: str
    source: str
    sink: str
    node_name: dict[str, str]  # base node -> new node
    edge_name: dict[str, str]  # base edge -> new edge

    @property
    def base_edge(self) -> dict[str, str]:
        return {new: old for old, new in self.edge_name.items()}


def grid(rung: str) -> Instance:
    """A rows x cols grid with costs uniform in [1, 10] and `uncertain`
    randomly chosen roads blocked with probability uniform in [0.1, 0.5];
    every other road is certainly open. The journey runs corner to corner.
    Costs keep all their digits so that no two distinct paths tie."""
    rows, cols, uncertain = RUNGS[rung]
    gen = random.Random(f"grid:{rung}")
    node = [[f"n{r}_{c}" for c in range(cols)] for r in range(rows)]
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((node[r][c], node[r][c + 1]))
            if r + 1 < rows:
                pairs.append((node[r][c], node[r + 1][c]))
    edges = tuple(
        (f"e{i:02d}", u, v, gen.uniform(1.0, 10.0)) for i, (u, v) in enumerate(pairs)
    )
    chosen = set(gen.sample(range(len(edges)), uncertain))
    probabilities = {
        e[0]: round(gen.uniform(0.1, 0.5), 3) if i in chosen else 0.0
        for i, e in enumerate(edges)
    }
    return Instance(
        name=rung,
        nodes=tuple(n for row in node for n in row),
        edges=edges,
        probabilities=probabilities,
        source=node[0][0],
        sink=node[-1][-1],
    )


def committed_route(name: str) -> list[str]:
    """Base node names of the route ``simulate --policy route:...`` commits
    to: the detour on the fixtures, and on a grid the top row, then down
    the last column."""
    if name not in RUNGS:
        return {"tri": ["S", "M", "T"], "tb0.25": ["S", "A", "T"]}[name]
    rows, cols, _ = RUNGS[name]
    return [f"n0_{c}" for c in range(cols)] + [f"n{r}_{cols - 1}" for r in range(1, rows)]


def tri() -> Instance:
    """The README triangle: direct road S-T (10, blocked w.p. 0.3) against
    the certain detour S-M-T (4 + 8). Exact value 10.6, cbc(d) = 2."""
    return Instance(
        "tri",
        ("S", "M", "T"),
        (("d", "S", "T", 10.0), ("a", "S", "M", 4.0), ("b", "M", "T", 8.0)),
        {"d": 0.3, "a": 0.0, "b": 0.0},
        "S",
        "T",
    )


def tb(q: float = 0.25) -> Instance:
    """The README tie breaker: the gamble S-A-T (1 + 1, second hop blocked
    w.p. q) against the certain road S-T (4). Exact value 2 + 4q."""
    return Instance(
        f"tb{q:g}",
        ("S", "A", "T"),
        (("sa", "S", "A", 1.0), ("at", "A", "T", 1.0), ("st", "S", "T", 4.0)),
        {"sa": 0.0, "at": q, "st": 0.0},
        "S",
        "T",
    )


def kite() -> Instance:
    """Fixture-sized instance with three uncertain roads, so conditioning
    centrality on one road leaves the others random."""
    return Instance(
        "kite",
        ("S", "A", "B", "T"),
        (
            ("sa", "S", "A", 2.0),
            ("sb", "S", "B", 3.0),
            ("ab", "A", "B", 1.5),
            ("at", "A", "T", 6.0),
            ("bt", "B", "T", 4.0),
            ("st", "S", "T", 11.0),
        ),
        {"sa": 0.0, "sb": 0.0, "ab": 0.2, "at": 0.35, "bt": 0.45, "st": 0.0},
        "S",
        "T",
    )


def instance(name: str) -> Instance:
    if name in RUNGS:
        return grid(name)
    return {"tri": tri, "tb0.25": tb, "kite": kite}[name]()


def relabel(inst: Instance, label: str) -> Relabelled:
    """Rename nodes and roads, flip orientations and shuffle document order.

    New names are random strings, so lexicographic tie breaks fall
    differently under each label; with continuous costs no exact answer
    depends on them.
    """
    gen = random.Random(f"relabel:{inst.name}:{label}")

    def names(prefix: str, count: int) -> list[str]:
        picked: set[str] = set()
        out = []
        while len(out) < count:
            name = prefix + "".join(gen.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))
            if name not in picked:
                picked.add(name)
                out.append(name)
        return out

    node_name = dict(zip(inst.nodes, names("N", len(inst.nodes))))
    edge_name = dict(zip((e[0] for e in inst.edges), names("r", len(inst.edges))))
    edges = []
    for i, u, v, c in inst.edges:
        if gen.random() < 0.5:
            u, v = v, u
        edges.append((edge_name[i], node_name[u], node_name[v], c))
    gen.shuffle(edges)
    nodes = [node_name[n] for n in inst.nodes]
    gen.shuffle(nodes)
    probabilities = {edge_name[e]: p for e, p in inst.probabilities.items()}
    new = Instance(
        inst.name,
        tuple(nodes),
        tuple(edges),
        probabilities,
        node_name[inst.source],
        node_name[inst.sink],
    )
    return Relabelled(new.text(), new.source, new.sink, node_name, edge_name)


def elicit_inputs(shape: str, label: str) -> tuple[str, str, str]:
    """Covariates CSV and expert CSVs in point form and draws form.

    Column one is an intercept, the rest are standard normal. Each expert
    draw states p = expit(Z beta_j + noise) for its own beta_j, with logits
    kept inside [-4, 4] so that no probability needs clamping.
    """
    roads, k, draws = ELICIT_SHAPES[shape]
    gen = random.Random(f"elicit:{shape}:{label}")
    names = ["intercept"] + [f"z{j}" for j in range(1, k)]
    rows = [[1.0] + [round(gen.gauss(0.0, 1.0), 4) for _ in range(1, k)] for _ in range(roads)]
    ids = [f"r{i:03d}" for i in range(roads)]
    base = [-1.0] + [gen.uniform(-0.8, 0.8) for _ in range(1, k)]

    def stated(beta: list[float]) -> list[float]:
        out = []
        for row in rows:
            z = sum(a * b for a, b in zip(row, beta)) + gen.gauss(0.0, 0.3)
            z = min(max(z, -4.0), 4.0)
            out.append(round(1.0 / (1.0 + math.exp(-z)), 6))
        return out

    cov = ["edge_id," + ",".join(names)]
    cov += [ids[i] + "," + ",".join(repr(x) for x in rows[i]) for i in range(roads)]
    point = ["edge_id,p"] + [f"{e},{p!r}" for e, p in zip(ids, stated(base))]
    drawn = ["draw_id,edge_id,p"]
    for j in range(draws):
        beta = [b + gen.gauss(0.0, 0.25) for b in base]
        drawn += [f"d{j},{e},{p!r}" for e, p in zip(ids, stated(beta))]
    return tuple("\n".join(lines) + "\n" for lines in (cov, point, drawn))
