"""Seeded input generator owned by the benchmark.

Every request is built here from the seed alone, as the serialized inputs the
`hdpl` CLI takes: model JSON dicts, sentence or gameboard-tree text, and a
fragment string. Nothing here imports `hdpl`, so a change to the package's own
random generators (`hdpl.corpus`, `generate_random_model`) cannot change the
workload.

Each workload is a fixed cyclic schedule of cells (request kind, fragment,
sizes, pair shape) chosen up front, and successive cycles step through fixed
strata of the remaining shape parameters (nominal or not, one prop or two,
a quarter of the edge-density range). The seed only draws the
random content within them. Two seeds therefore give the same mix with
different models, which keeps the run-to-run spread small without ever
dropping an input because of its outcome or its cost.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("formulas", "finite-games", "countable", "backforth")

# the seven fragments of the paper's differential suites
FRAGMENTS = (
    "diamond",
    "diamond,union,comp,star",
    "diamond,at",
    "diamond,store",
    "diamond,at,store",
    "diamond,store,exists",
    "diamond,at,store,exists",
)


def _rng(seed: int, *tags) -> random.Random:
    # str seeds hash with SHA-512, so streams are stable across processes
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _ops(fragment: str) -> set[str]:
    return set(fragment.split(","))


# ---------------------------------------------------------------------------
# Models


# Strata: request i of a run lies in stratum (i // cycle length) % STRATA;
# bits 0-1 pick a quarter of the edge-density range, bit 2 gives a nominal
# and bit 3 a second prop. Pools are whole multiples of STRATA cycles.
STRATA = 16


def _signature(stratum: int, nominal: bool | None = None, relations=("l",), props=None) -> dict:
    if nominal is None:
        nominal = bool(stratum >> 2 & 1)
    if props is None:
        props = ("p", "q")[: 1 + (stratum >> 3 & 1)]
    return {"nominals": ["k"] if nominal else [], "relations": list(relations), "props": list(props)}


def _density(rng: random.Random, stratum: int, lo: float, hi: float) -> float:
    """Uniform over one quarter of [lo, hi], picked by the stratum."""
    return lo + (hi - lo) * ((stratum & 3) + rng.random()) / 4


def random_model(rng: random.Random, sig: dict, n_states: int, density: float, prop_density: float = 0.5) -> dict:
    """Each edge is drawn with probability `density`. A prop holds at each
    state with probability `prop_density`, or, when that is an int, at
    exactly that many states."""
    states = [f"s{i}" for i in range(n_states)]
    if isinstance(prop_density, int):
        props = {p: sorted(rng.sample(states, prop_density)) for p in sig["props"]}
    else:
        props = {p: [w for w in states if rng.random() < prop_density] for p in sig["props"]}
    return {
        "states": states,
        "nominals": {k: rng.choice(states) for k in sig["nominals"]},
        "relations": {
            r: [[a, b] for a in states for b in states if rng.random() < density] for r in sig["relations"]
        },
        "props": props,
    }


def _basics(model: dict, w: str) -> tuple:
    """The props and nominals true at state w."""
    props = tuple(sorted(p for p, ws in model["props"].items() if w in ws))
    return props, tuple(sorted(k for k, v in model["nominals"].items() if v == w))


def _perturb(rng: random.Random, model: dict) -> dict:
    """Copy of the model with one edge of one relation flipped."""
    out = json.loads(json.dumps(model))
    r = rng.choice(sorted(out["relations"]))
    edge = [rng.choice(out["states"]), rng.choice(out["states"])]
    pairs = out["relations"][r]
    if edge in pairs:
        pairs.remove(edge)
    else:
        pairs.append(edge)
        pairs.sort()
    return out


def _rename(rng: random.Random, model: dict) -> tuple[dict, dict[str, str]]:
    """An isomorphic copy with permuted, renamed states listed in a new order."""
    perm = list(range(len(model["states"])))
    rng.shuffle(perm)
    h = {w: f"t{perm[i]}" for i, w in enumerate(model["states"])}
    out = {
        "states": sorted(h.values()),
        "nominals": {k: h[w] for k, w in model["nominals"].items()},
        "relations": {r: sorted([h[a], h[b]] for a, b in ps) for r, ps in model["relations"].items()},
        "props": {p: sorted(h[w] for w in ws) for p, ws in model["props"].items()},
    }
    return out, h


def model_pair(rng: random.Random, sig: dict, shape: str, n_states: int, density: float, prop_density: float = 0.5):
    """(left model, left state, right model, right state) of the given shape:
    identical, perturbed (one edge flipped), renamed (isomorphic copy) or
    independent (drawn separately, same size)."""
    m = random_model(rng, sig, n_states, density, prop_density)
    w = rng.choice(m["states"])
    if shape == "identical":
        return m, w, json.loads(json.dumps(m)), w
    if shape == "perturbed":
        return m, w, _perturb(rng, m), w
    if shape == "renamed":
        n, h = _rename(rng, m)
        return m, w, n, h[w]
    if shape == "independent":
        # pointed at a state that agrees with w on every prop and nominal where
        # one exists, so the game does not end at its first position
        n = random_model(rng, sig, n_states, density, prop_density)
        agreeing = [v for v in n["states"] if _basics(n, v) == _basics(m, w)]
        return m, w, n, rng.choice(agreeing or n["states"])
    raise ValueError(f"unknown pair shape {shape!r}")


# ---------------------------------------------------------------------------
# Sentences and trees (text)


def _actions(fragment: str) -> list[str]:
    """Edge actions over relation l: the base relation plus one composite
    per enabled constructor."""
    ops = _ops(fragment)
    acts = ["l"]
    if "star" in ops:
        acts.append("l*")
    if "comp" in ops:
        acts.append("(l;l)")
    if "union" in ops:
        acts.append("(l+l*)" if "star" in ops else "(l+l)")
    return acts


def random_sentence(rng: random.Random, sig: dict, fragment: str, depth: int, bound: int = 0) -> str:
    """Sentence text in the fragment; binders are named x0, x1, ... by depth."""
    ops = _ops(fragment)
    points = list(sig["nominals"]) + [f"x{i}" for i in range(bound)]
    atoms = list(sig["props"]) + points + ["true", "false"]
    if depth <= 0:
        return rng.choice(atoms)
    kinds = ["atom", "neg", "and", "or", "dia", "box"]
    if "at" in ops and points:
        kinds.append("at")
    if "store" in ops:
        kinds.append("store")
    if "exists" in ops:
        kinds += ["exists", "forall"]
    kind = rng.choice(kinds)
    sub = lambda b=bound: random_sentence(rng, sig, fragment, depth - 1, b)  # noqa: E731
    if kind == "atom":
        return rng.choice(atoms)
    if kind == "neg":
        return f"~{sub()}"
    if kind in ("and", "or"):
        op = " & " if kind == "and" else " | "
        return "(" + op.join(sub() for _ in range(rng.randint(2, 3))) + ")"
    if kind in ("dia", "box"):
        a = rng.choice(_actions(fragment))
        return (f"<{a}>" if kind == "dia" else f"[{a}]") + sub()
    if kind == "at":
        return f"@{rng.choice(points)} {sub()}"
    var = f"x{bound}"
    keyword = {"store": "down", "exists": "exists", "forall": "forall"}[kind]
    return f"{keyword} {var} . {sub(bound + 1)}"


def _leaf_size(sig: dict, bound: int) -> int:
    return 2 ** (len(sig["nominals"]) + bound + len(sig["props"]))


def random_tree(
    rng: random.Random, sig: dict, fragment: str, max_height: int, theta_min: int, theta_cap: int
) -> tuple[str, int, int]:
    """A valid random gameboard tree as text, its height, and its exact
    game-sentence count, drawn until that count lies in [theta_min,
    theta_cap]. Siblings carry distinct labels (at most one idle edge per
    node), so every draw is a valid tree."""
    ops = _ops(fragment)
    acts = _actions(fragment)
    clamp = theta_cap + 1

    def build(bound: int, height: int) -> tuple[str, int, int]:
        if height == 0 or rng.random() < 0.3:
            return "leaf", 0, min(_leaf_size(sig, bound), clamp)
        kinds = ["idle", "dia"]
        points = list(sig["nominals"]) + [f"x{i}" for i in range(bound)]
        if "at" in ops and points:
            kinds.append("at")
        if "store" in ops:
            kinds.append("store")
        if "exists" in ops:
            kinds.append("exists")
        edges, used, size, h = [], set(), 1, 0
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(kinds)
            label = {"idle": "idle", "store": "down", "exists": "exists"}.get(kind)
            if kind == "dia":
                label = f"dia {rng.choice(acts)}"
            elif kind == "at":
                label = f"at {rng.choice(points)}"
            if label in used:
                continue
            used.add(label)
            child, ch, inner = build(bound + (kind in ("store", "exists")), height - 1)
            factor = (clamp if inner > 60 else min(2**inner, clamp)) if kind in ("dia", "exists") else inner
            size = min(size * factor, clamp)
            h = max(h, ch + 1)
            edges.append(f"({label} {child})")
        text = edges[0] if len(edges) == 1 else "(branch " + " ".join(edges) + ")"
        return text, h, size

    for _ in range(10000):
        text, h, size = build(0, max_height)
        if theta_min <= size <= theta_cap:
            return text, h, size
    raise ValueError(f"no tree with {theta_min}-{theta_cap} game sentences over {sig} in {fragment}")


def complete_tree_text(sig: dict, fragment: str, height: int, actions: list[str], bound: int = 0) -> str:
    """Text of the complete tree: one move per enabled option at every node
    (idle, store, exists, at per point name, dia per action)."""
    if height == 0:
        return "leaf"
    ops = _ops(fragment)
    same = complete_tree_text(sig, fragment, height - 1, actions, bound)
    edges = [f"(idle {same})"]
    if "store" in ops or "exists" in ops:
        ext = complete_tree_text(sig, fragment, height - 1, actions, bound + 1)
        if "store" in ops:
            edges.append(f"(down {ext})")
        if "exists" in ops:
            edges.append(f"(exists {ext})")
    if "at" in ops:
        for name in list(sig["nominals"]) + [f"x{i}" for i in range(bound)]:
            edges.append(f"(at {name} {same})")
    for a in actions:
        edges.append(f"(dia {a} {same})")
    return "(branch " + " ".join(edges) + ")"


# ---------------------------------------------------------------------------
# Workload schedules
#
# Each schedule entry is a cell; request i of a run draws cell i mod len(cells)
# from its own random stream, so the mix is fixed and only the content varies.


def _formulas_cells() -> list[dict]:
    # per fragment 6 check cells of 11, so the median request is a check, and
    # 3 fh cells, so the 90th percentile falls well inside the fh requests
    cells = []
    for i, frag in enumerate(FRAGMENTS):
        for n in (1, 2, 3, 3, 4, 5):
            cells.append({"kind": "check", "fragment": frag, "states": n, "depth": 3})
        cells.append({"kind": "normalform", "fragment": frag, "states": 1 + i % 3, "depth": 2})
        cells.append({"kind": "charform", "fragment": frag, "states": 2 + i % 4, "height": 4, "min": 1, "cap": 10**9})
        for j in range(3):
            n = (1, 3, 5)[(i + j) % 3]
            cells.append({"kind": "fh", "fragment": frag, "states": n, "height": 3, "min": 16, "cap": 16})
    return cells


def _finite_cells() -> list[dict]:
    # (fragment, tree actions, height, model sizes); the largest trees get the
    # smallest models, so that no single pair dominates a run: a height-3
    # exists tree costs ~10 ms at 2 states, ~130 ms at 3 and up to ~650 ms at 5
    specs = [
        ("diamond,store", ["l"], 2, (2, 3, 4, 5)),
        ("diamond,store", ["l"], 3, (2, 3, 4, 5)),
        ("diamond,at,store", ["l"], 2, (2, 3, 4, 5)),
        ("diamond,at,store", ["l"], 3, (2, 3, 4, 5)),
        ("diamond,at,store,star", ["l", "l*"], 2, (2, 3, 4, 5)),
        ("diamond,at,store,star", ["l", "l*"], 3, (2, 3, 4)),
        ("diamond,store,exists", ["l"], 2, (2, 3, 4)),
        ("diamond,store,exists", ["l"], 3, (2,)),
    ]
    return [
        {"kind": "game", "fragment": frag, "actions": acts, "height": h, "states": n, "shape": shape}
        for frag, acts, h, sizes in specs
        for n in sizes
        for shape in ("identical", "perturbed")
    ]


def _countable_cells() -> list[dict]:
    # Sizes bound the cost of a single pair and keep the spread of costs
    # narrow enough for steady percentiles: a diamond,store,exists pair at 5
    # states takes milliseconds to seconds, and a two-relation
    # union,comp,star pair at 3 states milliseconds to minutes.
    sizes = {
        "diamond": (5, 6),
        "diamond,union,comp,star": (3,),
        "diamond,at": (5, 6, 7),
        "diamond,store": (4, 5),
        "diamond,at,store": (4, 5),
        "diamond,store,exists": (3,),
        "diamond,at,store,exists": (3, 4),
    }
    cells = [
        {"kind": "omega", "fragment": frag, "states": n, "shape": shape, "relations": ["l"]}
        for frag in FRAGMENTS
        for n in sizes[frag]
        for shape in ("identical", "perturbed", "renamed", "independent")
    ]
    # two relations make the action-pair closure grow; perturbed and
    # independent pairs have the heavy-tailed closures, so they stay out
    for shape in ("identical", "renamed"):
        cells.append({"kind": "omega", "fragment": "diamond,union,comp,star", "states": 2, "shape": shape, "relations": ["l", "r"]})
    return cells


def _backforth_cells() -> list[dict]:
    # 7-state pairs (40-330 ms each) would be only a few per pass and set
    # the whole run's time, so pairs stay at 4-6 states
    cells = []
    for frag, sizes in (
        ("store", (4, 5, 6)),
        ("diamond,store", (4, 5, 6)),
        ("diamond,at,store", (4, 5, 6)),
        ("diamond,at,store,exists", (4, 5)),
    ):
        for n in sizes:
            for shape in ("identical", "perturbed", "renamed", "independent"):
                cells.append({"kind": "bf", "fragment": frag, "states": n, "shape": shape})
    return cells


CELLS = {
    "formulas": _formulas_cells,
    "finite-games": _finite_cells,
    "countable": _countable_cells,
    "backforth": _backforth_cells,
}

# Distinct requests per run, whole multiples of STRATA cycles of each
# schedule, sized so one pass takes 2-4 s on the 2-core x86 VM the benchmark
# was defined on (up to twice that when the host is busy); a run makes at
# least four passes.
POOL_SIZE = {"formulas": 77 * 32, "finite-games": 54 * 16, "countable": 54 * 48, "backforth": 44 * 16}


def _request(rng: random.Random, cell: dict, stratum: int) -> dict:
    kind, frag, n = cell["kind"], cell["fragment"], cell["states"]
    req = {"kind": kind, "fragment": frag}
    if kind in ("check", "normalform", "charform", "fh"):
        # fh trees need 16 game sentences, which a leaf over three basics
        # (8 sign patterns) cannot reach without a binder
        sig = _signature(stratum, props=("p",) if kind == "fh" else None)
        m = random_model(rng, sig, n, _density(rng, stratum, 0.15, 0.7), rng.uniform(0.2, 0.8))
        req.update(model=m, state=rng.choice(m["states"]), states=[n])
        if kind in ("check", "normalform"):
            req["formula"] = random_sentence(rng, sig, frag, cell["depth"])
            if kind == "normalform":
                req["sig"] = sig
        else:
            req["tree"], req["height"], req["theta"] = random_tree(rng, sig, frag, cell["height"], cell["min"], cell["cap"])
        return req
    if kind == "game":
        sig = _signature(stratum)
        left, w, right, v = model_pair(rng, sig, cell["shape"], n, _density(rng, stratum, 0.2, 0.6))
        req.update(
            left=left, left_state=w, right=right, right_state=v, states=[n, n], shape=cell["shape"],
            height=cell["height"], tree=complete_tree_text(sig, frag, cell["height"], cell["actions"]),
        )
        return req
    if kind == "omega":
        sig = _signature(stratum, relations=cell["relations"])
        left, w, right, v = model_pair(rng, sig, cell["shape"], n, _density(rng, stratum, 0.15, 0.6))
        req.update(left=left, left_state=w, right=right, right_state=v, states=[n, n], shape=cell["shape"])
        return req
    if kind == "bf":
        # one prop and no nominal: few valuation classes, so many partial maps agree
        sig = _signature(stratum, nominal=False, props=("p",))
        left, w, right, v = model_pair(rng, sig, cell["shape"], n, _density(rng, stratum, 0.15, 0.5), n // 3)
        req.update(left=left, left_state=w, right=right, right_state=v, states=[n, n], shape=cell["shape"])
        return req
    raise ValueError(f"unknown request kind {kind!r}")


def generate(workload: str, seed: int) -> list[dict]:
    """The run's distinct requests, in schedule order."""
    if workload not in CELLS:
        raise ValueError(f"unknown workload {workload!r}")
    cells = CELLS[workload]()
    return [
        _request(_rng(seed, workload, i), cells[i % len(cells)], i // len(cells) % STRATA)
        for i in range(POOL_SIZE[workload])
    ]


def digest(requests: list[dict]) -> str:
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()
