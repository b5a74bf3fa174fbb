"""Finite Kripke structures: construction, action interpretation, expansion,
isomorphism search, reachability, random generation, JSON I/O."""

from __future__ import annotations

import json
import random
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .syntax import (
    Action,
    Comp,
    HdplError,
    Rel,
    Signature,
    Star,
    UndeclaredSymbolError,
    Union,
    extend_signature_with,
)

StatePair = tuple[str, str]


class ModelError(HdplError):
    pass


@dataclass(frozen=True, eq=True)
class KripkeModel:
    """A finite first-order frame plus a per-state propositional valuation.

    Values are immutable after construction; treat the mapping fields as
    read-only.
    """

    sig: Signature
    states: tuple[str, ...]
    nominal_interp: dict[str, str]
    relation_interp: dict[str, frozenset[StatePair]]
    valuation: dict[str, frozenset[str]]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ModelError("a model needs at least one state")
        if len(set(states)) != len(states):
            raise ModelError("duplicate state names")
        object.__setattr__(self, "states", states)
        state_set = set(states)
        interp = dict(self.nominal_interp)
        for name in self.sig.point_names():
            if name not in interp:
                raise ModelError(f"nominal interpretation missing for '{name}'")
            if interp[name] not in state_set:
                raise ModelError(f"nominal '{name}' names unknown state '{interp[name]}'")
        extra = set(interp) - set(self.sig.point_names())
        if extra:
            raise ModelError(f"interpretation for undeclared names: {sorted(extra)}")
        object.__setattr__(self, "nominal_interp", interp)
        rels = {}
        for rel in self.sig.relations:
            pairs = frozenset(self.relation_interp.get(rel, frozenset()))
            for w, v in pairs:
                if w not in state_set or v not in state_set:
                    raise ModelError(f"relation '{rel}' uses unknown state in {(w, v)}")
            rels[rel] = pairs
        extra = set(self.relation_interp) - set(self.sig.relations)
        if extra:
            raise ModelError(f"interpretation for undeclared relations: {sorted(extra)}")
        object.__setattr__(self, "relation_interp", rels)
        val = {}
        prop_set = set(self.sig.props)
        for w in states:
            props = frozenset(self.valuation.get(w, frozenset()))
            if not props <= prop_set:
                raise ModelError(f"state '{w}' carries undeclared props {sorted(props - prop_set)}")
            val[w] = props
        extra = set(self.valuation) - state_set
        if extra:
            raise ModelError(f"valuation for unknown states: {sorted(extra)}")
        object.__setattr__(self, "valuation", val)

    def __hash__(self):  # pragma: no cover - models are not meant to be hashed
        raise TypeError("KripkeModel is not hashable; key on states instead")

    @cached_property
    def succ(self) -> "Successors":
        """The successor maps of this model's actions, built on first use. They
        reach the model through a weak proxy, so the two form no cycle."""
        return Successors(weakref.proxy(self))

    @cached_property
    def sat_cache(self) -> tuple[dict, dict]:
        """The memo and checked terms all `satisfies` calls on this model share.
        It lives as long as the model, so a long-lived caller bounds it by
        building a fresh model."""
        return {}, {}

    @cached_property
    def profiles(self) -> dict[str, tuple]:
        """Each state's basic profile: its propositions, and the signature's
        nominals and variables that name it, in signature order. Two states
        satisfy the same basic sentences iff their profiles are equal."""
        names: dict[str, tuple] = {}
        for x in self.sig.point_names():
            w = self.nominal_interp[x]
            names[w] = names.get(w, ()) + (x,)
        return {w: (self.valuation[w], names.get(w, ())) for w in self.states}


@dataclass(frozen=True, eq=True)
class PointedModel:
    model: KripkeModel
    current: str

    def __post_init__(self):
        if self.current not in self.model.states:
            raise ModelError(f"current state '{self.current}' not in model")

    def __hash__(self):  # pragma: no cover
        raise TypeError("PointedModel is not hashable")


# ---------------------------------------------------------------------------
# Action interpretation


def star_pairs(pairs: frozenset[StatePair], states: tuple[str, ...]) -> frozenset[StatePair]:
    """Reflexive-transitive closure, by iterated squaring over the finite pair set."""
    closure = set(pairs)
    closure.update((w, w) for w in states)
    while True:
        by_src: dict[str, list[str]] = {}
        for a, b in closure:
            by_src.setdefault(a, []).append(b)
        new = set(closure)
        for a, b in closure:
            for c in by_src.get(b, ()):
                new.add((a, c))
        if new == closure:
            return frozenset(closure)
        closure = new


def comp_pairs(left: frozenset[StatePair], right: frozenset[StatePair]) -> frozenset[StatePair]:
    """Relational composition: left, then right."""
    by_src: dict[str, list[str]] = {}
    for b, c in right:
        by_src.setdefault(b, []).append(c)
    return frozenset((w, c) for w, b in left for c in by_src.get(b, ()))


def interpret_action(m: KripkeModel, a: Action) -> frozenset[StatePair]:
    """The accessibility relation an action denotes in a model."""
    if isinstance(a, Rel):
        if a.name not in m.relation_interp:
            raise UndeclaredSymbolError(a.name)
        return m.relation_interp[a.name]
    if isinstance(a, Union):
        return interpret_action(m, a.left) | interpret_action(m, a.right)
    if isinstance(a, Comp):
        return comp_pairs(interpret_action(m, a.left), interpret_action(m, a.right))
    if isinstance(a, Star):
        return star_pairs(interpret_action(m, a.body), m.states)
    raise TypeError(f"not an action: {a!r}")


def successor_map(pairs: frozenset[StatePair], states: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """Each state's successors in model order, from the pairs grouped by target."""
    by_dst: dict[str, list[str]] = {w: [] for w in states}
    for a, b in pairs:
        by_dst[b].append(a)
    by_src: dict[str, list[str]] = {w: [] for w in states}
    for b in states:
        for a in by_dst[b]:
            by_src[a].append(b)
    return {w: tuple(vs) for w, vs in by_src.items()}


class Successors(dict):
    """The successor map of each action in one model, built on first use."""

    def __init__(self, m: KripkeModel):
        super().__init__()
        self.model = m

    def __missing__(self, action: Action) -> dict[str, tuple[str, ...]]:
        got = self[action] = successor_map(interpret_action(self.model, action), self.model.states)
        return got


# ---------------------------------------------------------------------------
# Expansion


def expand(m: KripkeModel, x: str, w: str) -> KripkeModel:
    """The unique expansion interpreting a fresh variable `x` as state `w`."""
    if w not in m.states:
        raise ModelError(f"witness state '{w}' not in model")
    new_sig = extend_signature_with(m.sig, x)  # raises on stale/colliding names
    interp = dict(m.nominal_interp)
    interp[x] = w
    return KripkeModel(new_sig, m.states, interp, m.relation_interp, m.valuation)


# ---------------------------------------------------------------------------
# Isomorphism search


def verify_isomorphism(pm: PointedModel, pn: PointedModel, h: dict[str, str]) -> bool:
    """Re-check every preservation clause of a candidate isomorphism."""
    m, n = pm.model, pn.model
    if set(h) != set(m.states) or set(h.values()) != set(n.states):
        return False
    if len(set(h.values())) != len(h):
        return False
    if h[pm.current] != pn.current:
        return False
    for name in m.sig.point_names():
        if h[m.nominal_interp[name]] != n.nominal_interp[name]:
            return False
    for w in m.states:
        if m.valuation[w] != n.valuation[h[w]]:
            return False
    for rel in m.sig.relations:
        mapped = frozenset((h[a], h[b]) for a, b in m.relation_interp[rel])
        if mapped != n.relation_interp[rel]:
            return False
    return True


def find_isomorphism(pm: PointedModel, pn: PointedModel) -> dict[str, str] | None:
    """Backtracking search for a point-preserving isomorphism, with valuation
    and degree pruning. Returns the state bijection, or None."""
    m, n = pm.model, pn.model
    if m.sig != n.sig:
        raise ModelError("isomorphism search needs a shared signature")
    if len(m.states) != len(n.states):
        return None

    def tables(model: KripkeModel) -> tuple[dict, dict]:
        """Each state's successors and predecessors under each relation in
        turn, side `s ^ 1` the converse of side `s`; and its profile."""
        adj = {w: [set() for _ in range(2 * len(model.sig.relations))] for w in model.states}
        for i, r in enumerate(model.sig.relations):
            for a, b in model.relation_interp[r]:
                adj[a][2 * i].add(b)
                adj[b][2 * i + 1].add(a)
        names = model.sig.point_names()
        noms = {w: tuple(x for x in names if model.nominal_interp[x] == w) for w in model.states}
        return adj, {w: (model.valuation[w], noms[w], tuple(map(len, adj[w]))) for w in model.states}

    (adj_m, prof_m), (adj_n, prof_n) = tables(m), tables(n)
    if Counter(prof_m.values()) != Counter(prof_n.values()):
        return None

    order = [pm.current] + [w for w in m.states if w != pm.current]
    index_n = {v: i for i, v in enumerate(n.states)}
    h, back = {}, {}  # each level's current choice, and its inverse

    def consistent(w: str, v: str) -> bool:
        """Whether `w` -> `v` keeps every edge between `w` and a mapped state,
        read from the mapped neighbours of `w` and of `v`."""
        return prof_m[w] == prof_n[v] and all(
            (w in a) == (v in b) and all(h[x] in b for x in a if x in h) and all(back[y] in a for y in b if y in back)
            for a, b in zip(adj_m[w], adj_n[v])
        )

    def candidates(k: int):
        """The unused states of `n`, in its order, for `order[k]`, drawn once
        the levels above are mapped: with a mapped neighbour, only states
        next to its image can be consistent."""
        near = next(((x, s) for s, side in enumerate(adj_m[order[k]]) for x in side if x in h), None)
        pool = n.states if near is None else sorted(adj_n[h[near[0]]][near[1] ^ 1], key=index_n.__getitem__)
        yield from (v for v in pool if v not in back)

    # backtracking on an explicit stack: per level of `order`, an iterator over
    # the candidates it has not tried yet
    stack = [iter([pn.current])]
    while stack and len(h) < len(order):
        w = order[len(stack) - 1]
        back.pop(h.pop(w, None), None)  # back from a deeper level that failed: undo this level's choice
        v = next((v for v in stack[-1] if consistent(w, v)), None)
        if v is None:
            stack.pop()
        else:
            h[w], back[v] = v, w
            stack.append(candidates(len(stack)))
    result = h if stack else None
    if result is not None and not verify_isomorphism(pm, pn, result):
        raise ModelError("internal error: isomorphism failed re-verification")
    return result


# ---------------------------------------------------------------------------
# Reachability


def is_rooted(pm: PointedModel) -> bool:
    """True iff every state is reachable from the current state through the
    union of all relations."""
    m = pm.model
    succs = [m.succ[Rel(r)] for r in m.sig.relations]
    seen = {pm.current}
    frontier = [pm.current]
    while frontier:
        w = frontier.pop()
        for succ in succs:
            for v in succ[w]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return len(seen) == len(m.states)


# ---------------------------------------------------------------------------
# Random generation


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def generate_random_model(seed, n_states: int, edge_density: float, sig: Signature) -> KripkeModel:
    """Deterministic-in-seed random model: nominals placed uniformly, each
    edge and each prop included independently with the given density."""
    if n_states < 1:
        raise ModelError("n_states must be >= 1")
    rng = _rng(seed)
    states = tuple(f"s{i}" for i in range(n_states))
    interp = {name: rng.choice(states) for name in sig.point_names()}
    rels = {
        r: frozenset((a, b) for a in states for b in states if rng.random() < edge_density)
        for r in sig.relations
    }
    val = {
        w: frozenset(p for p in sig.props if rng.random() < edge_density)
        for w in states
    }
    return KripkeModel(sig, states, interp, rels, val)


# ---------------------------------------------------------------------------
# JSON I/O


def _array(x, what: str, name: str | None = None) -> list:
    """`x`, which must be a JSON array; `what` and `name` say where it sits."""
    if not isinstance(x, list):
        where = what if name is None else f"{what} '{name}'"
        raise ModelError(f"{where} must be an array, not {x!r}")
    return x


def model_from_dict(d: dict) -> KripkeModel:
    """Build a model from its JSON form; ModelError if the input lacks that
    form. The states, each relation's pair list, each pair and each prop's
    holders must be arrays, every state name a string and every holder a
    state of the model."""
    try:
        sig = Signature(
            nominals=tuple(d.get("nominals", {})),
            relations=tuple(d.get("relations", {})),
            props=tuple(d.get("props", {})),
        )
        states = tuple(_array(d["states"], "states"))
        if not set(map(type, states)) <= {str}:
            raise ModelError(f"state names must be strings: {list(states)!r}")
        rels = {}
        for r, pairs in d.get("relations", {}).items():
            if not set(map(type, _array(pairs, "relation", r))) <= {list}:
                raise ModelError(f"each pair of relation '{r}' must be an array of two states")
            rels[r] = frozenset(map(tuple, pairs))  # KripkeModel rejects a pair of another length
        val: dict[str, list[str]] = {w: [] for w in states}
        for p, holders in d.get("props", {}).items():
            for w in _array(holders, "prop", p):
                if w not in val:
                    raise ModelError(f"prop '{p}' holds at a state that is not in the model")
                val[w].append(p)
        return KripkeModel(sig, states, dict(d.get("nominals", {})), rels, val)
    except KeyError as exc:
        raise ModelError(f"model has no {exc} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model: {exc}") from None


def model_to_dict(m: KripkeModel) -> dict:
    return {
        "states": list(m.states),
        "nominals": {k: m.nominal_interp[k] for k in m.sig.nominals},
        "relations": {r: sorted([a, b] for a, b in m.relation_interp[r]) for r in m.sig.relations},
        "props": {p: sorted(w for w in m.states if p in m.valuation[w]) for p in m.sig.props},
    }


def load_model(path: str | Path) -> KripkeModel:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise ModelError(f"{path} is not valid JSON: {exc}") from None
    return model_from_dict(d)


def load_pointed(ref: str) -> PointedModel:
    """Resolve a `path.json:stateName` reference to a pointed model."""
    path, sep, state = ref.rpartition(":")
    if not sep or not path:
        raise ModelError(f"pointed reference '{ref}' is not of the form path.json:state")
    m = load_model(path)
    if state not in m.states:
        raise ModelError(f"state '{state}' not in model {path}")
    return PointedModel(m, state)
