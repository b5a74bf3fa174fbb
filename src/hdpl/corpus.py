"""Seeded random generators for differential suites: gameboard trees with
bounded game-sentence counts and model pairs, plus the catalog of language
fragments the suites cycle through."""

from __future__ import annotations

import random

from .gameboard import Edge, GameboardTree, child_signature, leaf
from .games import predicted_theta_size
from .kripke import KripkeModel, generate_random_model
from .syntax import Action, Comp, FragmentConfig, Rel, Signature, Star, Union

FRAGMENTS: list[FragmentConfig] = [
    FragmentConfig(frozenset({"diamond"}), frozenset()),
    FragmentConfig(frozenset({"diamond"}), frozenset({"union", "comp", "star"})),
    FragmentConfig(frozenset({"diamond", "at"}), frozenset()),
    FragmentConfig(frozenset({"diamond", "store"}), frozenset()),
    FragmentConfig(frozenset({"diamond", "at", "store"}), frozenset()),
    FragmentConfig(frozenset({"diamond", "store", "exists"}), frozenset()),
    FragmentConfig(frozenset({"diamond", "at", "store", "exists"}), frozenset()),
]


def default_actions(frag: FragmentConfig) -> tuple[Action, ...]:
    """Edge actions for generated trees: the base relation plus one composite
    per enabled constructor."""
    actions: list[Action] = [Rel("l")]
    if "star" in frag.action_ctors:
        actions.append(Star(Rel("l")))
    if "comp" in frag.action_ctors:
        actions.append(Comp(Rel("l"), Rel("l")))
    if "union" in frag.action_ctors:
        actions.append(Union(Rel("l"), Star(Rel("l")) if "star" in frag.action_ctors else Rel("l")))
    return tuple(actions)


def random_tree(
    rng: random.Random,
    sig: Signature,
    frag: FragmentConfig,
    actions: tuple[Action, ...],
    max_height: int = 3,
    theta_cap: int = 512,
) -> GameboardTree:
    """A random valid tree whose predicted game-sentence count stays within
    the cap; shrinks the height on repeated failures, a leaf after 40 draws."""

    def build(scope: Signature, height: int) -> GameboardTree:
        if height == 0 or rng.random() < 0.3:
            return leaf(scope)
        children = []
        n_children = rng.randint(1, 2)
        for _ in range(n_children):
            kinds = ["idle"]
            if "diamond" in frag.ops and actions:
                kinds.append("dia")
            if "at" in frag.ops and scope.point_names():
                kinds.append("at")
            if "store" in frag.ops:
                kinds.append("down")
            if "exists" in frag.ops:
                kinds.append("exists")
            kind = rng.choice(kinds)
            arg = rng.choice(actions) if kind == "dia" else rng.choice(scope.point_names()) if kind == "at" else None
            label = Edge(kind, arg)
            if kind != "idle" and any(lab == label for lab, _ in children):
                continue
            edge = (label, build(child_signature(scope, kind), height - 1))
            if edge in children:  # a repeated idle edge
                continue
            children.append(edge)
        if not children:
            return leaf(scope)
        return GameboardTree(scope, tuple(children))

    height = max_height
    for i in range(40):
        tr = build(sig, height)
        if predicted_theta_size(tr, theta_cap) <= theta_cap:
            return tr
        if i % 5 == 4 and height > 1:
            height -= 1
    return leaf(sig)


def observing_tree(tr: GameboardTree) -> GameboardTree:
    """Close a tree so every node can watch the basic-sentence property: each
    internal node gains an idle path to a leaf. On such trees (complete trees
    among them) a game win coincides with game-sentence equality; trees that
    hide the current state's signs behind modal edges make the game strictly
    stronger than game-sentence equality."""
    if not tr.children:
        return tr
    children = [(lab, observing_tree(ch)) for lab, ch in tr.children]
    if not any(lab.kind == "idle" for lab, _ in children):
        children.insert(0, (Edge("idle"), leaf(tr.sig)))
    return GameboardTree(tr.sig, tuple(children))


def small_signature(rng: random.Random, with_nominal: bool | None = None) -> Signature:
    n_props = rng.randint(1, 2)
    nominal = rng.random() < 0.4 if with_nominal is None else with_nominal
    return Signature(
        nominals=("k",) if nominal else (),
        relations=("l",),
        props=tuple(f"p{i}" if i else "p" for i in range(n_props)),
    )


def random_model_pair(
    rng: random.Random,
    sig: Signature,
    max_states: int = 4,
) -> tuple[KripkeModel, KripkeModel]:
    """Two random models over a shared signature: one object (25%), two draws
    (35%) or a perturbed copy, so equivalence verdicts are well mixed."""
    n = rng.randint(1, max_states)
    density = rng.uniform(0.15, 0.7)
    m = generate_random_model(rng.randrange(2**30), n, density, sig)
    roll = rng.random()
    if roll < 0.25:
        return m, m
    if roll < 0.6:
        n2 = rng.randint(1, max_states)
        return m, generate_random_model(rng.randrange(2**30), n2, rng.uniform(0.15, 0.7), sig)
    # perturbed copy: flip one edge or one prop
    rels = {r: set(pairs) for r, pairs in m.relation_interp.items()}
    val = {w: set(ps) for w, ps in m.valuation.items()}
    if rng.random() < 0.5 and sig.relations:
        r = rng.choice(sig.relations)
        a, b = rng.choice(m.states), rng.choice(m.states)
        rels[r] ^= {(a, b)}
    else:
        w = rng.choice(m.states)
        p = rng.choice(sig.props)
        val[w] ^= {p}
    other = KripkeModel(
        sig,
        m.states,
        dict(m.nominal_interp),
        {r: frozenset(p) for r, p in rels.items()},
        {w: frozenset(p) for w, p in val.items()},
    )
    return m, other
