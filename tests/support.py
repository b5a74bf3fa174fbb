"""Helpers the tests share that the library itself never calls: symbol
renamings of sentences and models, canonical binder names, the reduct of an
expansion, random sentences, actions and rooted models, occurrence counts
and pruning of gameboard trees, a memo-free minimax over the finite game's
moves, and readings of the omega module's families by state names."""

import random

from hdpl.gameboard import GameboardTree, leaf
from hdpl.games import GameState, game_step, legal_moves
from hdpl.kripke import KripkeModel, ModelError, PointedModel, generate_random_model, is_rooted
from hdpl.omega import BackAndForthSystem, LBisimFamily
from hdpl.syntax import (
    Action,
    And,
    At,
    Comp,
    Dia,
    Exists,
    FragmentConfig,
    Neg,
    Nom,
    Prop,
    Rel,
    Sentence,
    Signature,
    SignatureError,
    Star,
    Store,
    Union,
    box,
    conj,
    disj,
    extend_signature,
    forall,
)


# ---------------------------------------------------------------------------
# Renaming (signature morphisms restricted to bijective symbol renamings)


def rename_action(a: Action, mapping: dict[str, str]) -> Action:
    if isinstance(a, Rel):
        return Rel(mapping.get(a.name, a.name))
    if isinstance(a, Union):
        return Union(rename_action(a.left, mapping), rename_action(a.right, mapping))
    if isinstance(a, Comp):
        return Comp(rename_action(a.left, mapping), rename_action(a.right, mapping))
    if isinstance(a, Star):
        return Star(rename_action(a.body, mapping))
    raise TypeError(f"not an action: {a!r}")


def rename_sentence(s: Sentence, mapping: dict[str, str]) -> Sentence:
    """Apply a symbol renaming to every declared symbol (variables are kept)."""
    if isinstance(s, Prop):
        return Prop(mapping.get(s.name, s.name))
    if isinstance(s, Nom):
        return Nom(mapping.get(s.name, s.name))
    if isinstance(s, And):
        return conj([rename_sentence(i, mapping) for i in s.items])
    if isinstance(s, Neg):
        return Neg(rename_sentence(s.body, mapping))
    if isinstance(s, Dia):
        return Dia(rename_action(s.action, mapping), rename_sentence(s.body, mapping))
    if isinstance(s, At):
        return At(mapping.get(s.name, s.name), rename_sentence(s.body, mapping))
    if isinstance(s, Store):
        return Store(s.var, rename_sentence(s.body, mapping))
    if isinstance(s, Exists):
        return Exists(s.var, rename_sentence(s.body, mapping))
    raise TypeError(f"not a sentence: {s!r}")


def reduct_renaming(m: KripkeModel, source_sig: Signature, mapping: dict[str, str]) -> KripkeModel:
    """Reduct of `m` along a bijective symbol renaming from `source_sig` into
    the symbols of `m.sig`."""
    interp = {k: m.nominal_interp[mapping[k]] for k in source_sig.point_names()}
    rels = {r: m.relation_interp[mapping[r]] for r in source_sig.relations}
    inverse_props = {mapping[p]: p for p in source_sig.props}
    val = {
        w: frozenset(inverse_props[p] for p in props if p in inverse_props)
        for w, props in m.valuation.items()
    }
    return KripkeModel(source_sig, m.states, interp, rels, val)


def canonical_vars(s: Sentence, sig: Signature) -> Sentence:
    """Alpha-rename binder variables to the canonical depth-indexed names the
    signature-extension scheme produces."""

    def walk(t: Sentence, scope: Signature, env: dict[str, str]) -> Sentence:
        if isinstance(t, Prop):
            return t
        if isinstance(t, Nom):
            return Nom(env.get(t.name, t.name))
        if isinstance(t, And):
            return And(tuple(walk(i, scope, env) for i in t.items))
        if isinstance(t, Neg):
            return Neg(walk(t.body, scope, env))
        if isinstance(t, Dia):
            return Dia(t.action, walk(t.body, scope, env))
        if isinstance(t, At):
            return At(env.get(t.name, t.name), walk(t.body, scope, env))
        if isinstance(t, (Store, Exists)):
            inner_scope, fresh = extend_signature(scope)
            return type(t)(fresh, walk(t.body, inner_scope, {**env, t.var: fresh}))
        raise TypeError(f"not a sentence: {t!r}")

    return walk(s, sig, {})


def reduct(m: KripkeModel) -> KripkeModel:
    """Drop the most recently added bound variable (inverse of expand)."""
    if not m.sig.bound_vars:
        raise SignatureError("model signature has no bound variables to drop")
    last = m.sig.bound_vars[-1]
    sig = Signature(m.sig.nominals, m.sig.relations, m.sig.props, m.sig.bound_vars[:-1])
    interp = {k: v for k, v in m.nominal_interp.items() if k != last}
    return KripkeModel(sig, m.states, interp, m.relation_interp, m.valuation)


# ---------------------------------------------------------------------------
# Random sentences, actions and rooted models


def random_action(rng: random.Random, sig: Signature, frag: FragmentConfig, depth: int = 2) -> Action:
    choices = ["rel"]
    if depth > 0:
        choices += [c for c in ("union", "comp", "star") if c in frag.action_ctors]
    kind = rng.choice(choices)
    if kind == "rel" or not sig.relations:
        return Rel(rng.choice(sig.relations))
    if kind == "union":
        return Union(random_action(rng, sig, frag, depth - 1), random_action(rng, sig, frag, depth - 1))
    if kind == "comp":
        return Comp(random_action(rng, sig, frag, depth - 1), random_action(rng, sig, frag, depth - 1))
    return Star(random_action(rng, sig, frag, depth - 1))


def random_sentence(rng: random.Random, sig: Signature, frag: FragmentConfig, depth: int = 3) -> Sentence:
    atoms: list[Sentence] = [Prop(p) for p in sig.props]
    atoms += [Nom(n) for n in sig.point_names()]
    atoms += [And(()), Neg(And(()))]
    if depth <= 0:
        return rng.choice(atoms)
    kinds = ["atom", "neg", "and", "or"]
    if "diamond" in frag.ops and sig.relations:
        kinds += ["dia", "box"]
    if "at" in frag.ops and sig.point_names():
        kinds.append("at")
    if "store" in frag.ops:
        kinds.append("store")
    if "exists" in frag.ops:
        kinds += ["exists", "forall"]
    kind = rng.choice(kinds)
    if kind == "atom":
        return rng.choice(atoms)
    if kind == "neg":
        return Neg(random_sentence(rng, sig, frag, depth - 1))
    if kind == "and":
        return conj([random_sentence(rng, sig, frag, depth - 1) for _ in range(rng.randint(2, 3))])
    if kind == "or":
        return disj([random_sentence(rng, sig, frag, depth - 1) for _ in range(rng.randint(2, 3))])
    if kind == "dia":
        return Dia(random_action(rng, sig, frag), random_sentence(rng, sig, frag, depth - 1))
    if kind == "box":
        return box(random_action(rng, sig, frag), random_sentence(rng, sig, frag, depth - 1))
    if kind == "at":
        return At(rng.choice(sig.point_names()), random_sentence(rng, sig, frag, depth - 1))
    inner, var = extend_signature(sig)
    body = random_sentence(rng, inner, frag, depth - 1)
    if kind == "store":
        return Store(var, body)
    if kind == "exists":
        return Exists(var, body)
    return forall(var, body)


def generate_random_rooted_model(seed, n_states: int, edge_density: float, sig: Signature) -> KripkeModel:
    """Random model guaranteed rooted at its first state: a random spanning
    arborescence plus density edges."""
    if not sig.relations:
        raise ModelError("a rooted model needs at least one relation")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    m = generate_random_model(rng, n_states, edge_density, sig)
    states = m.states
    rels = {r: set(pairs) for r, pairs in m.relation_interp.items()}
    for i in range(1, n_states):
        parent = states[rng.randrange(i)]
        rel = rng.choice(sig.relations)
        rels[rel].add((parent, states[i]))
    rooted = KripkeModel(sig, states, m.nominal_interp, {r: frozenset(p) for r, p in rels.items()}, m.valuation)
    assert is_rooted(PointedModel(rooted, states[0]))
    return rooted


# ---------------------------------------------------------------------------
# Gameboard trees, counted per occurrence (exponential on shared trees)


def tree_height(tr: GameboardTree) -> int:
    if not tr.children:
        return 0
    return 1 + max(tree_height(child) for _, child in tr.children)


def count_nodes(tr: GameboardTree) -> int:
    return 1 + sum(count_nodes(child) for _, child in tr.children)


def prune_to_height(tr: GameboardTree, height: int) -> GameboardTree:
    """The tree cut off at `height`, rebuilt node by node."""
    if height <= 0:
        return leaf(tr.sig)
    return GameboardTree(
        tr.sig,
        tuple((label, prune_to_height(child, height - 1)) for label, child in tr.children),
    )


def game_loss_depth(gs: GameState) -> int | None:
    """The fewest rounds in which the challenger forces a loss from `gs`, a
    state with no open round, or None when the survivor answers every line:
    a plain minimax over `legal_moves` and `game_step`, with no memo, so it
    keys nothing by tree node (exponential in the tree height)."""
    if gs.lost:
        return 0
    best = None
    for move in legal_moves(gs, "abelard"):
        after = game_step(gs, move)
        answers = [game_step(after, a) for a in legal_moves(after, "eloise")] if after.pending else [after]
        deepest = 0
        for answer in answers:
            depth = game_loss_depth(answer)
            if depth is None:
                break  # this answer survives: the option is refuted
            deepest = max(deepest, depth)
        else:
            best = 1 + deepest if best is None else min(best, 1 + deepest)
    return best


# ---------------------------------------------------------------------------
# Families by state names


def bf_maps(system: BackAndForthSystem) -> frozenset[frozenset[tuple[str, str]]]:
    """The maps of a back-and-forth system as sets of state pairs: bit
    i*|right| + u of a code sends left state i to right state u."""
    width = len(system.right)
    bits = range(len(system.left) * width)
    return frozenset(
        frozenset((system.left[c // width], system.right[c % width]) for c in bits if code >> c & 1)
        for code in system.codes
    )


def family_relates(fam: LBisimFamily, w: str, v: str) -> bool:
    """Whether the level-0 entries of a bisimulation family relate w and v."""
    return (((), w), ((), v)) in fam.entries(0)
