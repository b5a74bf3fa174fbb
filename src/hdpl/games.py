"""Finite equivalence games on gameboard trees: the game-sentence language,
characteristic formulas, exhaustive game-sentence enumeration, the game
solver, interactive round stepping, and the disjunctive normal-form
translation of arbitrary sentences."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .checker import SignatureMismatchError, game_property
from .gameboard import KINDS, Edge, GameboardTree, edge_text, leaf
from .kripke import KripkeModel, PointedModel, Successors, expand, interpret_action
from .syntax import (
    And,
    At,
    Dia,
    Exists,
    FragmentConfig,
    FragmentViolationError,
    HdplError,
    Neg,
    Nom,
    Prop,
    Sentence,
    Signature,
    Store,
    basic_sentences,
    box,
    check_sentence,
    conj,
    disj,
    extend_signature,
    forall,
    print_action,
    print_sentence,
    validate_in_fragment,
)


class GameError(HdplError):
    pass


class CapExceededError(GameError):
    def __init__(self, predicted: int, cap: int):
        super().__init__(f"predicted game-sentence count {predicted} exceeds cap {cap}")
        self.predicted = predicted
        self.cap = cap


# ---------------------------------------------------------------------------
# Game sentences: structured canonical form


@dataclass(frozen=True)
class GSLeaf:
    signs: tuple[tuple[Sentence, bool], ...]  # total assignment on the basics


@dataclass(frozen=True)
class GSPart:
    """The conjunct for one child edge: its label, the variable a store or
    exists edge binds (else None), and a canonical member set, which holds
    exactly one member on at, store and idle edges."""

    edge: Edge
    var: str | None
    members: tuple["GameSentence", ...]


@dataclass(frozen=True)
class GSNode:
    parts: tuple[GSPart, ...]  # one per child edge, in tree child order


GameSentence = GSLeaf | GSNode


def _gs_split(g):
    if type(g) is GSLeaf:
        return (GSLeaf, g.signs), ()
    return ((GSPart, g.edge, g.var), g.members) if type(g) is GSPart else (GSNode, g.parts)


def _gs_eq(self, other) -> bool:
    """Structural equality, walked with a stack, each pair of objects once."""
    if type(other) is not type(self):
        return NotImplemented
    stack, seen = [(self, other)], set()
    while stack:
        a, b = stack.pop()
        if a is not b and (id(a), id(b)) not in seen:
            seen.add((id(a), id(b)))
            (fa, ka), (fb, kb) = _gs_split(a), _gs_split(b)
            if fa != fb or len(ka) != len(kb):
                return False
            stack += zip(ka, kb)
    return True


GSLeaf.__eq__ = GSPart.__eq__ = GSNode.__eq__ = _gs_eq  # the dataclass hashes stay


def gs_text(g) -> str:
    """Compact canonical rendering; doubles as the sort key for member sets."""
    cached = getattr(g, "_txt", None)
    if cached is not None:
        return cached
    if isinstance(g, GSLeaf):
        body = ",".join(("" if pos else "~") + print_sentence(b) for b, pos in g.signs)
        text = "{" + body + "}"
    elif isinstance(g, GSNode):
        text = "(" + " & ".join(gs_text(p) for p in g.parts) + ")"
    elif isinstance(g, GSPart):
        e = g.edge
        if e.kind == "dia":
            head = f"<{print_action(e.arg)}>"
        elif e.kind == "at":
            head = f"@{e.arg} "
        else:  # down x, exists x, idle
            head = edge_text(e) + (f" {g.var} " if g.var else " ")
        if _holds_a_set(e):
            text = head + "{" + ",".join(gs_text(m) for m in g.members) + "}"
        else:
            text = head + gs_text(g.members[0])
    else:
        raise TypeError(f"not a game sentence part: {g!r}")
    object.__setattr__(g, "_txt", text)
    return text


def _holds_a_set(label: Edge) -> bool:
    """Whether parts of this edge hold a member set: the survivor answers a
    dia or exists round by choosing a state."""
    return label.kind in ("dia", "exists")


def _bound_var(label: Edge, child: GameboardTree) -> str | None:
    """The variable a store or exists edge binds; None on the other edges."""
    return child.sig.bound_vars[-1] if KINDS[label.kind][1] else None


def gs_set(members) -> tuple["GameSentence", ...]:
    """Canonical member set: duplicate-free, sorted by the canonical text."""
    unique = {gs_text(m): m for m in members}
    return tuple(unique[k] for k in sorted(unique))


# ---------------------------------------------------------------------------
# Lowering a game sentence to an ordinary sentence


def lower_game_sentence(g: GameSentence | GSPart) -> Sentence:
    """The sentence a game sentence, or one of its parts, stands for; cached
    in `_low` as `gs_text` caches `_txt`, so a shared part is lowered once."""
    s = getattr(g, "_low", None)
    if s is None:
        if isinstance(g, GSLeaf):
            s = conj([b if pos else Neg(b) for b, pos in g.signs])
        elif isinstance(g, GSNode):
            s = conj([lower_game_sentence(p) for p in g.parts])
        elif isinstance(g, GSPart):
            s = _lower_part(g.edge, g.var, [lower_game_sentence(m) for m in g.members])
        else:
            raise TypeError(f"not a game sentence: {g!r}")
        object.__setattr__(g, "_low", s)
    return s


def _lower_part(e: Edge, var: str | None, lowered: list[Sentence]) -> Sentence:
    if e.kind == "dia":
        return conj([Dia(e.arg, s) for s in lowered] + [box(e.arg, disj(lowered))])
    if e.kind == "exists":
        return conj([Exists(var, s) for s in lowered] + [forall(var, disj(lowered))])
    if e.kind == "at":
        return At(e.arg, lowered[0])
    if e.kind == "down":
        return Store(var, lowered[0])
    return lowered[0]  # idle


# ---------------------------------------------------------------------------
# Characteristic formulas (the unique satisfied game sentence)


def _point(m: KripkeModel, node: GameboardTree, env: tuple[str, ...], name: str) -> str:
    """The state a name of `node.sig` denotes: the base model interprets the
    root signature (its bound variables too), `env` the variables bound by the
    store and exists edges above `node`, one state each, in order."""
    got = m.nominal_interp.get(name)
    if got is None:
        bound = node.sig.bound_vars
        got = env[len(env) - len(bound) + bound.index(name)]
    return got


def _moves(m: KripkeModel, succ: Successors, node: GameboardTree, label: Edge, w: str, env: tuple[str, ...]):
    """The configurations (picked state, state, environment) that one side,
    at state `w` of `m` under `env` at `node`, reaches in a round on `label`.
    The picked state is the one a dia or exists half-move names, else None;
    the other kinds reach exactly one configuration."""
    kind, arg = label
    if kind == "dia":
        return [(v, v, env) for v in succ[arg][w]]
    if kind == "exists":
        return [(v, w, env + (v,)) for v in m.states]
    if kind == "at":
        return [(None, _point(m, node, env, arg), env)]
    if kind == "down":
        return [(None, w, env + (w,))]
    return [(None, w, env)]  # idle


def _type_pass(m: KripkeModel, table: dict[tuple, int], memo: dict):
    """The type id of a configuration (node, state, environment; see
    `_point`) of `m`, memoised in `memo` per configuration. A type is the
    node, the state's basic profile, which environment states equal it, and
    per child edge the child's id, or on a dia or exists edge the set of
    child ids; `table` maps each type to its id, in order of first visit, so
    a type's children have smaller ids. By induction over the tree one id
    means one game sentence. The converse holds on observing trees only: a
    type also records the profile and equalities at internal nodes, where
    game sentences record none. The recursion takes one frame per level."""
    succ, states, profile = m.succ, m.states, m.profiles

    def tid(node: GameboardTree, w: str, env: tuple[str, ...]) -> int:
        key = (node, w, env)
        got = memo.get(key)
        if got is not None:
            return got
        entries = [node, profile[w], tuple([e == w for e in env])]
        for (kind, arg), child in node.children:
            if kind == "dia":
                ids = set()
                for v in succ[arg][w]:
                    ids.add(tid(child, v, env))
                entries.append(frozenset(ids))
            elif kind == "exists":
                ids = set()
                for v in states:
                    ids.add(tid(child, w, env + (v,)))
                entries.append(frozenset(ids))
            elif kind == "at":
                entries.append(tid(child, _point(m, node, env, arg), env))
            else:  # down or idle
                entries.append(tid(child, w, env + (w,) if kind == "down" else env))
        got = memo[key] = table.setdefault(tuple(entries), len(table))
        return got

    return tid


def char_formula(tr: GameboardTree, pm: PointedModel) -> GameSentence:
    """The unique game sentence over `tr` the pointed model satisfies: one
    type pass, then one game sentence per type in id order, each built from
    its children's, which come earlier."""
    m = pm.model
    if m.sig != tr.sig:
        raise SignatureMismatchError("model signature differs from tree root signature")
    table: dict[tuple, int] = {}
    root = _type_pass(m, table, {})(tr, pm.current, ())
    built: list[GameSentence] = []
    for node, (props, names), eq, *entries in table:
        if not node.children:
            bound = node.sig.bound_vars
            inner = dict(zip(bound[len(bound) - len(eq):], eq))  # the variables the tree binds
            built.append(GSLeaf(tuple(
                (b, inner.get(b.name, b.name in names) if isinstance(b, Nom) else b.name in props)
                for b in basic_sentences(node.sig)
            )))
            continue
        parts = []
        for (label, child), got in zip(node.children, entries):
            members = gs_set([built[i] for i in got]) if _holds_a_set(label) else (built[got],)
            parts.append(GSPart(label, _bound_var(label, child), members))
        built.append(GSNode(tuple(parts)))
    return built[root]


# ---------------------------------------------------------------------------
# Enumerating the full game-sentence set


def predicted_theta_size(tr: GameboardTree, clamp: int) -> int:
    """Closed-form size of the game-sentence set, clamped at `clamp + 1` so
    astronomically large counts stay cheap to compute."""

    def size(node: GameboardTree) -> int:
        if not node.children:
            return min(2 ** len(basic_sentences(node.sig)), clamp + 1)
        total = 1
        for label, child in node.children:
            inner = size(node=child)
            if _holds_a_set(label):
                factor = clamp + 1 if inner > 60 else min(2**inner, clamp + 1)
            else:
                factor = inner
            total = min(total * factor, clamp + 1)
        return total

    return size(tr)


def enumerate_game_sentences(tr: GameboardTree, size_cap: int) -> list[GameSentence]:
    """The exact game-sentence set as structured values, in canonical order.
    Raises CapExceededError when the predicted size exceeds the cap."""
    predicted = predicted_theta_size(tr, size_cap)
    if predicted > size_cap:
        raise CapExceededError(predicted, size_cap)

    def enum(node: GameboardTree) -> list[GameSentence]:
        if not node.children:
            basics = basic_sentences(node.sig)
            out: list[GameSentence] = []
            for bits in itertools.product((True, False), repeat=len(basics)):
                out.append(GSLeaf(tuple(zip(basics, bits))))
            return out
        component_choices: list[list[GSPart]] = []
        for label, child in node.children:
            theta, var = enum(child), _bound_var(label, child)
            if _holds_a_set(label):
                member_sets = [gs_set(sub) for r in range(len(theta) + 1) for sub in itertools.combinations(theta, r)]
            else:
                member_sets = [(g,) for g in theta]
            component_choices.append([GSPart(label, var, ms) for ms in member_sets])
        return [GSNode(parts) for parts in itertools.product(*component_choices)]

    return enum(tr)


# ---------------------------------------------------------------------------
# The game solver


@dataclass(frozen=True)
class TraceStep:
    edge_index: int
    edge: str
    side: str | None  # 'left' / 'right' for dia and exists rounds
    abelard: str | None
    eloise: str | None


@dataclass(frozen=True)
class EfResult:
    winner: str  # 'eloise' | 'abelard'
    trace: tuple[TraceStep, ...] | None = None
    loss_depth: int | None = None


def ef_solve(tr: GameboardTree, left: PointedModel, right: PointedModel) -> EfResult:
    """Decide the game on `tr`: the survivor player wins iff the basic-sentence
    property holds now and every challenger option on either model has a
    matching answer on the other.

    Each side's configurations get ids from one table of types (see
    `_type_pass`), and the survivor wins iff the two roots get one id. Else
    `rank` over type pairs gives the fewest rounds the challenger needs
    (`loss_depth`), and a walk from the root a replayable line: the
    challenger takes the first option of that rank, the survivor the first
    answer of greatest rank, so the line ends in a violation or in a round
    with no answer."""
    Lm, Rm = left.model, right.model
    if Lm.sig != tr.sig or Rm.sig != tr.sig:
        raise SignatureMismatchError("both models must share the tree root signature")
    table: dict[tuple, int] = {}
    Lmemo: dict = {}
    Rmemo = Lmemo if Lm == Rm else {}  # equal models give equal types
    a = _type_pass(Lm, table, Lmemo)(tr, left.current, ())
    b = _type_pass(Rm, table, Rmemo)(tr, right.current, ())
    if a == b:
        return EfResult("eloise")
    types, ranks = list(table), {}

    def rank(a: int, b: int) -> int:
        """The fewest rounds to a loss from distinct types `a` and `b` of
        one node."""
        key = (a, b) if a < b else (b, a)
        got = ranks.get(key)
        if got is not None:
            return got
        ta, tb = types[a], types[b]
        got = 0
        if ta[:3] == tb[:3]:  # the property holds, so some child entry differs
            depths = []
            for (label, _), A, B in zip(ta[0].children, ta[3:], tb[3:]):
                if A != B and not _holds_a_set(label):
                    depths.append(rank(A, B))
                elif A != B:
                    for X, Y in ((A, B), (B, A)):
                        for p in X - Y:  # an option on one side no answer matches
                            deepest = 0
                            for q in Y:
                                deepest = max(deepest, rank(p, q))
                            depths.append(deepest)
            got = 1 + min(depths)
        ranks[key] = got
        return got

    def step(node, Lc, Rc, depth: int):
        """The first option of rank `depth` at the position (node, left
        configuration, right configuration), with its first answer of
        greatest rank: the trace step and the position it leads to."""
        for i, (label, child) in enumerate(node.children):
            ls = [(p, Lmemo[child, w, e], (w, e)) for p, w, e in _moves(Lm, Lm.succ, node, label, *Lc)]
            rs = [(q, Rmemo[child, v, f], (v, f)) for q, v, f in _moves(Rm, Rm.succ, node, label, *Rc)]
            if _holds_a_set(label):
                options = [("left", x, rs) for x in ls] + [("right", y, ls) for y in rs]
            else:
                options = [(None, ls[0], rs)]
            for side, (target, t, c), answers in options:
                sub = [rank(t, u) for _, u, _ in answers if u != t]
                if len(sub) < len(answers) or 1 + max(sub, default=0) != depth:
                    continue  # some answer survives, or the option is slower
                # the line ends here if the survivor has no answer
                eloise, _, cfg = answers[sub.index(max(sub))] if sub else (None, None, None)
                pos = (child, cfg, c) if side == "right" else (child, c, cfg)
                return TraceStep(i, edge_text(label), side, target, eloise), pos
        raise AssertionError("no option realises the rank")

    depth = rank(a, b)
    trace, pos = [], (tr, (left.current, ()), (right.current, ()))
    for d in range(depth, 0, -1):
        s, pos = step(*pos, d)
        trace.append(s)
    return EfResult("abelard", tuple(trace), depth)


# ---------------------------------------------------------------------------
# Interactive round stepping


class IllegalMoveError(GameError):
    def __init__(self, message: str, legal):
        super().__init__(f"{message}; legal moves: {legal}")
        self.legal = legal


@dataclass(frozen=True)
class AbelardMove:
    edge_index: int
    side: str | None = None
    target: str | None = None


@dataclass(frozen=True)
class EloiseMove:
    target: str


@dataclass(frozen=True)
class GameState:
    tree: GameboardTree
    left: PointedModel
    right: PointedModel
    pending: AbelardMove | None = None  # the open half of a dia or exists round
    lost: bool = False  # property violated after a completed round


def start_game(tr: GameboardTree, left: PointedModel, right: PointedModel) -> GameState:
    if left.model.sig != tr.sig or right.model.sig != tr.sig:
        raise SignatureMismatchError("both models must share the tree root signature")
    return GameState(tr, left, right, lost=not game_property(left, right))


def _choices(label, pm: PointedModel) -> list[str]:
    """The states a dia or exists half-move may pick on `pm`'s side."""
    if label.kind == "dia":
        return [v for w, v in sorted(interpret_action(pm.model, label.arg)) if w == pm.current]
    return list(pm.model.states)


def legal_moves(gs: GameState, player: str):
    """The half-moves `player` may make now; none once the game is lost or
    while it is the other player's turn."""
    if player not in ("abelard", "eloise"):
        raise GameError(f"unknown player '{player}'")
    if gs.lost or (player == "eloise") != (gs.pending is not None):
        return []
    if player == "eloise":
        label, _ = gs.tree.children[gs.pending.edge_index]
        other = gs.right if gs.pending.side == "left" else gs.left
        return [EloiseMove(v) for v in _choices(label, other)]
    moves = []
    for i, (label, _) in enumerate(gs.tree.children):
        if _holds_a_set(label):
            for side, pm in (("left", gs.left), ("right", gs.right)):
                moves.extend(AbelardMove(i, side, v) for v in _choices(label, pm))
        else:
            moves.append(AbelardMove(i))
    return moves


def game_step(gs: GameState, move) -> GameState:
    """Apply one half-move, which must be in `legal_moves` of the player to
    move. Deterministic rounds (at/store/idle) complete in the challenger's
    half-move; dia/exists rounds wait for the answer."""
    legal = legal_moves(gs, "eloise" if gs.pending is not None else "abelard")
    if move not in legal:
        raise IllegalMoveError(f"illegal move {move!r}", legal)
    if isinstance(move, EloiseMove):
        return _complete_round(gs, gs.pending, move.target)
    if move.side is not None:
        return GameState(gs.tree, gs.left, gs.right, pending=move)
    return _complete_round(gs, move, None)


def _complete_round(gs: GameState, move: AbelardMove, answer: str | None) -> GameState:
    """The state after the round `move` opened, `answer` being the survivor's
    state on the other side in a dia or exists round."""
    label, child = gs.tree.children[move.edge_index]
    picked = {move.side: move.target, "right" if move.side == "left" else "left": answer}

    def advance(pm: PointedModel, side: str) -> PointedModel:
        if label.kind == "at":
            return PointedModel(pm.model, pm.model.nominal_interp[label.arg])
        if label.kind == "dia":
            return PointedModel(pm.model, picked[side])
        if label.kind == "down":
            return PointedModel(expand(pm.model, _bound_var(label, child), pm.current), pm.current)
        if label.kind == "exists":
            return PointedModel(expand(pm.model, _bound_var(label, child), picked[side]), pm.current)
        return pm  # idle

    left, right = advance(gs.left, "left"), advance(gs.right, "right")
    return GameState(child, left, right, lost=not game_property(left, right))


def replay_trace(tr: GameboardTree, left: PointedModel, right: PointedModel, trace) -> GameState:
    gs = start_game(tr, left, right)
    for step in trace:
        if step.side is None:
            gs = game_step(gs, AbelardMove(step.edge_index))
        else:
            gs = game_step(gs, AbelardMove(step.edge_index, step.side, step.abelard))
            if step.eloise is None:
                break
            gs = game_step(gs, EloiseMove(step.eloise))
    return gs


# ---------------------------------------------------------------------------
# Normal form: every sentence is a disjunction of game sentences


@dataclass
class NormalForm:
    """A gameboard tree plus a decidable membership test for the set of game
    sentences whose disjunction is equivalent to the translated sentence."""

    tree: GameboardTree
    contains: Callable[[GameSentence], bool] = field(repr=False)

    def holds_on(self, pm: PointedModel) -> bool:
        return self.contains(char_formula(self.tree, pm))

    def enumerate_members(self, size_cap: int) -> list[GameSentence]:
        return [g for g in enumerate_game_sentences(self.tree, size_cap) if self.contains(g)]


def normal_form(s: Sentence, sig: Signature, frag: FragmentConfig) -> NormalForm:
    """Translate a sentence into a gameboard tree and a membership predicate
    over its game sentences, following the constructive recursion; the
    disjunction of the selected game sentences is equivalent to `s`. Each
    binder's variable is read as the canonical name that extending its
    scope's signature gives, so the tree does not depend on binder names."""
    check_sentence(s, sig, {})
    report = validate_in_fragment(s, frag)
    if not report.ok:
        raise FragmentViolationError(report.violations[0][1])

    def rec(t: Sentence, scope: Signature, env: dict[str, str]) -> tuple[GameboardTree, Callable]:
        if isinstance(t, (Prop, Nom)):
            basic = Nom(env.get(t.name, t.name)) if isinstance(t, Nom) else t
            idx = basic_sentences(scope).index(basic)
            return leaf(scope), lambda g, i=idx: g.signs[i][1]
        if isinstance(t, Neg):
            tr, p = rec(t.body, scope, env)
            return tr, lambda g, p=p: not p(g)
        if isinstance(t, And):
            if not t.items:
                return leaf(scope), lambda g: True
            # group equal subtrees so idle branches stay pairwise distinct
            groups: dict[GameboardTree, list[Callable]] = {}
            for tr, p in (rec(item, scope, env) for item in t.items):
                groups.setdefault(tr, []).append(p)
            tree = GameboardTree(scope, tuple((Edge("idle"), gtr) for gtr in groups))
            all_preds = list(groups.values())

            def pred(g, all_preds=all_preds):
                return all(
                    p(part.members[0])
                    for part, preds in zip(g.parts, all_preds)
                    for p in preds
                )

            return tree, pred
        if isinstance(t, Dia):
            label, inner = Edge("dia", t.action), scope
        elif isinstance(t, At):
            label, inner = Edge("at", env.get(t.name, t.name)), scope
        elif isinstance(t, (Store, Exists)):
            inner, fresh = extend_signature(scope)
            label, env = Edge("down" if isinstance(t, Store) else "exists"), {**env, t.var: fresh}
        else:
            raise TypeError(f"not a sentence: {t!r}")
        # some member of the only part satisfies the body: exact on at and
        # store parts, which hold one member
        tr0, p = rec(t.body, inner, env)
        return GameboardTree(scope, ((label, tr0),)), lambda g, p=p: any(p(m) for m in g.parts[0].members)

    tree, pred = rec(s, sig, {})
    return NormalForm(tree=tree, contains=pred)
