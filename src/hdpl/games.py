"""Finite equivalence games on gameboard trees: the game-sentence language,
characteristic formulas, exhaustive game-sentence enumeration, the game
solver, interactive round stepping, and the disjunctive normal-form
translation of arbitrary sentences."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .checker import SignatureMismatchError, game_property
from .gameboard import (
    AtEdge,
    DiaEdge,
    ExistsEdge,
    GameboardTree,
    IdleEdge,
    StoreEdge,
    edge_text,
    leaf,
)
from .kripke import KripkeModel, PointedModel, Successors, expand, interpret_action
from .syntax import (
    Action,
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
    canonical_vars,
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
class GSDia:
    action: Action
    members: tuple["GameSentence", ...]


@dataclass(frozen=True)
class GSAt:
    name: str
    member: "GameSentence"


@dataclass(frozen=True)
class GSStore:
    var: str
    member: "GameSentence"


@dataclass(frozen=True)
class GSExists:
    var: str
    members: tuple["GameSentence", ...]


@dataclass(frozen=True)
class GSIdle:
    member: "GameSentence"


GSPart = GSDia | GSAt | GSStore | GSExists | GSIdle


@dataclass(frozen=True)
class GSNode:
    parts: tuple[GSPart, ...]  # one per child edge, in tree child order


GameSentence = GSLeaf | GSNode


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
    elif isinstance(g, GSDia):
        text = f"<{print_action(g.action)}>" + "{" + ",".join(gs_text(m) for m in g.members) + "}"
    elif isinstance(g, GSAt):
        text = f"@{g.name} " + gs_text(g.member)
    elif isinstance(g, GSStore):
        text = f"down {g.var} " + gs_text(g.member)
    elif isinstance(g, GSExists):
        text = f"exists {g.var} " + "{" + ",".join(gs_text(m) for m in g.members) + "}"
    elif isinstance(g, GSIdle):
        text = "idle " + gs_text(g.member)
    else:
        raise TypeError(f"not a game sentence part: {g!r}")
    object.__setattr__(g, "_txt", text)
    return text


def gs_set(members) -> tuple["GameSentence", ...]:
    """Canonical member set: duplicate-free, sorted by the canonical text."""
    unique = {gs_text(m): m for m in members}
    return tuple(unique[k] for k in sorted(unique))


# ---------------------------------------------------------------------------
# Lowering a game sentence to an ordinary sentence


def lower_game_sentence(g: GameSentence) -> Sentence:
    if isinstance(g, GSLeaf):
        return conj([b if pos else Neg(b) for b, pos in g.signs])
    if isinstance(g, GSNode):
        return conj([_lower_part(p) for p in g.parts])
    raise TypeError(f"not a game sentence: {g!r}")


def _lower_part(p: GSPart) -> Sentence:
    if isinstance(p, GSDia):
        lowered = [lower_game_sentence(m) for m in p.members]
        return conj([Dia(p.action, s) for s in lowered] + [box(p.action, disj(lowered))])
    if isinstance(p, GSAt):
        return At(p.name, lower_game_sentence(p.member))
    if isinstance(p, GSStore):
        return Store(p.var, lower_game_sentence(p.member))
    if isinstance(p, GSExists):
        lowered = [lower_game_sentence(m) for m in p.members]
        return conj([Exists(p.var, s) for s in lowered] + [forall(p.var, disj(lowered))])
    if isinstance(p, GSIdle):
        return lower_game_sentence(p.member)
    raise TypeError(f"not a game sentence part: {p!r}")


# ---------------------------------------------------------------------------
# Characteristic formulas (the unique satisfied game sentence)


def _new_var(child: GameboardTree) -> str:
    return child.sig.bound_vars[-1]


def _point(m: KripkeModel, node: GameboardTree, env: tuple[str, ...], name: str) -> str:
    """The state a name of `node.sig` denotes: the base model interprets the
    root signature (its bound variables too), `env` the variables bound by the
    store and exists edges above `node`, one state each, in order."""
    got = m.nominal_interp.get(name)
    if got is None:
        bound = node.sig.bound_vars
        got = env[len(env) - len(bound) + bound.index(name)]
    return got


def char_formula(tr: GameboardTree, pm: PointedModel) -> GameSentence:
    """The unique game sentence over `tr` the pointed model satisfies, built
    constructively with shared sub-results. A store or exists edge binds its
    variable by appending a state to the environment (see `_point`), not by
    expanding the model."""
    m = pm.model
    if m.sig != tr.sig:
        raise SignatureMismatchError("model signature differs from tree root signature")
    succ = Successors(m)
    memo: dict[tuple, GameSentence] = {}
    basics: dict[int, tuple[Sentence, ...]] = {}

    def char(node: GameboardTree, w: str, env: tuple[str, ...]) -> GameSentence:
        key = (id(node), w, env)
        got = memo.get(key)
        if got is not None:
            return got
        if not node.children:
            bs = basics.get(id(node)) or basics.setdefault(id(node), basic_sentences(node.sig))
            res: GameSentence = GSLeaf(
                tuple(
                    (b, _point(m, node, env, b.name) == w if isinstance(b, Nom) else b.name in m.valuation[w])
                    for b in bs
                )
            )
        else:
            parts: list[GSPart] = []
            for label, child in node.children:
                if isinstance(label, DiaEdge):
                    members = [char(child, v, env) for v in succ[label.action][w]]
                    parts.append(GSDia(label.action, gs_set(members)))
                elif isinstance(label, AtEdge):
                    parts.append(GSAt(label.name, char(child, _point(m, node, env, label.name), env)))
                elif isinstance(label, StoreEdge):
                    parts.append(GSStore(_new_var(child), char(child, w, env + (w,))))
                elif isinstance(label, ExistsEdge):
                    members = [char(child, w, env + (v,)) for v in m.states]
                    parts.append(GSExists(_new_var(child), gs_set(members)))
                elif isinstance(label, IdleEdge):
                    parts.append(GSIdle(char(child, w, env)))
                else:
                    raise TypeError(f"not an edge label: {label!r}")
            res = GSNode(tuple(parts))
        memo[key] = res
        return res

    return char(tr, pm.current, ())


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
            if isinstance(label, (DiaEdge, ExistsEdge)):
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
            theta = enum(child)
            if isinstance(label, DiaEdge):
                choices: list[GSPart] = [
                    GSDia(label.action, gs_set(sub))
                    for r in range(len(theta) + 1)
                    for sub in itertools.combinations(theta, r)
                ]
            elif isinstance(label, ExistsEdge):
                x = _new_var(child)
                choices = [
                    GSExists(x, gs_set(sub))
                    for r in range(len(theta) + 1)
                    for sub in itertools.combinations(theta, r)
                ]
            elif isinstance(label, AtEdge):
                choices = [GSAt(label.name, g) for g in theta]
            elif isinstance(label, StoreEdge):
                choices = [GSStore(_new_var(child), g) for g in theta]
            elif isinstance(label, IdleEdge):
                choices = [GSIdle(g) for g in theta]
            else:
                raise TypeError(f"not an edge label: {label!r}")
            component_choices.append(choices)
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
    matching answer on the other. On a challenger win the trace is a
    replayable move list ending in a property violation.

    A position is (node, left state, left environment, right state, right
    environment) over the two base models; a store or exists round appends
    the bound states to the environments (see `_point`)."""
    Lm, Rm = left.model, right.model
    if Lm.sig != tr.sig or Rm.sig != tr.sig:
        raise SignatureMismatchError("both models must share the tree root signature")
    sl, sr = Successors(Lm), Successors(Rm)

    # the basic sentences of the root signature each state satisfies: its
    # props and which root names denote it; the environments cover the rest
    names = tr.sig.point_names()
    bl, br = (
        {w: (m.valuation[w], tuple(m.nominal_interp[x] == w for x in names)) for w in m.states}
        for m in (Lm, Rm)
    )

    def agree(Lw, Lenv, Rv, Renv) -> bool:
        if bl[Lw] != br[Rv]:
            return False
        for a, b in zip(Lenv, Renv):
            if (a == Lw) != (b == Rv):
                return False
        return True

    def options(node, Lw, Lenv, Rv, Renv):
        """Yield (edge_index, label, side, target, replies) per challenger
        option; replies are the full positions the answer may reach."""
        for i, (label, child) in enumerate(node.children):
            if isinstance(label, DiaEdge):
                ls, rs = sl[label.action][Lw], sr[label.action][Rv]
                for w2 in ls:
                    yield i, label, "left", w2, [(child, w2, Lenv, v2, Renv) for v2 in rs]
                for v2 in rs:
                    yield i, label, "right", v2, [(child, w2, Lenv, v2, Renv) for w2 in ls]
            elif isinstance(label, AtEdge):
                yield i, label, None, None, [
                    (child, _point(Lm, node, Lenv, label.name), Lenv,
                     _point(Rm, node, Renv, label.name), Renv)
                ]
            elif isinstance(label, StoreEdge):
                yield i, label, None, None, [(child, Lw, Lenv + (Lw,), Rv, Renv + (Rv,))]
            elif isinstance(label, ExistsEdge):
                for w1 in Lm.states:
                    yield i, label, "left", w1, [
                        (child, Lw, Lenv + (w1,), Rv, Renv + (v1,)) for v1 in Rm.states
                    ]
                for v1 in Rm.states:
                    yield i, label, "right", v1, [
                        (child, Lw, Lenv + (w1,), Rv, Renv + (v1,)) for w1 in Lm.states
                    ]
            elif isinstance(label, IdleEdge):
                yield i, label, None, None, [(child, Lw, Lenv, Rv, Renv)]
            else:
                raise TypeError(f"not an edge label: {label!r}")

    win_memo: dict[tuple, bool] = {}

    def win(node, Lw, Lenv, Rv, Renv) -> bool:
        key = (id(node), Lw, Lenv, Rv, Renv)
        got = win_memo.get(key)
        if got is None:
            got = win_memo[key] = agree(Lw, Lenv, Rv, Renv) and all(
                any(win(*reply) for reply in replies)
                for _, _, _, _, replies in options(node, Lw, Lenv, Rv, Renv)
            )
        return got

    def reply_target(label, reply, side):
        # recover the answering player's choice from a reply position
        if side is None:
            return None
        _, rLw, rLenv, rRv, rRenv = reply
        if isinstance(label, DiaEdge):
            return rRv if side == "left" else rLw
        return rRenv[-1] if side == "left" else rLenv[-1]

    loss_memo: dict[tuple, tuple[int, list[TraceStep]]] = {}

    def loss(node, Lw, Lenv, Rv, Renv) -> tuple[int, list[TraceStep]]:
        """Minimal forced-loss depth and one best-resistance losing line, for
        positions the survivor has already lost."""
        if not agree(Lw, Lenv, Rv, Renv):
            return 0, []
        key = (id(node), Lw, Lenv, Rv, Renv)
        best = loss_memo.get(key)
        if best is not None:
            return best
        for i, label, side, target, replies in options(node, Lw, Lenv, Rv, Renv):
            if any(win(*reply) for reply in replies):
                continue
            if not replies:
                cand = (1, [TraceStep(i, edge_text(label), side, target, None)])
            else:
                depth, sub, eloise = max(
                    (loss(*reply) + (reply_target(label, reply, side),) for reply in replies),
                    key=lambda t: t[0],
                )
                cand = (1 + depth, [TraceStep(i, edge_text(label), side, target, eloise)] + sub)
            if best is None or cand[0] < best[0]:
                best = cand
        assert best is not None, "loss() called on a winning position"
        loss_memo[key] = best
        return best

    root = (tr, left.current, (), right.current, ())
    if win(*root):
        return EfResult("eloise")
    depth, trace = loss(*root)
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
class PendingRound:
    edge_index: int
    side: str
    target: str


@dataclass(frozen=True)
class GameState:
    tree: GameboardTree
    left: PointedModel
    right: PointedModel
    history: tuple[TraceStep, ...] = ()
    pending: PendingRound | None = None
    lost: bool = False  # property violated after a completed round


def start_game(tr: GameboardTree, left: PointedModel, right: PointedModel) -> GameState:
    if left.model.sig != tr.sig or right.model.sig != tr.sig:
        raise SignatureMismatchError("both models must share the tree root signature")
    return GameState(tr, left, right, lost=not game_property(left, right))


def legal_moves(gs: GameState, player: str):
    if gs.lost:
        return []
    if player == "abelard":
        if gs.pending is not None:
            return []
        moves = []
        for i, (label, child) in enumerate(gs.tree.children):
            if isinstance(label, (AtEdge, StoreEdge, IdleEdge)):
                moves.append(AbelardMove(i))
            elif isinstance(label, DiaEdge):
                for side, pm in (("left", gs.left), ("right", gs.right)):
                    pairs = interpret_action(pm.model, label.action)
                    for w, v in sorted(pairs):
                        if w == pm.current:
                            moves.append(AbelardMove(i, side, v))
            elif isinstance(label, ExistsEdge):
                for side, pm in (("left", gs.left), ("right", gs.right)):
                    for w in pm.model.states:
                        moves.append(AbelardMove(i, side, w))
        return moves
    if player == "eloise":
        if gs.pending is None:
            return []
        label, _ = gs.tree.children[gs.pending.edge_index]
        other = gs.right if gs.pending.side == "left" else gs.left
        if isinstance(label, DiaEdge):
            pairs = interpret_action(other.model, label.action)
            return [EloiseMove(v) for w, v in sorted(pairs) if w == other.current]
        if isinstance(label, ExistsEdge):
            return [EloiseMove(w) for w in other.model.states]
        return []
    raise GameError(f"unknown player '{player}'")


def game_step(gs: GameState, move) -> GameState:
    """Apply one half-move. Deterministic rounds (at/store/idle) complete in
    the challenger's half-move; dia/exists rounds wait for the answer."""
    if gs.lost:
        raise IllegalMoveError("the game is already lost", [])
    if isinstance(move, AbelardMove):
        if gs.pending is not None:
            raise IllegalMoveError("an answer is pending", legal_moves(gs, "eloise"))
        if not (0 <= move.edge_index < len(gs.tree.children)):
            raise IllegalMoveError(f"no edge {move.edge_index}", legal_moves(gs, "abelard"))
        label, child = gs.tree.children[move.edge_index]
        if isinstance(label, (AtEdge, StoreEdge, IdleEdge)):
            if move.side is not None or move.target is not None:
                raise IllegalMoveError("this edge is deterministic", legal_moves(gs, "abelard"))
            if isinstance(label, AtEdge):
                new_l = PointedModel(gs.left.model, gs.left.model.nominal_interp[label.name])
                new_r = PointedModel(gs.right.model, gs.right.model.nominal_interp[label.name])
            elif isinstance(label, StoreEdge):
                x = _new_var(child)
                new_l = PointedModel(expand(gs.left.model, x, gs.left.current), gs.left.current)
                new_r = PointedModel(expand(gs.right.model, x, gs.right.current), gs.right.current)
            else:
                new_l, new_r = gs.left, gs.right
            step = TraceStep(move.edge_index, edge_text(label), None, None, None)
            return GameState(
                child,
                new_l,
                new_r,
                gs.history + (step,),
                lost=not game_property(new_l, new_r),
            )
        if move not in legal_moves(gs, "abelard"):
            raise IllegalMoveError(f"illegal move {move}", legal_moves(gs, "abelard"))
        return GameState(
            gs.tree,
            gs.left,
            gs.right,
            gs.history,
            pending=PendingRound(move.edge_index, move.side, move.target),
        )
    if isinstance(move, EloiseMove):
        if gs.pending is None:
            raise IllegalMoveError("no challenger half-move to answer", legal_moves(gs, "abelard"))
        if move not in legal_moves(gs, "eloise"):
            raise IllegalMoveError(f"illegal answer {move}", legal_moves(gs, "eloise"))
        p = gs.pending
        label, child = gs.tree.children[p.edge_index]
        if isinstance(label, DiaEdge):
            if p.side == "left":
                new_l = PointedModel(gs.left.model, p.target)
                new_r = PointedModel(gs.right.model, move.target)
            else:
                new_l = PointedModel(gs.left.model, move.target)
                new_r = PointedModel(gs.right.model, p.target)
        else:  # ExistsEdge
            x = _new_var(child)
            if p.side == "left":
                new_l = PointedModel(expand(gs.left.model, x, p.target), gs.left.current)
                new_r = PointedModel(expand(gs.right.model, x, move.target), gs.right.current)
            else:
                new_l = PointedModel(expand(gs.left.model, x, move.target), gs.left.current)
                new_r = PointedModel(expand(gs.right.model, x, p.target), gs.right.current)
        step = TraceStep(p.edge_index, edge_text(label), p.side, p.target, move.target)
        return GameState(
            child,
            new_l,
            new_r,
            gs.history + (step,),
            lost=not game_property(new_l, new_r),
        )
    raise IllegalMoveError(f"not a move: {move!r}", [])


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
    sentence: Sentence = None

    def holds_on(self, pm: PointedModel) -> bool:
        return self.contains(char_formula(self.tree, pm))

    def enumerate_members(self, size_cap: int) -> list[GameSentence]:
        return [g for g in enumerate_game_sentences(self.tree, size_cap) if self.contains(g)]


def normal_form(s: Sentence, sig: Signature, frag: FragmentConfig) -> NormalForm:
    """Translate a sentence into a gameboard tree and a membership predicate
    over its game sentences, following the constructive recursion; the
    disjunction of the selected game sentences is equivalent to `s`."""
    report = validate_in_fragment(s, frag)
    if not report.ok:
        raise FragmentViolationError(report.violations[0][1])
    s = canonical_vars(s, sig)

    def rec(t: Sentence, scope: Signature) -> tuple[GameboardTree, Callable]:
        if isinstance(t, (Prop, Nom)):
            basics = basic_sentences(scope)
            idx = basics.index(t)
            return leaf(scope), lambda g, i=idx: g.signs[i][1]
        if isinstance(t, Neg):
            tr, p = rec(t.body, scope)
            return tr, lambda g, p=p: not p(g)
        if isinstance(t, And):
            if not t.items:
                return leaf(scope), lambda g: True
            subs = [rec(item, scope) for item in t.items]
            # group equal subtrees so idle branches stay pairwise distinct
            groups: list[tuple[GameboardTree, list[Callable]]] = []
            for tr, p in subs:
                for gi, (gtr, preds) in enumerate(groups):
                    if gtr == tr:
                        preds.append(p)
                        break
                else:
                    groups.append((tr, [p]))
            tree = GameboardTree(scope, tuple((IdleEdge(), gtr) for gtr, _ in groups))
            all_preds = [preds for _, preds in groups]

            def pred(g, all_preds=all_preds):
                return all(
                    p(part.member)
                    for part, preds in zip(g.parts, all_preds)
                    for p in preds
                )

            return tree, pred
        if isinstance(t, Dia):
            tr0, p = rec(t.body, scope)
            tree = GameboardTree(scope, ((DiaEdge(t.action), tr0),))
            return tree, lambda g, p=p: any(p(m) for m in g.parts[0].members)
        if isinstance(t, At):
            tr0, p = rec(t.body, scope)
            tree = GameboardTree(scope, ((AtEdge(t.name), tr0),))
            return tree, lambda g, p=p: p(g.parts[0].member)
        if isinstance(t, Store):
            inner, _ = _extend_matching(scope, t.var)
            trx, p = rec(t.body, inner)
            tree = GameboardTree(scope, ((StoreEdge(), trx),))
            return tree, lambda g, p=p: p(g.parts[0].member)
        if isinstance(t, Exists):
            inner, _ = _extend_matching(scope, t.var)
            trx, p = rec(t.body, inner)
            tree = GameboardTree(scope, ((ExistsEdge(), trx),))
            return tree, lambda g, p=p: any(p(m) for m in g.parts[0].members)
        raise TypeError(f"not a sentence: {t!r}")

    tree, pred = rec(s, sig)
    return NormalForm(tree=tree, contains=pred, sentence=s)


def _extend_matching(scope: Signature, var: str) -> tuple[Signature, str]:
    ext, fresh = extend_signature(scope)
    if fresh != var:
        raise GameError(f"binder variable '{var}' is not in canonical form")
    return ext, fresh
