"""Gameboard trees: signature-labeled trees whose edges prescribe the legal
rounds of an equivalence game. Construction, validation, text format, and
complete-tree generation.

Text format:

    tree ::= "leaf" | "(" edge ")" | "(branch" ("(" edge ")")+ ")"
    edge ::= "idle" tree | "down" tree | "exists" tree
           | "at" IDENT tree | "dia" ACT tree
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .syntax import (
    Action,
    FragmentConfig,
    HdplError,
    ParseError,
    Rel,
    Signature,
    Star,
    Comp,
    Union,
    _TokenStream,
    _parse_act_union,
    extend_signature,
    print_action,
    tokenize,
)


@dataclass(frozen=True)
class DiaEdge:
    action: Action


@dataclass(frozen=True)
class AtEdge:
    name: str


@dataclass(frozen=True)
class StoreEdge:
    pass


@dataclass(frozen=True)
class ExistsEdge:
    pass


@dataclass(frozen=True)
class IdleEdge:
    pass


EdgeLabel = DiaEdge | AtEdge | StoreEdge | ExistsEdge | IdleEdge


@dataclass(frozen=True)
class GameboardTree:
    """A node: its signature and its (edge label, child) pairs in order.

    `parse_tree` and `complete_tree` build each distinct subtree once, so
    equal subtrees are one object and memos keyed by node identity share
    their work. The hash is computed once, at construction."""

    sig: Signature
    children: tuple[tuple[EdgeLabel, "GameboardTree"], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.sig, self.children)))

    def __hash__(self):
        return self._hash


class TreeError(HdplError):
    pass


def leaf(sig: Signature) -> GameboardTree:
    return GameboardTree(sig, ())


def tree_height(tr: GameboardTree) -> int:
    if not tr.children:
        return 0
    return 1 + max(tree_height(child) for _, child in tr.children)


def count_nodes(tr: GameboardTree) -> int:
    return 1 + sum(count_nodes(child) for _, child in tr.children)


def edge_text(label: EdgeLabel) -> str:
    if isinstance(label, DiaEdge):
        return f"dia {print_action(label.action)}"
    if isinstance(label, AtEdge):
        return f"at {label.name}"
    if isinstance(label, StoreEdge):
        return "down"
    if isinstance(label, ExistsEdge):
        return "exists"
    if isinstance(label, IdleEdge):
        return "idle"
    raise TypeError(f"not an edge label: {label!r}")


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    problems: tuple[str, ...]

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.problems)


def _ctors_of(a: Action) -> set[str]:
    if isinstance(a, Rel):
        return set()
    if isinstance(a, Union):
        return {"union"} | _ctors_of(a.left) | _ctors_of(a.right)
    if isinstance(a, Comp):
        return {"comp"} | _ctors_of(a.left) | _ctors_of(a.right)
    if isinstance(a, Star):
        return {"star"} | _ctors_of(a.body)
    raise TypeError(f"not an action: {a!r}")


def _rels_of(a: Action) -> set[str]:
    if isinstance(a, Rel):
        return {a.name}
    if isinstance(a, (Union, Comp)):
        return _rels_of(a.left) | _rels_of(a.right)
    return _rels_of(a.body)


def validate_tree(tr: GameboardTree, frag: FragmentConfig) -> TreeReport:
    """Check signature consistency along edges, sibling-label uniqueness, and
    fragment gating at every node.

    Sibling uniqueness: no two non-idle siblings may carry an equal label;
    idle siblings may repeat the label but not the whole (label, subtree)
    edge, since distinct idle branches are what conjunction-shaped trees are
    made of.
    """
    problems: list[str] = []

    def spell(path) -> str:
        steps = []
        while path is not None:
            path, i, label = path
            steps.append(f"/{i}:{edge_text(label)}")
        return "root" + "".join(reversed(steps))

    def walk(node: GameboardTree, path):
        """`path` is None at the root, else (parent path, edge index, label);
        it is spelled out only when a problem is reported."""
        seen_labels = set()
        seen_idle = set()
        for i, (label, child) in enumerate(node.children):
            here = (path, i, label)
            if isinstance(label, IdleEdge):
                if (label, child) in seen_idle:
                    problems.append(f"duplicate idle edge (same subtree) at {spell(here)}")
                seen_idle.add((label, child))
            else:
                if label in seen_labels:
                    problems.append(f"duplicate sibling label at {spell(here)}")
                seen_labels.add(label)
            if isinstance(label, (StoreEdge, ExistsEdge)):
                expected, _ = extend_signature(node.sig)
                if child.sig != expected:
                    problems.append(
                        f"child signature under {edge_text(label)} at {spell(here)} is not the"
                        f" parent extended by the next fresh variable"
                    )
                kind = "store" if isinstance(label, StoreEdge) else "exists"
                if kind not in frag.ops:
                    problems.append(f"edge kind '{kind}' not enabled at {spell(here)}")
            else:
                if child.sig != node.sig:
                    problems.append(f"child signature changes across {edge_text(label)} at {spell(here)}")
                if isinstance(label, DiaEdge):
                    if "diamond" not in frag.ops:
                        problems.append(f"edge kind 'diamond' not enabled at {spell(here)}")
                    bad_ctors = _ctors_of(label.action) - frag.action_ctors
                    if bad_ctors:
                        problems.append(f"action constructors {sorted(bad_ctors)} not enabled at {spell(here)}")
                    undeclared = _rels_of(label.action) - set(node.sig.relations)
                    if undeclared:
                        problems.append(f"undeclared relations {sorted(undeclared)} at {spell(here)}")
                elif isinstance(label, AtEdge):
                    if "at" not in frag.ops:
                        problems.append(f"edge kind 'at' not enabled at {spell(here)}")
                    if label.name not in node.sig.point_names():
                        problems.append(f"undeclared name '{label.name}' at {spell(here)}")
            walk(child, here)

    walk(tr, None)
    return TreeReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# Complete trees


def complete_tree(
    sig: Signature,
    frag: FragmentConfig,
    height: int,
    actions: tuple[Action, ...] | list[Action] = (),
) -> GameboardTree:
    """The tree exploring, at every node above the leaves, exactly one move
    per enabled option: idle, store, exists, one at-edge per nominal and
    bound variable, and one dia-edge per supplied action. All subtrees have
    equal height. Each distinct subtree is built once, one per (signature,
    height): the idle, at and dia edges of a node share one child, and its
    store and exists edges another."""
    if height < 0:
        raise TreeError("height must be >= 0")
    actions = tuple(actions)
    if "diamond" in frag.ops and not actions:
        raise TreeError("diamond is enabled but the action list is empty")

    @cache
    def build(sig: Signature, height: int) -> GameboardTree:
        if height == 0:
            return leaf(sig)
        same = build(sig, height - 1)
        children: list[tuple[EdgeLabel, GameboardTree]] = [(IdleEdge(), same)]
        if "store" in frag.ops:
            children.append((StoreEdge(), build(extend_signature(sig)[0], height - 1)))
        if "exists" in frag.ops:
            children.append((ExistsEdge(), build(extend_signature(sig)[0], height - 1)))
        if "at" in frag.ops:
            children.extend((AtEdge(name), same) for name in sig.point_names())
        if "diamond" in frag.ops:
            children.extend((DiaEdge(a), same) for a in actions)
        return GameboardTree(sig, tuple(children))

    return build(sig, height)


def prune_to_height(tr: GameboardTree, height: int) -> GameboardTree:
    if height <= 0:
        return leaf(tr.sig)
    return GameboardTree(
        tr.sig,
        tuple((label, prune_to_height(child, height - 1)) for label, child in tr.children),
    )


# ---------------------------------------------------------------------------
# Text format


def print_tree(tr: GameboardTree) -> str:
    if not tr.children:
        return "leaf"
    parts = [f"({edge_text(label)} {print_tree(child)})" for label, child in tr.children]
    if len(parts) == 1:
        return parts[0]
    return "(branch " + " ".join(parts) + ")"


def parse_tree(text: str, sig: Signature, frag: FragmentConfig | None = None) -> GameboardTree:
    """Parse the text format against a root signature. Each distinct subtree
    is built once, so equal subtrees of the result are one object. If a
    fragment is given, the result is validated and an invalid tree raises
    TreeError."""
    ts = _TokenStream(tokenize(text), len(text))
    tr = _parse_tree(ts, sig, {})
    if ts.peek() is not None:
        raise ParseError(f"trailing input {ts.peek()!r}", ts.pos())
    if frag is not None:
        report = validate_tree(tr, frag)
        if not report.ok:
            raise TreeError(f"invalid tree: {report}")
    return tr


_ALL_ACTIONS = FragmentConfig.full()


def _parse_tree(ts: _TokenStream, sig: Signature, built: dict) -> GameboardTree:
    """`built` maps each node parsed so far to itself. A node's children are
    already shared, so a node equal to an earlier one matches it on its
    signature and, by identity, on its children."""
    tok = ts.peek()
    if tok == "leaf":
        ts.next()
        children = ()
    elif tok != "(":
        raise ParseError(f"expected 'leaf' or '(', found {tok!r}", ts.pos())
    else:
        ts.next()
        if ts.peek() == "branch":
            ts.next()
            edges = []
            while ts.peek() == "(":
                ts.next()
                edges.append(_parse_edge(ts, sig, built))
                ts.expect(")")
            if not edges:
                raise ParseError("branch needs at least one edge", ts.pos())
            children = tuple(edges)
        else:
            children = (_parse_edge(ts, sig, built),)
        ts.expect(")")
    node = GameboardTree(sig, children)
    return built.setdefault(node, node)


def _parse_edge(ts: _TokenStream, sig: Signature, built: dict) -> tuple[EdgeLabel, GameboardTree]:
    pos = ts.pos()
    kind = ts.ident("edge kind")
    if kind == "idle":
        return IdleEdge(), _parse_tree(ts, sig, built)
    if kind == "down":
        return StoreEdge(), _parse_tree(ts, extend_signature(sig)[0], built)
    if kind == "exists":
        return ExistsEdge(), _parse_tree(ts, extend_signature(sig)[0], built)
    if kind == "at":
        name = ts.ident("nominal or variable")
        return AtEdge(name), _parse_tree(ts, sig, built)
    if kind == "dia":
        action = _parse_act_union(ts, sig, _ALL_ACTIONS)
        return DiaEdge(action), _parse_tree(ts, sig, built)
    raise ParseError(f"unknown edge kind {kind!r}", pos)
