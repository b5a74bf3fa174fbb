"""Gameboard trees: signature-labeled trees whose edges prescribe the legal
rounds of an equivalence game. Construction, validation, text format, and
complete-tree generation.

Text format:

    tree ::= "leaf" | "(" edge ")" | "(branch" ("(" edge ")")+ ")"
    edge ::= "idle" tree | "down" tree | "exists" tree
           | "at" IDENT tree | "dia" ACT tree
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

from .syntax import (
    ACTION_CTOR,
    Action,
    FragmentConfig,
    HdplError,
    Rel,
    Signature,
    _TABLE,
    _Term,
    _TokenStream,
    _make,
    _parse_act_union,
    extend_signature,
    print_action,
    walk_action,
)


class TreeError(HdplError):
    pass


# Each edge kind, spelled as in the text format: the fragment operator that
# enables it (None: always enabled), and whether it binds a fresh variable,
# so that its child's signature is the parent's extended by one.
KINDS: dict[str, tuple[str | None, bool]] = {
    "idle": (None, False),
    "down": ("store", True),
    "exists": ("exists", True),
    "at": ("at", False),
    "dia": ("diamond", False),
}


class Edge(namedtuple("Edge", "kind arg")):
    """An edge label: `arg` is the action of a dia edge or the name of an at
    edge, and None on the other kinds. A tuple, so hashing and comparing
    labels, which every tree node does, runs in C."""

    __slots__ = ()

    def __new__(cls, kind: str, arg: Action | str | None = None):
        if kind not in KINDS or not isinstance(arg, {"at": str, "dia": Action}.get(kind, type(None))):
            raise TreeError(f"not an edge label: {kind!r} with argument {arg!r}")
        return tuple.__new__(cls, (kind, arg))


class GameboardTree(_Term):
    """A node: its signature and its (edge label, child) pairs in order.

    Hash-consed in the term intern table: equal trees are one object, `==`
    and `hash` are identity, and memos keyed by node identity share work."""

    __slots__ = ("sig", "children")

    def __new__(cls, sig: Signature, children: tuple[tuple[Edge, GameboardTree], ...] = ()):
        key = (cls, sig, children)
        return (ref := _TABLE.get(key)) and ref() or _make(cls, key, sig, children)


def leaf(sig: Signature) -> GameboardTree:
    return GameboardTree(sig, ())


def child_signature(sig: Signature, kind: str) -> Signature:
    """The signature the child of an edge of this kind has under a node over
    `sig`."""
    return extend_signature(sig)[0] if KINDS[kind][1] else sig


def edge_text(label: Edge) -> str:
    if label.arg is None:
        return label.kind
    return f"{label.kind} {print_action(label.arg) if label.kind == 'dia' else label.arg}"


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class TreeReport:
    ok: bool
    problems: tuple[str, ...]

    def __str__(self):
        return "ok" if self.ok else "; ".join(self.problems)


def validate_tree(tr: GameboardTree, frag: FragmentConfig) -> TreeReport:
    """Check signature consistency along edges, sibling-label uniqueness, and
    fragment gating at every node.

    Sibling uniqueness: no two non-idle siblings may carry an equal label;
    idle siblings may repeat the label but not the whole (label, subtree)
    edge, since distinct idle branches are what conjunction-shaped trees are
    made of.

    A subtree's problems depend on the subtree alone, so a shared subtree
    found problem-free is walked once; one with problems is walked, and
    reported, at every path it occurs on.
    """
    problems: list[str] = []
    clean: set[GameboardTree] = set()

    def spell(path) -> str:
        steps = []
        while path is not None:
            path, i, label = path
            steps.append(f"/{i}:{edge_text(label)}")
        return "root" + "".join(reversed(steps))

    # the nodes being walked, innermost last: (node, path, problems before
    # it, the labels and idle edges of its children so far, its remaining
    # children); a path is None at the root, else (parent path, edge index,
    # label), and is spelled out only when a problem is reported
    stack = [(tr, None, 0, set(), enumerate(tr.children))]
    while stack:
        node, path, before, seen, todo = stack[-1]
        for i, (label, child) in todo:
            here = (path, i, label)
            idle = label.kind == "idle"
            if ((label, child) if idle else label) in seen:
                what = "idle edge (same subtree)" if idle else "sibling label"
                problems.append(f"duplicate {what} at {spell(here)}")
            seen.add((label, child) if idle else label)
            if child.sig != child_signature(node.sig, label.kind):
                if KINDS[label.kind][1]:
                    problems.append(
                        f"child signature under {edge_text(label)} at {spell(here)} is not the"
                        f" parent extended by the next fresh variable"
                    )
                else:
                    problems.append(f"child signature changes across {edge_text(label)} at {spell(here)}")
            problems.extend(f"{p} at {spell(here)}" for p in _label_problems(node.sig, label, frag))
            if child not in clean:
                stack.append((child, here, len(problems), set(), enumerate(child.children)))
                break
        else:
            stack.pop()
            if len(problems) == before:
                clean.add(node)
    return TreeReport(not problems, tuple(problems))


def _label_problems(sig: Signature, label: Edge, frag: FragmentConfig) -> Iterator[str]:
    """The problems of an edge label out of a node over `sig`, its siblings
    and child aside, each to be followed by the edge's path."""
    op = KINDS[label.kind][0]
    if op is not None and op not in frag.ops:
        yield f"edge kind '{op}' not enabled"
    if label.kind == "dia":
        parts = [a for _, a in walk_action(label.arg)]
        bad_ctors = {ACTION_CTOR[type(a)] for a in parts if not isinstance(a, Rel)} - frag.action_ctors
        undeclared = {a.name for a in parts if isinstance(a, Rel)}.difference(sig.relations)
        if bad_ctors:
            yield f"action constructors {sorted(bad_ctors)} not enabled"
        if undeclared:
            yield f"undeclared relations {sorted(undeclared)}"
    elif label.kind == "at" and label.arg not in sig.point_names():
        yield f"undeclared name '{label.arg}'"


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
    bound variable, and one dia-edge per distinct supplied action (equal
    actions are one term), the first of repeats kept. All subtrees have
    equal height. Each distinct subtree is built once, one per (signature,
    height): the idle, at and dia edges of a node share one child, and its
    store and exists edges another."""
    if height < 0:
        raise TreeError("height must be >= 0")
    actions = tuple(dict.fromkeys(actions))
    if "diamond" in frag.ops and not actions:
        raise TreeError("diamond is enabled but the action list is empty")

    @cache
    def build(sig: Signature, height: int) -> GameboardTree:
        if height == 0:
            return leaf(sig)
        children: list[tuple[Edge, GameboardTree]] = []
        for kind, (op, _) in KINDS.items():
            if op is None or op in frag.ops:
                child = build(child_signature(sig, kind), height - 1)
                args = sig.point_names() if kind == "at" else actions if kind == "dia" else (None,)
                children.extend((Edge(kind, arg), child) for arg in args)
        return GameboardTree(sig, tuple(children))

    return build(sig, height)


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
    """Parse the text format against a root signature, in one loop over the
    tokens with an explicit stack, so trees may nest as deeply as memory
    allows. Equal subtrees are one node, and each dia label met before is
    not parsed again. With a fragment, labels are checked as the edge table
    takes them in and siblings as a node closes; an invalid tree raises TreeError."""
    ts = _TokenStream(text)
    toks = ts.tokens
    edges: dict = {}  # (kind, arg) -> Edge, checked when added
    labels: list = []  # (tokens, action) of the first dia labels parsed
    stack: list = []  # open nodes, innermost last: [signature, branch?, children]
    valid = True
    i = 0
    while True:
        tok = toks[i]
        if tok == "(":
            branch = toks[i + 1] == "branch"
            if branch and toks[i + 2] != "(":
                ts.fail("branch needs at least one edge", i + 2)
            stack.append([sig, branch, []])
            i += 3 if branch else 1
        else:
            if tok != "leaf":
                ts.fail(f"expected 'leaf' or '(', found {tok!r}", i)
            i += 1
            node = GameboardTree(sig, ())
            while stack:  # `node` is the child of the innermost open node's last edge
                sig, branch, children = stack[-1]
                children[-1] = (children[-1], node)
                if toks[i] != ")":
                    ts.fail(f"expected ')', found {toks[i]!r}", i)
                if branch and toks[i + 1] == "(":
                    i += 2
                    break
                if branch and toks[i + 1] != ")":
                    ts.fail(f"expected ')', found {toks[i + 1]!r}", i + 1)
                i += 2 if branch else 1
                stack.pop()
                node = GameboardTree(sig, tuple(children))
                if frag is not None:  # the edge table checked the labels; siblings are left
                    valid = valid and len({(e, c) if e.kind == "idle" else e for e, c in children}) == len(children)
            else:
                break
        # an edge of the innermost open node starts at token i: its label
        # waits in the node's children for its child
        kind = toks[i]
        ts.i = i + 1
        if kind == "at":
            arg = ts.ident("nominal or variable")
        elif kind == "dia":
            # one call's signatures share their relations: equal tokens not followed by '*', ';' or '+' are one action
            for span, arg in labels:
                end = i + 1 + len(span)
                if toks[i + 1 : end] == span and toks[end] not in ("*", ";", "+"):
                    ts.i = end
                    break
            else:
                arg = _parse_act_union(ts, sig, _ALL_ACTIONS)
                if len(labels) < 8:  # trees name few; a longer table costs more than it saves
                    labels.append((toks[i + 1 : ts.i], arg))
        elif kind in KINDS:
            arg = None
        else:
            ts.i = i
            ts.ident("edge kind")
            ts.fail(f"unknown edge kind {kind!r}", i)
        i = ts.i
        label = edges.get((kind, arg))
        if label is None or kind == "at":  # an at name must be in scope wherever it occurs
            label = label or edges.setdefault((kind, arg), Edge(kind, arg))
            valid = valid and (frag is None or not any(_label_problems(sig, label, frag)))
        stack[-1][2].append(label)
        sig = child_signature(sig, kind)
    if toks[i] is not None:
        ts.fail(f"trailing input {toks[i]!r}", i)
    if not valid:
        raise TreeError(f"invalid tree: {validate_tree(node, frag)}")
    return node


_ALL_ACTIONS = FragmentConfig.full()

