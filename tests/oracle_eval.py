"""Naive reference evaluator and printer used as independent oracles in tests.

Deliberately separate from the package checker and printer: direct
unmemoized recursion, its own action interpretation, no cached text and no
sharing of evaluation machinery.
"""

from hdpl.kripke import KripkeModel, PointedModel, expand
from hdpl.syntax import And, At, Comp, Dia, Exists, Neg, Nom, Prop, Rel, Star, Store, Union


def naive_action(m: KripkeModel, a):
    if isinstance(a, Rel):
        return set(m.relation_interp[a.name])
    if isinstance(a, Union):
        return naive_action(m, a.left) | naive_action(m, a.right)
    if isinstance(a, Comp):
        left = naive_action(m, a.left)
        right = naive_action(m, a.right)
        return {(w, c) for (w, b) in left for (b2, c) in right if b == b2}
    if isinstance(a, Star):
        base = naive_action(m, a.body)
        closure = {(w, w) for w in m.states} | set(base)
        while True:
            step = {(w, c) for (w, b) in closure for (b2, c) in base if b == b2}
            if step <= closure:
                return closure
            closure |= step
    raise TypeError(a)


def naive_sat(m: KripkeModel, w: str, s) -> bool:
    if isinstance(s, Prop):
        return s.name in m.valuation[w]
    if isinstance(s, Nom):
        return m.nominal_interp[s.name] == w
    if isinstance(s, And):
        return all(naive_sat(m, w, i) for i in s.items)
    if isinstance(s, Neg):
        return not naive_sat(m, w, s.body)
    if isinstance(s, Dia):
        pairs = naive_action(m, s.action)
        return any(naive_sat(m, v, s.body) for (w2, v) in pairs if w2 == w)
    if isinstance(s, At):
        return naive_sat(m, m.nominal_interp[s.name], s.body)
    if isinstance(s, Store):
        return naive_sat(expand(m, s.var, w), w, s.body)
    if isinstance(s, Exists):
        return any(naive_sat(expand(m, s.var, v), w, s.body) for v in m.states)
    raise TypeError(s)


def naive_satisfies(pm: PointedModel, s) -> bool:
    return naive_sat(pm.model, pm.current, s)


# ---------------------------------------------------------------------------
# Reference printer: plain recursion over the term, nothing cached

_OR, _AND, _PREFIX = 0, 1, 2


def naive_print_action(a, need: int = 0) -> str:
    if isinstance(a, Rel):
        return a.name
    if isinstance(a, Star):
        return naive_print_action(a.body, 2) + "*"
    if isinstance(a, Comp):
        text = naive_print_action(a.left, 1) + ";" + naive_print_action(a.right, 2)
        return f"({text})" if need > 1 else text
    if isinstance(a, Union):
        text = naive_print_action(a.left, 0) + "+" + naive_print_action(a.right, 1)
        return f"({text})" if need > 0 else text
    raise TypeError(a)


def naive_print(s, need: int = _OR) -> str:
    if isinstance(s, (Prop, Nom)):
        return s.name
    if isinstance(s, And):
        if not s.items:
            return "true"
        if len(s.items) == 1:
            return naive_print(s.items[0], need)
        text = " & ".join(naive_print(i, _PREFIX) for i in s.items)
        return f"({text})" if need > _AND else text
    if isinstance(s, Neg):
        b = s.body
        if isinstance(b, And) and not b.items:
            return "false"
        if isinstance(b, And) and len(b.items) >= 2 and all(isinstance(i, Neg) for i in b.items):
            text = " | ".join(naive_print(i.body, _AND) for i in b.items)
            return f"({text})" if need > _OR else text
        if isinstance(b, Dia) and isinstance(b.body, Neg):
            return f"[{naive_print_action(b.action)}]" + naive_print(b.body.body, _PREFIX)
        if isinstance(b, Exists) and isinstance(b.body, Neg):
            return f"forall {b.var} . " + naive_print(b.body.body, _PREFIX)
        return "~" + naive_print(b, _PREFIX)
    if isinstance(s, Dia):
        return f"<{naive_print_action(s.action)}>" + naive_print(s.body, _PREFIX)
    if isinstance(s, At):
        return f"@{s.name} " + naive_print(s.body, _PREFIX)
    if isinstance(s, Store):
        return f"down {s.var} . " + naive_print(s.body, _PREFIX)
    if isinstance(s, Exists):
        return f"exists {s.var} . " + naive_print(s.body, _PREFIX)
    raise TypeError(s)
