"""Local satisfaction of sentences on pointed models, and basic-sentence
agreement between two pointed models or between all pairs of their states."""

from __future__ import annotations

from .kripke import KripkeModel, PointedModel, Successors
from .syntax import (
    And,
    At,
    Dia,
    Exists,
    HdplError,
    Neg,
    Nom,
    Prop,
    Sentence,
    Store,
    check_sentence,
)


class SignatureMismatchError(HdplError):
    pass


def satisfies(pm: PointedModel, s: Sentence) -> bool:
    """Decide whether the pointed model satisfies the sentence.

    The binders of `s` extend an environment, the (variable, state) pairs
    bound on the way down, instead of expanding the model. Subterm results
    are memoized per (subterm, state, environment), so shared subterms are
    evaluated once; semantically this is the plain recursive satisfaction.
    """
    m = pm.model
    check_sentence(s, m.sig)
    base = m.nominal_interp  # covers the signature's own bound variables
    succ = Successors(m)
    memo: dict[tuple, bool] = {}

    def point(name: str, env: tuple) -> str:
        got = base.get(name)
        return got if got is not None else dict(env)[name]

    def ev(w: str, env: tuple, t: Sentence) -> bool:
        key = (id(t), w, env)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(t, Prop):
            res = t.name in m.valuation[w]
        elif isinstance(t, Nom):
            res = point(t.name, env) == w
        elif isinstance(t, And):
            res = all(ev(w, env, i) for i in t.items)
        elif isinstance(t, Neg):
            res = not ev(w, env, t.body)
        elif isinstance(t, Dia):
            res = any(ev(v, env, t.body) for v in succ[t.action][w])
        elif isinstance(t, At):
            res = ev(point(t.name, env), env, t.body)
        elif isinstance(t, Store):
            res = ev(w, env + ((t.var, w),), t.body)
        elif isinstance(t, Exists):
            res = any(ev(w, env + ((t.var, v),), t.body) for v in m.states)
        else:
            raise TypeError(f"not a sentence: {t!r}")
        memo[key] = res
        return res

    return ev(pm.current, (), s)


def game_property(pmL: PointedModel, pmR: PointedModel) -> bool:
    """True iff the two pointed models agree on every basic sentence: every
    prop at the current state, and every nominal/variable equation."""
    mL, mR = pmL.model, pmR.model
    if mL.sig != mR.sig:
        raise SignatureMismatchError(f"signatures differ: {mL.sig} vs {mR.sig}")
    return basic_agreement(mL, mR)[(pmL.current, pmR.current)]


def basic_agreement(m: KripkeModel, n: KripkeModel) -> dict[tuple[str, str], bool]:
    """Whether each left/right pair of states satisfies the same basic
    sentences: the same propositions and the same nominal/variable equations."""
    names = m.sig.point_names()
    return {
        (w, v): m.valuation[w] == n.valuation[v]
        and all((m.nominal_interp[x] == w) == (n.nominal_interp[x] == v) for x in names)
        for w in m.states
        for v in n.states
    }
