"""Local satisfaction of sentences on pointed models, and basic-sentence
agreement between two pointed models."""

from __future__ import annotations

from .kripke import PointedModel
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
    are memoized per (subterm, state, environment). Terms are hash-consed, so
    equal subterms are one object; every call on one model shares its memo and
    the subterms `check_sentence` accepted (`sat_cache`), so each is checked
    once per scope and evaluated once per state and environment on the model.
    """
    m = pm.model
    memo, checked = m.sat_cache
    check_sentence(s, m.sig, checked)
    base = m.nominal_interp  # covers the signature's own bound variables
    succ = m.succ

    def point(name: str, env: tuple) -> str:
        got = base.get(name)
        return got if got is not None else dict(env)[name]

    def ev(w: str, env: tuple, t: Sentence) -> bool:
        key = (t, w, env)
        got = memo.get(key)
        if got is not None:
            return got
        tp = type(t)
        if tp is Prop:
            res = t.name in m.valuation[w]
        elif tp is Nom:
            res = point(t.name, env) == w
        elif tp is And:
            res = all(ev(w, env, i) for i in t.items)
        elif tp is Neg:
            res = not ev(w, env, t.body)
        elif tp is Dia:
            res = any(ev(v, env, t.body) for v in succ[t.action][w])
        elif tp is At:
            res = ev(point(t.name, env), env, t.body)
        elif tp is Store:
            res = ev(w, env + ((t.var, w),), t.body)
        elif tp is Exists:
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
    return mL.profiles[pmL.current] == mR.profiles[pmR.current]
