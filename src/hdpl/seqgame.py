"""Bounded-depth explicit search over sequence-based game positions.

Positions here carry the players' full naming histories as tuples, with no
set abstraction and no safety fixpoint: the survivor survives `depth` rounds
iff the basic-sentence property holds now and every challenger option has an
answer surviving `depth - 1` rounds. This is the reference oracle the arena
solver is differentially tested against; it imports nothing from that
solver's module. Like the arena, it moves along the base relations only.
"""

from __future__ import annotations

from .checker import SignatureMismatchError
from .kripke import PointedModel, successor_map
from .syntax import FragmentConfig


def seq_survives(frag: FragmentConfig, left: PointedModel, right: PointedModel, depth: int) -> bool:
    """Can the survivor last `depth` full rounds from the given start?"""
    m, n = left.model, right.model
    if m.sig != n.sig:
        raise SignatureMismatchError("models must share a signature")
    succ = [
        (successor_map(m.relation_interp[r], m.states), successor_map(n.relation_interp[r], n.states))
        for r in m.sig.relations
    ]
    nominal_pairs = [(m.nominal_interp[k], n.nominal_interp[k]) for k in m.sig.nominals]
    agree = {
        (w, v): m.valuation[w] == n.valuation[v]
        and all((m.nominal_interp[k] == w) == (n.nominal_interp[k] == v) for k in m.sig.nominals)
        for w in m.states
        for v in n.states
    }
    ops = frag.ops
    memo: dict[tuple, bool] = {}

    def prop(wt, vt, w, v) -> bool:
        if not agree[(w, v)]:
            return False
        for a, b in zip(wt, vt):
            if (w == a) != (v == b):
                return False
        return True

    def survive(wt, vt, w, v, d) -> bool:
        key = (wt, vt, w, v, d)
        got = memo.get(key)
        if got is not None:
            return got
        if not prop(wt, vt, w, v):
            memo[key] = False
            return False
        if d == 0:
            memo[key] = True
            return True
        res = True
        if "diamond" in ops:
            for sl, sr in succ:
                for w2 in sl[w]:
                    if not any(survive(wt, vt, w2, v2, d - 1) for v2 in sr[v]):
                        res = False
                        break
                if not res:
                    break
                for v2 in sr[v]:
                    if not any(survive(wt, vt, w2, v2, d - 1) for w2 in sl[w]):
                        res = False
                        break
                if not res:
                    break
        if res and "at" in ops:
            for a, b in nominal_pairs:
                if not survive(wt, vt, a, b, d - 1):
                    res = False
                    break
            if res:
                for j in range(len(wt)):
                    if not survive(wt, vt, wt[j], vt[j], d - 1):
                        res = False
                        break
        if res and "store" in ops:
            res = survive(wt + (w,), vt + (v,), w, v, d - 1)
        if res and "exists" in ops:
            for w1 in m.states:
                if not any(survive(wt + (w1,), vt + (v1,), w, v, d - 1) for v1 in n.states):
                    res = False
                    break
            if res:
                for v1 in n.states:
                    if not any(survive(wt + (w1,), vt + (v1,), w, v, d - 1) for w1 in m.states):
                        res = False
                        break
        memo[key] = res
        return res

    return survive((), (), left.current, right.current, depth)
