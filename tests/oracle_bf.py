"""Round-based back-and-forth fixpoint used as an independent oracle in tests.

Deliberately separate from `hdpl.omega.max_back_and_forth`: maps are frozen
sets of state pairs, every round rescans the whole surviving family, and the
loop stops when a round deletes nothing.
"""

from hdpl.kripke import KripkeModel, successor_map
from hdpl.omega import action_pair_closure
from hdpl.syntax import FragmentConfig


def naive_max_back_and_forth(frag: FragmentConfig, m: KripkeModel, n: KripkeModel) -> frozenset:
    """Start from every basic-sentence-preserving injective partial map
    (including the empty one) and delete maps lacking a required extension
    inside the surviving family, until stable."""
    agree = {
        (w, v): m.valuation[w] == n.valuation[v]
        and all((m.nominal_interp[k] == w) == (n.nominal_interp[k] == v) for k in m.sig.nominals)
        for w in m.states
        for v in n.states
    }

    maps = set()

    def build(i, used_v, acc):
        maps.add(frozenset(acc))
        for j in range(i, len(m.states)):
            w = m.states[j]
            for v in n.states:
                if v in used_v or not agree[(w, v)]:
                    continue
                acc.append((w, v))
                used_v.add(v)
                build(j + 1, used_v, acc)
                acc.pop()
                used_v.discard(v)

    build(0, set(), [])

    action_pairs = action_pair_closure(m, n, frag.action_ctors) if "diamond" in frag.ops else []
    succ = [
        (successor_map(ap.left, m.states), successor_map(ap.right, n.states))
        for ap in action_pairs
    ]

    def extension_alive(family, h, w, cond=None):
        fwd = dict(h)
        if w in fwd:
            return (cond is None or cond(fwd[w])) and h in family
        rng = {v for _, v in h}
        return any(
            u not in rng and agree[(w, u)] and (cond is None or cond(u)) and h | {(w, u)} in family
            for u in n.states
        )

    def extension_alive_back(family, h, v, cond=None):
        bwd = {b: a for a, b in h}
        if v in bwd:
            return (cond is None or cond(bwd[v])) and h in family
        dom = {a for a, _ in h}
        return any(
            u not in dom and agree[(u, v)] and (cond is None or cond(u)) and h | {(u, v)} in family
            for u in m.states
        )

    def survives(family, h):
        if "at" in frag.ops:
            if not all(extension_alive(family, h, m.nominal_interp[k]) for k in m.sig.nominals):
                return False
        if "diamond" in frag.ops:
            for sl, sr in succ:
                for w1, v1 in h:
                    for w2 in sl[w1]:
                        if not extension_alive(family, h, w2, cond=lambda u: u in sr[v1]):
                            return False
                    for v2 in sr[v1]:
                        if not extension_alive_back(family, h, v2, cond=lambda u: u in sl[w1]):
                            return False
        if "exists" in frag.ops:
            if not all(extension_alive(family, h, w) for w in m.states):
                return False
            if not all(extension_alive_back(family, h, v) for v in n.states):
                return False
        return True

    family = maps
    while True:
        survivors = {h for h in family if survives(family, h)}
        if survivors == family:
            return frozenset(family)
        family = survivors
