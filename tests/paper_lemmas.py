"""The paper's proof devices for its theorems on level-indexed families,
which no decider calls: the shift of a family after both sides name a
state, and the map a level entry's tuples define, re-checked as a basic
partial isomorphism."""

import itertools
from dataclasses import dataclass

from hdpl.kripke import KripkeModel
from hdpl.omega import Entry, LBisimFamily, OmegaError, Pair


def shift_family(fam: LBisimFamily, anchor: Entry) -> LBisimFamily:
    """Re-anchor a family after naming a state on both sides: level-l entries
    of the result are the level-(l+1) entries of the source whose tuples
    start with the anchored states."""
    (mu_t, mu_cur), (nu_t, nu_cur) = anchor
    if len(mu_t) != 1 or len(nu_t) != 1:
        raise OmegaError("anchor must be a level-1 entry")
    if anchor not in fam.entries(1):
        raise OmegaError("anchor is not in the family at level 1")
    mu, nu = mu_t[0], nu_t[0]
    levels: dict[int, set[Entry]] = {}
    for level in range(0, fam.l_max):
        shifted = set()
        for (wt, w), (vt, v) in fam.entries(level + 1):
            if wt and wt[0] == mu and vt and vt[0] == nu:
                shifted.add(((wt[1:], w), (vt[1:], v)))
        levels[level] = shifted
    return LBisimFamily(levels, fam.l_max - 1)


@dataclass(frozen=True)
class PartialIsoReport:
    mapping: tuple[Pair, ...]
    injective: bool
    basic_preserving: bool
    relation_preserving: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.injective and self.basic_preserving and self.relation_preserving


def partial_iso_from_tuple(m: KripkeModel, n: KripkeModel, entry: Entry) -> PartialIsoReport:
    """The map sending each named state on the left to its counterpart on the
    right, re-checked for injectivity, basic-sentence preservation, and
    relation preservation in both directions."""
    (wt, _), (vt, _) = entry
    pairs = list(dict.fromkeys(zip(wt, vt)))
    violations: list[str] = []
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    injective = True
    for a, b in pairs:
        if fwd.get(a, b) != b or bwd.get(b, a) != a:
            injective = False
            violations.append(f"not a partial bijection at ({a},{b})")
        fwd[a] = b
        bwd[b] = a
    basic = True
    for a, b in pairs:
        if m.valuation[a] != n.valuation[b]:
            basic = False
            violations.append(f"prop disagreement at ({a},{b})")
        for k in m.sig.nominals:
            if (m.nominal_interp[k] == a) != (n.nominal_interp[k] == b):
                basic = False
                violations.append(f"nominal {k} disagreement at ({a},{b})")
    relational = True
    for rel in m.sig.relations:
        rm = m.relation_interp[rel]
        rn = n.relation_interp[rel]
        for (a1, b1), (a2, b2) in itertools.product(pairs, pairs):
            if ((a1, a2) in rm) != ((b1, b2) in rn):
                relational = False
                violations.append(f"relation {rel} disagreement at ({a1},{a2})/({b1},{b2})")
    return PartialIsoReport(tuple(pairs), injective, basic, relational, tuple(violations))
