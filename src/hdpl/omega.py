"""Countable equivalence games solved as finite safety games, plus the
companion notions: level-indexed bisimulation families with
validation/extraction/shifting, basic partial isomorphisms and
back-and-forth systems, and the image-finite / rooted-model report harnesses.

Arena positions abstract the two players' naming histories into a set of
named state correspondences plus the current pair; the safety condition is
basic-sentence agreement of the current pair together with consistency
against every named correspondence.

Every solver moves along the base relations only, whatever constructors the
fragment enables: a diamond move keeps the named correspondences, so a
position set closed under base moves is closed under `+`, `;` and `*` too
(van Benthem, Studia Logica 60, 1998). Ranks count base-relation moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .checker import SignatureMismatchError, basic_agreement
from .gameboard import complete_tree
from .games import char_formula
from .kripke import (
    KripkeModel,
    PointedModel,
    comp_pairs,
    find_isomorphism,
    is_rooted,
    star_pairs,
    successor_map,
)
from .syntax import (
    Action,
    Comp,
    FragmentConfig,
    HdplError,
    Rel,
    Star,
    Union,
    print_action,
)

Pair = tuple[str, str]
Position = tuple[frozenset[Pair], Pair]


class OmegaError(HdplError):
    pass


class ClosureOverflowError(OmegaError):
    pass


# ---------------------------------------------------------------------------
# Semantic action-pair closure


@dataclass(frozen=True)
class ActionPair:
    """A pair of accessibility relations realized by one action term on the
    two models; the term is the first witness found."""

    term: Action
    left: frozenset[Pair]
    right: frozenset[Pair]


def action_pair_closure(
    m: KripkeModel,
    n: KripkeModel,
    ctors: frozenset[str] | set[str],
    cap: int = 4096,
) -> list[ActionPair]:
    """Least set of relation pairs containing every base relation's pair and
    closed pointwise under the enabled constructors. Distinct action terms
    denoting the same relation pair collapse to one entry. A reference
    construction that no solver reads (see the module docstring)."""
    if m.sig.relations != n.sig.relations:
        raise SignatureMismatchError("models must share relation names")
    items: list[ActionPair] = []
    seen: set[tuple[frozenset[Pair], frozenset[Pair]]] = set()

    def add(term: Action, left: frozenset[Pair], right: frozenset[Pair]) -> bool:
        key = (left, right)
        if key in seen:
            return False
        if len(items) >= cap:
            raise ClosureOverflowError(f"action-pair closure exceeded cap {cap}")
        seen.add(key)
        items.append(ActionPair(term, left, right))
        return True

    for rel in m.sig.relations:
        add(Rel(rel), m.relation_interp[rel], n.relation_interp[rel])
    changed = True
    while changed:
        changed = False
        snapshot = list(items)
        if "star" in ctors:
            for p in snapshot:
                if add(Star(p.term), star_pairs(p.left, m.states), star_pairs(p.right, n.states)):
                    changed = True
        if "union" in ctors:
            for p, q in itertools.product(snapshot, snapshot):
                if add(Union(p.term, q.term), p.left | q.left, p.right | q.right):
                    changed = True
        if "comp" in ctors:
            for p, q in itertools.product(snapshot, snapshot):
                if add(Comp(p.term, q.term), comp_pairs(p.left, q.left), comp_pairs(p.right, q.right)):
                    changed = True
    return items


def _action_steps(frag: FragmentConfig, m: KripkeModel, n: KripkeModel) -> list[tuple[Action, dict, dict]]:
    """(Rel(r), left successor map, right successor map) for each relation r
    of the signature, in signature order; none when the fragment has no
    diamond."""
    if m.sig.relations != n.sig.relations:
        raise SignatureMismatchError("models must share relation names")
    if "diamond" not in frag.ops:
        return []
    return [
        (Rel(r), successor_map(m.relation_interp[r], m.states), successor_map(n.relation_interp[r], n.states))
        for r in m.sig.relations
    ]


# ---------------------------------------------------------------------------
# The arena and the safety solver


class _Arena:
    def __init__(self, frag: FragmentConfig, m: KripkeModel, n: KripkeModel):
        if m.sig != n.sig:
            raise SignatureMismatchError("models must share a signature")
        if m.sig.bound_vars:
            raise OmegaError("countable games start from variable-free signatures")
        self.frag = frag
        self.m = m
        self.n = n
        self.agree = basic_agreement(m, n)
        self.nominal_pairs = [
            (m.nominal_interp[k], n.nominal_interp[k]) for k in m.sig.nominals
        ]
        self.steps = _action_steps(frag, m, n)

    def prop(self, pos: Position) -> bool:
        pairs, (w, v) = pos
        if not self.agree[(w, v)]:
            return False
        for a, b in pairs:
            if (w == a) != (v == b):
                return False
        return True

    def options(self, pos: Position):
        """Yield, per challenger option, the list of positions the answering
        player may choose among."""
        pairs, (w, v) = pos
        ops = self.frag.ops
        for _, sl, sr in self.steps:
            right_choices = sr[v]
            for w2 in sl[w]:
                yield [(pairs, (w2, v2)) for v2 in right_choices]
            left_choices = sl[w]
            for v2 in right_choices:
                yield [(pairs, (w2, v2)) for w2 in left_choices]
        if "at" in ops:
            for target in self.nominal_pairs:
                yield [(pairs, target)]
            for target in sorted(pairs):
                yield [(pairs, target)]
        if "store" in ops:
            yield [(pairs | {(w, v)}, (w, v))]
        if "exists" in ops:
            for w1 in self.m.states:
                yield [(pairs | {(w1, v1)}, (w, v)) for v1 in self.n.states]
            for v1 in self.n.states:
                yield [(pairs | {(w1, v1)}, (w, v)) for w1 in self.m.states]


@dataclass
class OmegaResult:
    winner: str  # 'eloise' | 'abelard'
    init: Position
    safe: set[Position] | None
    dead: set[Position]
    runs: int
    _arena: _Arena = field(repr=False)
    # (position, depth) -> can the survivor last depth rounds; shared by all ranks
    _memo: dict[tuple[Position, int], bool] = field(default_factory=dict, repr=False)

    @property
    def eloise_wins(self) -> bool:
        return self.winner == "eloise"

    def _rank(self, pos: Position, limit: int | None = None) -> int | None:
        """The first depth below `limit` at which the survivor cannot last
        from `pos`: the challenger's exact rounds-to-violation. None when
        every depth below `limit` survives."""
        depths = itertools.count() if limit is None else range(limit)
        return next((d for d in depths if not _bounded_survive(self._arena, pos, d, self._memo)), None)

    def loss_rank(self) -> int | None:
        """Minimal number of rounds within which the challenger can force a
        violation; None on a survivor win."""
        if self.winner != "abelard":
            return None
        return self._rank(self.init)

    def stabilization_height(self, cap: int = 8) -> int:
        """The tree height at which verdicts stop changing, capped at `cap`:
        the loss rank on a challenger win, otherwise 1 + the largest rank of
        a position disproven on the explored arena."""
        if self.winner == "abelard":
            return max(1, min(self.loss_rank(), cap))
        height = 1
        for pos in self.dead:
            if height >= cap:
                break
            rank = self._rank(pos, cap - 1)
            height = max(height, cap if rank is None else 1 + rank)
        return max(1, min(height, cap))


def omega_solve(frag: FragmentConfig, left: PointedModel, right: PointedModel) -> OmegaResult:
    """Decide countable game equivalence of two pointed models by solving the
    induced finite safety game.

    The solver explores lazily and optimistically from the initial position:
    cycles are assumed safe, disproofs (property violations, options with no
    surviving answer) are permanent, and a run that certified the initial
    position while any disproof occurred is restarted, because its
    assumptions may have leaned on a position that later died. The final run
    either disproves the initial position (sound immediately) or completes
    with no new deaths, in which case its certified set is closed under the
    answering player's strategy and hence genuinely safe.
    """
    arena = _Arena(frag, left.model, right.model)
    init: Position = (frozenset(), (left.current, right.current))
    dead: set[Position] = set()
    runs = 0
    while True:
        runs += 1
        certified, new_deaths, init_alive = _attempt(arena, init, dead)
        if not init_alive:
            return OmegaResult("abelard", init, None, dead, runs, arena)
        if new_deaths == 0:
            return OmegaResult("eloise", init, certified, dead, runs, arena)


def _attempt(arena: _Arena, init: Position, dead: set[Position]):
    """One optimistic depth-first certification pass. Returns the set of
    positions certified in this pass, the number of new disproofs, and
    whether the initial position survived.

    Iterative so depth is not bounded by the interpreter stack. Each frame
    is [pos, options, option_index, reply_index, fresh].
    """
    certified: set[Position] = set()
    onstack: set[Position] = set()
    deaths = 0
    result = True
    stack: list[list] = [[init, None, 0, 0, True]]
    while stack:
        f = stack[-1]
        pos = f[0]
        if f[4]:
            f[4] = False
            if pos in dead:
                stack.pop()
                result = False
                continue
            if pos in certified or pos in onstack:
                stack.pop()
                result = True
                continue
            if not arena.prop(pos):
                dead.add(pos)
                deaths += 1
                stack.pop()
                result = False
                continue
            onstack.add(pos)
            f[1] = list(arena.options(pos))
        else:
            # a child visit for reply (f[2], f[3]) just returned `result`
            if result:
                f[2] += 1  # option answered; move to the next option
                f[3] = 0
            else:
                f[3] += 1  # try the next candidate answer
        pushed = False
        while f[2] < len(f[1]):
            replies = f[1][f[2]]
            if f[3] >= len(replies):
                # no surviving answer to this option: disproven
                onstack.discard(pos)
                dead.add(pos)
                deaths += 1
                stack.pop()
                result = False
                pushed = True
                break
            r = replies[f[3]]
            if r in dead:
                f[3] += 1
                continue
            if r in certified or r in onstack:
                f[2] += 1  # answered by an already-live position
                f[3] = 0
                continue
            stack.append([r, None, 0, 0, True])
            pushed = True
            break
        if pushed:
            continue
        onstack.discard(pos)
        certified.add(pos)
        stack.pop()
        result = True
    return certified, deaths, result


def _bounded_survive(arena: _Arena, pos: Position, depth: int, memo: dict) -> bool:
    """Can the survivor last `depth` rounds from `pos`? Plain bounded-depth
    game search on arena positions, memoized on (position, depth)."""
    key = (pos, depth)
    got = memo.get(key)
    if got is None:
        got = arena.prop(pos) and (
            depth == 0
            or all(
                any(_bounded_survive(arena, r, depth - 1, memo) for r in replies)
                for replies in arena.options(pos)
            )
        )
        memo[key] = got
    return got


# ---------------------------------------------------------------------------
# Level-indexed bisimulation families

Entry = tuple[tuple[tuple[str, ...], str], tuple[tuple[str, ...], str]]


@dataclass
class LBisimFamily:
    """For each level up to l_max, a set of ((left-tuple, left-state),
    (right-tuple, right-state)) entries; tuples at level l have length l."""

    levels: dict[int, set[Entry]]
    l_max: int

    def entries(self, level: int) -> set[Entry]:
        return self.levels.get(level, set())

    def relates(self, w: str, v: str) -> bool:
        return (((), w), ((), v)) in self.entries(0)

    def size(self) -> int:
        return sum(len(s) for s in self.levels.values())


@dataclass(frozen=True)
class BisimReport:
    ok: bool
    violations: tuple[str, ...]
    note: str

    def __str__(self):
        head = "valid" if self.ok else "invalid"
        body = ("; " + "; ".join(self.violations[:10])) if self.violations else ""
        return f"{head} ({self.note}){body}"


def validate_bisim_family(
    fam: LBisimFamily,
    frag: FragmentConfig,
    m: KripkeModel,
    n: KripkeModel,
) -> BisimReport:
    """Check every clause of the level-indexed bisimulation definition on the
    supplied entries, gating each clause by the fragment. The append clauses
    are only checkable up to l_max - 1; the note records that bound."""
    violations: list[str] = []
    empty = fam.size() == 0
    steps = _action_steps(frag, m, n)

    for level in sorted(fam.levels):
        for entry in fam.levels[level]:
            (wt, w), (vt, v) = entry
            if len(wt) != level or len(vt) != level:
                violations.append(f"malformed tuple lengths at level {level}: {entry}")
                continue
            if w not in m.states or v not in n.states or not set(wt) <= set(m.states) or not set(vt) <= set(n.states):
                violations.append(f"entry mentions unknown states: {entry}")
                continue
            if m.valuation[w] != n.valuation[v]:
                violations.append(f"(prop) fails at level {level}: {entry}")
            for k in m.sig.nominals:
                if (m.nominal_interp[k] == w) != (n.nominal_interp[k] == v):
                    violations.append(f"(nom) fails for {k} at level {level}: {entry}")
            for j in range(level):
                if (wt[j] == w) != (vt[j] == v):
                    violations.append(f"(wvar) fails at index {j + 1}, level {level}: {entry}")
            for term, sl, sr in steps:
                for w2 in sl[w]:
                    if not any(((wt, w2), (vt, v2)) in fam.entries(level) for v2 in sr[v]):
                        violations.append(
                            f"(forth) fails for action {print_action(term)} to {w2}, level {level}: {entry}"
                        )
                for v2 in sr[v]:
                    if not any(((wt, w2), (vt, v2)) in fam.entries(level) for w2 in sl[w]):
                        violations.append(
                            f"(back) fails for action {print_action(term)} to {v2}, level {level}: {entry}"
                        )
            if "at" in frag.ops:
                for j in range(level):
                    if ((wt, wt[j]), (vt, vt[j])) not in fam.entries(level):
                        violations.append(f"(atv) fails at index {j + 1}, level {level}: {entry}")
                for k in m.sig.nominals:
                    target = ((wt, m.nominal_interp[k]), (vt, n.nominal_interp[k]))
                    if target not in fam.entries(level):
                        violations.append(f"(atn) fails for {k}, level {level}: {entry}")
            if level < fam.l_max:
                if "store" in frag.ops:
                    target = ((wt + (w,), w), (vt + (v,), v))
                    if target not in fam.entries(level + 1):
                        violations.append(f"(st) fails at level {level}: {entry}")
                if "exists" in frag.ops:
                    for w1 in m.states:
                        if not any(
                            ((wt + (w1,), w), (vt + (v1,), v)) in fam.entries(level + 1)
                            for v1 in n.states
                        ):
                            violations.append(f"(ex-f) fails for {w1}, level {level}: {entry}")
                    for v1 in n.states:
                        if not any(
                            ((wt + (w1,), w), (vt + (v1,), v)) in fam.entries(level + 1)
                            for w1 in m.states
                        ):
                            violations.append(f"(ex-b) fails for {v1}, level {level}: {entry}")

    note = f"append clauses checked up to level {fam.l_max - 1}"
    if empty:
        note += "; family is empty"
    return BisimReport(not violations, tuple(violations), note)


def extract_bisim_witness(
    frag: FragmentConfig,
    left: PointedModel,
    right: PointedModel,
    l_max: int,
) -> LBisimFamily:
    """Convert the safe-position fixpoint of a won countable game into a
    level-indexed family: each safe position re-expands into every tuple
    realization of its correspondence set."""
    res = omega_solve(frag, left, right)
    if not res.eloise_wins:
        raise OmegaError("cannot extract a witness from a lost game")
    levels: dict[int, set[Entry]] = {l: set() for l in range(l_max + 1)}
    for pairs, (w, v) in res.safe:
        ordered = sorted(pairs)
        for level in range(len(pairs), l_max + 1):
            for combo in itertools.product(ordered, repeat=level):
                if set(combo) != set(ordered):
                    continue
                wt = tuple(a for a, _ in combo)
                vt = tuple(b for _, b in combo)
                levels[level].add(((wt, w), (vt, v)))
    return LBisimFamily(levels, l_max)


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


# ---------------------------------------------------------------------------
# Basic partial isomorphisms and back-and-forth systems

PartialMap = frozenset[Pair]


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


@dataclass
class BackAndForthSystem:
    """The maximal family of basic partial isomorphisms closed under the
    extension clauses the fragment enables; possibly empty. It keeps the maps
    as the integer codes of `max_back_and_forth` over the states `left` and
    `right`, and decodes `maps` on first use."""

    codes: frozenset[int]
    frag: FragmentConfig
    left: tuple[str, ...]
    right: tuple[str, ...]

    @cached_property
    def maps(self) -> frozenset[PartialMap]:
        base = len(self.right) + 1
        digits = [[code // base**i % base for i in range(len(self.left))] for code in self.codes]
        return frozenset(frozenset((w, self.right[d - 1]) for w, d in zip(self.left, ds) if d) for ds in digits)

    def relates(self, w: str, v: str) -> bool:
        # the family is subset-closed, so it relates (w, v) iff it holds {(w, v)}
        if w not in self.left or v not in self.right:
            return False
        return (self.right.index(v) + 1) * (len(self.right) + 1) ** self.left.index(w) in self.codes

    def __len__(self):
        return len(self.codes)


def max_back_and_forth(frag: FragmentConfig, m: KripkeModel, n: KripkeModel) -> BackAndForthSystem:
    """Greatest fixpoint of the fragment's extension clauses over every
    basic-sentence-preserving injective partial map (including the empty
    one): the union of all back-and-forth systems between the models.

    With states indexed in model order, a map's code is the integer whose
    base-(|N|+1) digit i is 1 + the image of left state i, or 0 when i is
    unmapped. A clause on a map is met by the map itself or by a one-step
    extension, whose code adds (u+1) * base**i and so is larger. One pass in
    decreasing code order thus decides each map once, against survivors
    already decided. A sum that maps two states to u codes no enumerated
    map, so it is never a survivor."""
    if m.sig != n.sig:
        raise SignatureMismatchError("models must share a signature")
    left, right = m.states, n.states
    lidx = {w: i for i, w in enumerate(left)}
    ridx = {v: u for u, v in enumerate(right)}
    weight = [(len(right) + 1) ** i for i in range(len(left))]
    agree = basic_agreement(m, n)
    partners = [[u for u, v in enumerate(right) if agree[(w, v)]] for w in left]
    # ext[i]: what adding (i, u) adds to a code, per partner u of left state i
    ext = [[(u + 1) * weight[i] for u in partners[i]] for i in range(len(left))]
    back_ext = [[(i, (u + 1) * weight[i]) for i in range(len(left)) if u in partners[i]] for u in range(len(right))]

    steps = [
        ([tuple(lidx[x] for x in sl[w]) for w in left], [tuple(ridx[y] for y in sr[v]) for v in right])
        for _, sl, sr in _action_steps(frag, m, n)
    ]
    exists = "exists" in frag.ops
    # left states the map must cover: every state under exists, the nominals' under at
    if exists:
        targets = range(len(left))
    else:
        targets = [lidx[m.nominal_interp[k]] for k in m.sig.nominals] if "at" in frag.ops else []

    alive: set[int] = set()
    img = [-1] * len(left)
    inv = [-1] * len(right)

    def visit(i: int, code: int):
        # assign left states i, i-1, ..., 0, each digit from high to low
        if i < 0:
            if _bf_clauses_met(code, img, inv, alive, weight, ext, back_ext, targets, steps, exists):
                alive.add(code)
            return
        for u in reversed(partners[i]):
            if inv[u] < 0:
                img[i], inv[u] = u, i
                visit(i - 1, code + (u + 1) * weight[i])
                inv[u] = -1
        img[i] = -1
        visit(i - 1, code)

    visit(len(left) - 1, 0)
    return BackAndForthSystem(frozenset(alive), frag, left, right)


def _bf_clauses_met(code, img, inv, alive, weight, ext, back_ext, targets, steps, exists) -> bool:
    """Does the map with this code (image `img`, preimage `inv`, -1 where
    undefined) meet every enabled extension clause within `alive`?"""
    for i in targets:
        if img[i] < 0:
            for d in ext[i]:
                if code + d in alive:
                    break
            else:
                return False
    if exists:
        for u, k in enumerate(inv):
            if k < 0:
                for i, d in back_ext[u]:
                    if img[i] < 0 and code + d in alive:
                        break
                else:
                    return False
    for sl, sr in steps:
        for i, j in enumerate(img):
            if j < 0:
                continue
            for i2 in sl[i]:
                k = img[i2]
                if k >= 0:
                    if k not in sr[j]:
                        return False
                    continue
                for u in sr[j]:
                    if code + (u + 1) * weight[i2] in alive:
                        break
                else:
                    return False
            for u2 in sr[j]:
                k = inv[u2]
                if k >= 0:
                    if k not in sl[i]:
                        return False
                    continue
                for i3 in sl[i]:
                    if img[i3] < 0 and code + (u2 + 1) * weight[i3] in alive:
                        break
                else:
                    return False
    return True


def bf_related(frag: FragmentConfig, left: PointedModel, right: PointedModel) -> bool:
    """True iff some back-and-forth system relates the two designated states."""
    system = max_back_and_forth(frag, left.model, right.model)
    return system.relates(left.current, right.current)


# ---------------------------------------------------------------------------
# Report harnesses


@dataclass(frozen=True)
class HennessyMilnerReport:
    fragment: str
    heights: tuple[int, ...]
    char_equal_per_height: tuple[bool, ...]
    elementary_proxy: bool
    omega_equivalent: bool
    bf_equivalent: bool
    hypotheses_met: bool

    @property
    def proxy_matches_omega(self) -> bool:
        return self.elementary_proxy == self.omega_equivalent

    @property
    def bf_matches_omega(self) -> bool:
        return self.bf_equivalent == self.omega_equivalent

    @property
    def divergence_expected(self) -> bool:
        return (not self.bf_matches_omega) and (not self.hypotheses_met)

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment,
            "heights": list(self.heights),
            "char_equal_per_height": list(self.char_equal_per_height),
            "elementary_proxy": self.elementary_proxy,
            "omega_equivalent": self.omega_equivalent,
            "bf_equivalent": self.bf_equivalent,
            "hypotheses_met": self.hypotheses_met,
            "proxy_matches_omega": self.proxy_matches_omega,
            "bf_matches_omega": self.bf_matches_omega,
            "divergence_expected": self.divergence_expected,
        }


def back_and_forth_hypotheses(frag: FragmentConfig) -> bool:
    """The closure conditions under which game equivalence implies
    back-and-forth equivalence: store is present, and retrieve is present
    whenever possibility or quantification is."""
    if "store" not in frag.ops:
        return False
    if ("diamond" in frag.ops or "exists" in frag.ops) and "at" not in frag.ops:
        return False
    return True


def _feasible_height(sig, frag: FragmentConfig, wanted: int, budget: int = 100_000) -> int:
    """Largest height <= wanted whose complete tree (one dia-edge per relation)
    stays within the node budget; the at-branching grows along store chains."""
    height = 0
    nodes = 1
    level = 1
    for depth in range(wanted):
        branching = 1  # idle
        if "store" in frag.ops:
            branching += 1
        if "at" in frag.ops:
            branching += len(sig.point_names()) + ("store" in frag.ops) * depth
        if "diamond" in frag.ops:
            branching += len(sig.relations)
        level *= branching
        nodes += level
        if nodes > budget:
            break
        height = depth + 1
    return max(1, height)


def hennessy_milner_check(
    left: PointedModel,
    right: PointedModel,
    frag: FragmentConfig,
) -> HennessyMilnerReport:
    """Compare (a) characteristic-formula agreement on complete trees up to
    the solver's stabilization height, (b) the countable-game verdict, and
    (c) back-and-forth relatedness, for a quantifier-free fragment."""
    if "exists" in frag.ops:
        raise OmegaError("the image-finite harness is for quantifier-free fragments")
    res = omega_solve(frag, left, right)
    actions = tuple(Rel(r) for r in left.model.sig.relations)
    tree_frag = frag if actions or "diamond" not in frag.ops else FragmentConfig(
        frag.ops - {"diamond"}, frozenset()
    )
    height = _feasible_height(left.model.sig, tree_frag, res.stabilization_height())
    per_height = []
    for h in range(1, height + 1):
        tr = complete_tree(left.model.sig, tree_frag, h, actions)
        per_height.append(char_formula(tr, left) == char_formula(tr, right))
    return HennessyMilnerReport(
        fragment=frag.describe(),
        heights=tuple(range(1, height + 1)),
        char_equal_per_height=tuple(per_height),
        elementary_proxy=all(per_height),
        omega_equivalent=res.eloise_wins,
        bf_equivalent=bf_related(frag, left, right),
        hypotheses_met=back_and_forth_hypotheses(frag),
    )


@dataclass(frozen=True)
class RootedIsoReport:
    fragment: str
    isomorphic: bool
    omega_equivalent: bool
    isomorphism: tuple[Pair, ...] | None

    @property
    def agree(self) -> bool:
        return self.isomorphic == self.omega_equivalent

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment,
            "isomorphic": self.isomorphic,
            "omega_equivalent": self.omega_equivalent,
            "isomorphism": list(self.isomorphism) if self.isomorphism else None,
            "agree": self.agree,
        }


def rooted_iso_check(
    left: PointedModel,
    right: PointedModel,
    frag: FragmentConfig,
) -> RootedIsoReport:
    """For rooted pointed models, compare isomorphism presence with the
    countable-game verdict under a fragment containing diamond, at, store."""
    if not {"diamond", "at", "store"} <= frag.ops:
        raise OmegaError("the rooted harness needs diamond, at and store enabled")
    if not is_rooted(left) or not is_rooted(right):
        raise OmegaError("both pointed models must be rooted")
    iso = find_isomorphism(left, right)
    res = omega_solve(frag, left, right)
    return RootedIsoReport(
        fragment=frag.describe(),
        isomorphic=iso is not None,
        omega_equivalent=res.eloise_wins,
        isomorphism=tuple(sorted(iso.items())) if iso else None,
    )
