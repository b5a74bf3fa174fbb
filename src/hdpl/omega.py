"""Countable equivalence games solved as finite safety games, plus the
companion notions: level-indexed bisimulation families with validation
and extraction, back-and-forth systems of basic partial isomorphisms, and
the image-finite / rooted-model report harnesses.

Arena positions abstract the two players' naming histories into a set of
named state correspondences plus the current pair, coded as one int: with
the states numbered in name order, mask bit c names pair c, so named pairs
are tried in sorted order and the search and its dead positions are the
same in every process. The safety condition (basic agreement of the current
pair, consistent with every named pair) is one mask test. A challenger
option is a row (base, codes) of replies base | code, made when a search
reaches it; a solve restarts only when a disproof voids one of its
answers. Results decode positions on iteration.

Every solver moves along the base relations only, whatever constructors the
fragment enables: a diamond move keeps the named correspondences, so a
position set closed under base moves is closed under `+`, `;` and `*` too
(van Benthem, Studia Logica 60, 1998). Ranks count base-relation moves.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Set
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .checker import SignatureMismatchError
from .gameboard import complete_tree
from .games import ef_solve
from .kripke import (
    KripkeModel,
    PointedModel,
    comp_pairs,
    find_isomorphism,
    is_rooted,
    star_pairs,
)
from .syntax import (
    Action,
    Comp,
    FragmentConfig,
    HdplError,
    Rel,
    Star,
    Union,
)

Pair = tuple[str, str]
_SPENT = (0, None)  # the row `next` gives once an `_Arena.options` generator is spent


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


def _numbered(m: KripkeModel, r: str, names) -> list[list[int]]:
    """Relation r of m as a table over the state order `names`: per state,
    its successors' numbers in `names`, in model order."""
    at, pairs = {w: i for i, w in enumerate(names)}, m.relation_interp[r]
    return [[at[x] for x in m.states if (w, x) in pairs] for w in names]


# ---------------------------------------------------------------------------
# The arena and the safety solver


class _Arena:
    """The safety game on int positions. Left state i and right state j, in
    sorted-name order, form the pair c = i*|R| + j; a position is `mask << S
    | c` with S = |L|*|R|, and mask bit c' names the pair c'. Tables, such as
    `steps` per base relation, are built on first use. `max_back_and_forth`
    reads the numbering, `agree`, `targets` and `steps` too: its maps are laid
    out as `mask` is, and each of its clause rows is the mask of the pair
    codes that a diamond, `@k` or exists row of `options` lists."""

    def __init__(self, frag: FragmentConfig, m: KripkeModel, n: KripkeModel):
        if m.sig != n.sig:
            raise SignatureMismatchError("models must share a signature")
        self.frag = frag
        self.m = m
        self.n = n
        self.left, self.right = tuple(sorted(m.states)), tuple(sorted(n.states))
        self.S = len(self.left) * len(self.right)
        self.low = (1 << self.S) - 1
        ids, pl, pr = {}, m.profiles, n.profiles  # profiles numbered per state of L, then of R
        self.profiles = [ids.setdefault(p, len(ids)) for p in (*map(pl.get, self.left), *map(pr.get, self.right))]
        self.agree = [a == b for a in self.profiles[: len(self.left)] for b in self.profiles[len(self.left) :]]
        self.templates: list[list[list[int]] | None] = [None] * self.S  # diamond and @k reply pairs
        self.same_class: list[bool] | None = None
        nominals = m.sig.nominals if "at" in frag.ops else ()
        self.targets = [[self.code(m.nominal_interp[k], n.nominal_interp[k])] for k in nominals]  # @k replies

    def code(self, w: str, v: str) -> int:
        return self.left.index(w) * len(self.right) + self.right.index(v)

    def decode(self, pos: int) -> tuple[frozenset[Pair], Pair]:
        width, mask, c = len(self.right), pos >> self.S, pos & self.low
        named = frozenset((self.left[b // width], self.right[b % width]) for b in range(self.S) if mask >> b & 1)
        return named, (self.left[c // width], self.right[c % width])

    @cached_property
    def steps(self) -> list[tuple[list[list[int]], list[list[int]]]]:
        rels = self.m.sig.relations if "diamond" in self.frag.ops else ()
        return [(_numbered(self.m, r, self.left), _numbered(self.n, r, self.right)) for r in rels]

    @cached_property
    def conflict(self) -> list[int]:
        """Per pair, the mask bits of the pairs sharing exactly one side."""
        width, S = len(self.right), self.S
        col = sum(1 << (S + i * width) for i in range(len(self.left)))
        return [((1 << width) - 1) << (S + i * width) ^ col << j for i in range(len(self.left)) for j in range(width)]

    @cached_property
    def naming(self) -> list[list[int]]:
        """The bits of the exists options: per left, then per right state."""
        rows = [self.left.index(w) * len(self.right) for w in self.m.states]
        cols = [self.right.index(v) for v in self.n.states]
        pairs = [[i + j for j in cols] for i in rows] + [[i + j for i in rows] for j in cols]
        return [[1 << (self.S + c) for c in codes] for codes in self._ordered(pairs)]

    def _ordered(self, rows: list[list[int]]) -> list[list[int]]:
        """Rows of pair codes; once refined, same-class pairs first, stably."""
        same = self.same_class
        return rows if same is None else [sorted(codes, key=lambda c: not same[c]) for codes in rows]

    def refine(self) -> bool:
        """Bisimulation classes of the modal sub-game on both models: the profiles
        split by successor classes per relation until their count is stable
        (Kanellakis & Smolka 1990), numbered by first occurrence. Drops built rows,
        and tells whether new ones can differ: some pairs share a class, some not."""
        succ = [sl + [[x + len(sl) for x in row] for row in sr] for sl, sr in self.steps]
        count, ids, keys = -1, {}, self.profiles
        while len(ids) > count:
            count, ids = len(ids), {}
            cls = [ids.setdefault(k, len(ids)) for k in keys]
            keys = list(zip(cls, *([frozenset(map(cls.__getitem__, row)) for row in t] for t in succ)))
        self.same_class = [a == b for a in cls[: len(self.left)] for b in cls[len(self.left) :]]
        self.templates = [None] * self.S
        self.__dict__.pop("naming", None)
        return 0 < sum(self.same_class) < self.S

    def prop(self, pos: int) -> bool:
        c = pos & self.low
        return self.agree[c] and (pos == c or not pos & self.conflict[c])

    def options(self, pos: int) -> Iterator[tuple[int, list[int]]]:
        """Yields one row (base, codes) per challenger option, on demand: the
        answering player may choose among base | code, for each code in order.
        Diamond and `@k` rows are the per-pair template as is, `@` a named
        pair gives (named, [c']), store (pos | bit, [0]), exists (pos, bits)."""
        c = pos & self.low
        named, ops = pos ^ c, self.frag.ops
        template = self.templates[c]
        if template is None:
            width, (i, j) = len(self.right), divmod(c, len(self.right))
            template = []
            for sl, sr in self.steps:
                rows, right = [w2 * width for w2 in sl[i]], sr[j]
                template += [[a + b for b in right] for a in rows] + [[a + b for a in rows] for b in right]
            self.templates[c] = template = self._ordered(template) + self.targets
        for codes in template:
            yield named, codes
        if "at" in ops:
            mask = pos >> self.S
            while mask:  # the named pairs, in ascending code order
                bit = mask & -mask
                yield named, [bit.bit_length() - 1]
                mask ^= bit
        if "store" in ops:
            yield pos | 1 << (self.S + c), [0]
        if "exists" in ops:
            for bits in self.naming:
                yield pos, bits


class _Positions(Set):
    """Int positions seen as (named pairs, current pair) of state names."""

    def __init__(self, codes: set[int], arena: _Arena):
        self.codes, self.arena = codes, arena

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return map(self.arena.decode, self.codes)

    def __contains__(self, pos):
        try:  # encode the query; only a well-formed one decodes back to itself
            named, (w, v) = pos
            code = self.arena.code(w, v) | sum(1 << self.arena.S + self.arena.code(a, b) for a, b in named)
        except (TypeError, ValueError):
            return False
        return code in self.codes and self.arena.decode(code) == pos

    _from_iterable = staticmethod(set)  # set operations give plain sets


@dataclass
class OmegaResult:
    winner: str  # 'eloise' | 'abelard'
    start: int  # the start position
    safe: _Positions | None  # a frontier: certified, and safe with fewer named pairs too
    dead: _Positions  # each, with more named pairs too, has an unanswerable option or is a violating start;
    # an entry may name more than another at its pair, as dead replies are matched exactly
    runs: int  # 1 + the restarted runs: the tainted ones, and one if the classes predict a win
    _arena: _Arena = field(repr=False)
    # (position, depth) -> can the survivor last depth rounds; shared by all ranks
    _memo: dict[tuple[int, int], bool] = field(default_factory=dict, repr=False)

    @property
    def eloise_wins(self) -> bool:
        return self.winner == "eloise"

    def _rank(self, pos: int) -> int:
        """The first depth at which the survivor cannot last from `pos` (the
        challenger's exact rounds-to-violation), for a dead `pos`. Each
        depth is a bounded game search over the reply rows, on a stack of
        frames [pos, depth, rows, base, codes, reply_index]."""
        prop, options, memo = self._arena.prop, self._arena.options, self._memo
        for depth in itertools.count():
            if (pos, depth) not in memo:
                rows = options(pos)
                stack = [[pos, depth, rows, *next(rows, _SPENT), 0]] if depth and prop(pos) else []
                while stack:
                    f = stack[-1]
                    p, d, rows, base, codes, j = f
                    if codes is None or j == len(codes):
                        memo[p, d] = codes is None  # every option answered, or one has no lasting reply
                        stack.pop()
                        continue
                    r = base | codes[j]
                    got = memo.get((r, d - 1))
                    if got is None:
                        got = prop(r)
                        if got and d > 1:
                            rows = options(r)
                            stack.append([r, d - 1, rows, *next(rows, _SPENT), 0])
                            continue
                        memo[r, d - 1] = got
                    if got:
                        f[3], f[4] = next(rows, _SPENT)
                        f[5] = 0
                    else:
                        f[5] = j + 1
            if not memo.setdefault((pos, depth), prop(pos)):
                return depth

    def loss_rank(self) -> int | None:
        """Minimal number of rounds within which the challenger can force a
        violation; None on a survivor win."""
        return self._rank(self.start) if self.winner == "abelard" else None


def omega_solve(frag: FragmentConfig, left: PointedModel, right: PointedModel) -> OmegaResult:
    """Decide countable game equivalence of two pointed models by solving the
    induced finite safety game.

    A start that breaks basic agreement is lost at once, in one run.
    Otherwise the solver explores lazily and optimistically from the start:
    cycles are assumed safe, a reply that breaks the property is never an
    answer, and a disproof (an option with no surviving answer) is
    permanent. A run is restarted, keeping its disproofs, when it is
    tainted: a position that answered an option while on the stack died
    later. The final run either disproves the start (sound at once) or is
    untainted; as a certified position never dies within its run, its
    certified set is then closed under the answering player's strategy.

    Replies come in model order until a run has touched |L|*|R| positions;
    it then builds classes (`_Arena.refine`), which put same-class replies
    first, and restarts if they predict a win. Verdicts and ranks ignore the
    order. Replies only add named pairs, so a position stays safe with fewer
    (De Wulf et al., "Antichains", CAV 2006): a live position answers the
    replies naming less at its pair, so `safe` stands for them too.
    """
    arena = _Arena(frag, left.model, right.model)
    if arena.m.sig.bound_vars:
        raise OmegaError("countable games start from variable-free signatures")
    init = arena.code(left.current, right.current)
    if not arena.prop(init):
        return OmegaResult("abelard", init, None, _Positions({init}, arena), 1, arena)
    dead: set[int] = set()
    safe, runs = None, 0
    while safe is None and init not in dead:
        runs += 1
        safe = _attempt(arena, init, dead)
    if init in dead:
        return OmegaResult("abelard", init, None, _Positions(dead, arena), runs, arena)
    return OmegaResult("eloise", init, _Positions(safe, arena), _Positions(dead, arena), runs, arena)


def _attempt(arena: _Arena, init: int, dead: set[int]) -> set[int] | None:
    """One optimistic depth-first certification pass from the property-holding
    position `init`; adds its disproofs to `dead` and returns the positions it
    certified, or None when the run is tainted or built classes that predict
    a win.

    `up` maps each current pair to its live positions, those on the stack and
    those certified so far, all of which hold the property; each maps to
    whether it has answered an option. Each frame is [pos, rows, base, codes,
    reply_index], (base, codes) the current row; a popped frame's parent looks
    at the same reply again and finds it live (certified) or dead. A reply
    that is dead or breaks the property is no answer; else a live position
    naming as much or more, at its pair or at a later reply's pair of the row,
    answers it; else it is pushed.
    """
    prop, options, low = arena.prop, arena.options, arena.low
    up, tainted = {init: {init: False}}, False  # the start names nothing: it is its own pair
    touched = len(dead) + 1  # the disproofs, the start and the pushes
    due = arena.S if arena.same_class is None else 0  # when the classes are built; 0 never comes
    rows = options(init)
    stack: list[list] = [[init, rows, *next(rows, _SPENT), 0]]
    while stack:
        f = stack[-1]
        pos, rows, base, codes, j = f
        if codes is None:
            stack.pop()  # every option answered: certified, stays live
        elif j == len(codes):
            stack.pop()  # no surviving answer to the current option: disproven
            dead.add(pos)
            tainted = up[pos & low].pop(pos) or tainted
        else:
            r = base | codes[j]
            live, p = up.get(r & low, ()), r  # p, in its pair's dict live, is to answer r
            if r not in live:
                if r in dead or not prop(r):
                    f[4] = j + 1  # not an answer; on to the next reply
                    continue
                for q in codes[j:]:  # a live position naming more, at the pair of this reply or a later one, answers
                    q |= base
                    live = up.get(q & low, ())
                    for p in live:
                        if not q & ~p:
                            break
                    else:
                        continue
                    break
                else:  # no cover: push this reply
                    up.setdefault(r & low, {})[r] = False
                    touched += 1
                    if touched == due and arena.refine() and arena.same_class[init]:
                        return None  # the classes predict a win that the stack's model-order rows may miss
                    rows = options(r)
                    stack.append([r, rows, *next(rows, _SPENT), 0])
                    continue
            live[p] = True
            f[2], f[3] = next(rows, _SPENT)  # answered; on to the next option
            f[4] = 0
    return None if tainted else {p for live in up.values() for p in live}


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
    if m.sig.relations != n.sig.relations:
        raise SignatureMismatchError("models must share relation names")
    violations: list[str] = []
    empty = fam.size() == 0
    rels = m.sig.relations if "diamond" in frag.ops else ()
    steps = [(r, m.succ[Rel(r)], n.succ[Rel(r)]) for r in rels]

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
            for rel, sl, sr in steps:
                for w2 in sl[w]:
                    if not any(((wt, w2), (vt, v2)) in fam.entries(level) for v2 in sr[v]):
                        violations.append(
                            f"(forth) fails for action {rel} to {w2}, level {level}: {entry}"
                        )
                for v2 in sr[v]:
                    if not any(((wt, w2), (vt, v2)) in fam.entries(level) for w2 in sl[w]):
                        violations.append(
                            f"(back) fails for action {rel} to {v2}, level {level}: {entry}"
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
    """Convert the safe region of a won countable game into a level-indexed
    family: each safe position re-expands into every tuple over its
    correspondence set, so that the family holds every subset of it too."""
    res = omega_solve(frag, left, right)
    if not res.eloise_wins:
        raise OmegaError("cannot extract a witness from a lost game")
    levels: dict[int, set[Entry]] = {l: set() for l in range(l_max + 1)}
    for pairs, (w, v) in res.safe:
        ordered = sorted(pairs)
        for level in range(l_max + 1):
            for combo in itertools.product(ordered, repeat=level):
                wt = tuple(a for a, _ in combo)
                vt = tuple(b for _, b in combo)
                levels[level].add(((wt, w), (vt, v)))
    return LBisimFamily(levels, l_max)


# ---------------------------------------------------------------------------
# Basic partial isomorphisms and back-and-forth systems


@dataclass
class BackAndForthSystem:
    """The maximal family of basic partial isomorphisms closed under the
    extension clauses the fragment enables; possibly empty. `codes` keeps
    each map as the bitmask of `max_back_and_forth`, bit i*|right| + u for
    left state i sent to right state u."""

    codes: frozenset[int]
    left: tuple[str, ...]
    right: tuple[str, ...]

    def relates(self, w: str, v: str) -> bool:
        # the family is subset-closed, so it relates (w, v) iff it holds {(w, v)}
        if w not in self.left or v not in self.right:
            return False
        return 1 << (self.left.index(w) * len(self.right) + self.right.index(v)) in self.codes

    def __len__(self):
        return len(self.codes)


def _bit_codes(mask: int) -> Iterator[int]:
    """The numbers of the set bits of mask, in ascending order."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _edge_masks(table: list[list[int]], blocks: list[int]) -> tuple[list[int], list[int]]:
    """Per state of a successor table, the union of its successors' blocks, and of its predecessors'."""
    out, into = [0] * len(table), [0] * len(table)
    for a, succ in enumerate(table):
        for b in succ:
            out[a] |= blocks[b]
            into[b] |= blocks[a]
    return out, into


def _partial_isos(cand: int, compat: list[int], blocks: list[int]) -> list[int]:
    """The sets of pairwise compatible candidates, ascending. Per block (left
    state), each map grows by each bit of `allow`, the candidates it may still
    take, into `allow & compat[bit]`; new bits, the outer loop, exceed all before."""
    maps, allows = [0], [cand]
    for k, block in enumerate(blocks):
        grown, grown_allows = [], []
        for c in _bit_codes(cand & block):
            bit, keep = 1 << c, compat[c]
            grown += [f | bit for f, a in zip(maps, allows) if a & bit]
            if k + 1 < len(blocks):  # maps on the last block take no more pairs
                grown_allows += [a & keep for a in allows if a & bit]
        maps += grown
        allows += grown_allows
    return maps


def _rows_met(f: int, rows: list[int], family: set[int]) -> bool:
    """Does map f, in each row, have a bit or grow by one into the family?"""
    for mask in rows:
        if not f & mask:
            while mask:
                b = mask & -mask
                if f | b in family:
                    break
                mask ^= b
            else:
                return False
    return True


def max_back_and_forth(frag: FragmentConfig, m: KripkeModel, n: KripkeModel) -> BackAndForthSystem:
    """Greatest fixpoint of the fragment's extension clauses over every
    basic-sentence-preserving injective partial map (including the empty
    one): the union of all back-and-forth systems between the models.

    A map is a bitmask over the pair codes c = i*|N| + u of `_Arena`. A
    candidate pair agrees on basic sentences and, under diamond, keeps each
    base relation with itself; its compatibility mask admits the pairs on
    other states that keep each relation with it both ways. The partial
    isomorphisms, the sets of pairwise compatible candidates, are generated
    in ascending order (`_partial_isos`). Each clause is a row mask: an `@k`
    target; under exists, one per left and one per right state; per mapped
    pair and relation, a forth row per left and a back row per right
    successor. A map meets a row when it has one of its bits, or when adding
    one gives a member, which is larger: so one pass in descending order
    decides every map. Without any row, every partial isomorphism is one."""
    arena = _Arena(frag, m, n)
    width, height, S = len(arena.right), len(arena.left), arena.S
    row_of = [((1 << width) - 1) << i * width for i in range(height)]  # per left state, its pairs
    col_of = [sum(1 << i * width + u for i in range(height)) for u in range(width)]  # per right state
    tables = [(sl, sr, _edge_masks(sl, row_of), _edge_masks(sr, col_of)) for sl, sr in arena.steps]
    cand, compat = 0, [0] * S  # compat[c] & cand: the candidates that c keeps every relation with
    for c in range(S):
        if arena.agree[c]:
            i, u = divmod(c, width)
            bad = 0  # the pairs that break a base relation with c
            for _, _, (out_l, in_l), (out_r, in_r) in tables:
                bad |= out_l[i] ^ out_r[u] | in_l[i] ^ in_r[u]
            if not bad >> c & 1:
                cand |= 1 << c
                compat[c] = ~(row_of[i] | col_of[u] | bad)
    maps = _partial_isos(cand, compat, row_of)
    fixed = [cand & 1 << c for [c] in arena.targets]
    if "exists" in frag.ops:
        fixed += [cand & block for block in row_of + col_of]
    clauses = {}  # per candidate bit, its forth and back rows
    for c in _bit_codes(cand):
        i, u = divmod(c, width)
        clauses[1 << c] = rows = []
        for sl, sr, (out_l, _), (out_r, _) in tables:
            rows += [cand & out_r[u] & row_of[i2] for i2 in sl[i]] + [cand & out_l[i] & col_of[u2] for u2 in sr[u]]
    if not fixed and not any(clauses.values()):
        return BackAndForthSystem(frozenset(maps), arena.left, arena.right)
    family: set[int] = set()
    for f in reversed(maps):
        met, g = _rows_met(f, fixed, family), f
        while met and g:  # the rows of each mapped pair
            b = g & -g
            met = _rows_met(f, clauses[b], family)
            g ^= b
        if met:
            family.add(f)
    return BackAndForthSystem(frozenset(family), arena.left, arena.right)


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
            **asdict(self),
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


def hennessy_milner_check(
    left: PointedModel,
    right: PointedModel,
    frag: FragmentConfig,
) -> HennessyMilnerReport:
    """Compare (a) the finite games on complete trees of heights 1 to 8,
    which the survivor wins iff the characteristic formulas agree, (b) the
    countable-game verdict, and (c) back-and-forth relatedness, for a
    quantifier-free fragment. One game on the height-8 tree decides (a): a
    complete tree offers every move at every level, so the game of height h
    is lost iff its loss comes within h rounds."""
    if "exists" in frag.ops:
        raise OmegaError("the image-finite harness is for quantifier-free fragments")
    res = omega_solve(frag, left, right)
    actions = tuple(Rel(r) for r in left.model.sig.relations)
    tree_frag = frag if actions or "diamond" not in frag.ops else FragmentConfig(
        frag.ops - {"diamond"}, frozenset()
    )
    heights = tuple(range(1, 9))
    d = ef_solve(complete_tree(left.model.sig, tree_frag, 8, actions), left, right).loss_depth
    per_height = tuple(d is None or h < d for h in heights)
    return HennessyMilnerReport(
        fragment=frag.describe(),
        heights=heights,
        char_equal_per_height=per_height,
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
        return {**asdict(self), "agree": self.agree}


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
