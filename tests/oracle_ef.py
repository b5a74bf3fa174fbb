"""The finite game searched over pairs of configurations, used as an
independent oracle in tests.

Deliberately separate from `hdpl.games.ef_solve`, which compares per-side
type ids: this search explores the product of both sides, one position per
(node, left state, left environment, right state, right environment).
"""

from hdpl.checker import SignatureMismatchError
from hdpl.gameboard import GameboardTree, edge_text
from hdpl.games import EfResult, TraceStep, _holds_a_set, _moves
from hdpl.kripke import PointedModel


def oracle_ef_solve(tr: GameboardTree, left: PointedModel, right: PointedModel) -> EfResult:
    """Decide the game on `tr`: the survivor player wins iff the basic-sentence
    property holds now and every challenger option on either model has a
    matching answer on the other.

    One memoized search gives the verdict and, on a challenger win, the
    losing line: the fewest rounds the challenger needs to force a property
    violation (`loss_depth`) and a replayable trace. Along the line the
    challenger takes the first option with the smallest depth and the
    survivor the first answer with the largest depth, so the trace ends in a
    violation or in a round the survivor cannot answer.

    A position is (node, left state, left environment, right state, right
    environment) over the two base models; a store or exists round appends
    the bound states to the environments (see `_point`)."""
    Lm, Rm = left.model, right.model
    if Lm.sig != tr.sig or Rm.sig != tr.sig:
        raise SignatureMismatchError("both models must share the tree root signature")
    sl, sr = Lm.succ, Rm.succ

    names = tr.sig.point_names()  # the root names; the environments cover the rest
    basic = {
        (w, v): Lm.valuation[w] == Rm.valuation[v]
        and all((Lm.nominal_interp[k] == w) == (Rm.nominal_interp[k] == v) for k in names)
        for w in Lm.states
        for v in Rm.states
    }

    def agree(Lw, Lenv, Rv, Renv) -> bool:
        if not basic[(Lw, Rv)]:
            return False
        for a, b in zip(Lenv, Renv):
            if (a == Lw) != (b == Rv):
                return False
        return True

    def options(node, Lw, Lenv, Rv, Renv):
        """Yield (edge_index, label, side, target, answers) per challenger
        option; answers are (answering state, position) pairs, the state
        None on the deterministic at, store and idle edges."""
        for i, (label, child) in enumerate(node.children):
            ls = _moves(Lm, sl, node, label, Lw, Lenv)
            rs = _moves(Rm, sr, node, label, Rv, Renv)
            if not _holds_a_set(label):
                (_, w2, e2), (_, v2, f2) = ls[0], rs[0]
                yield i, label, None, None, [(None, (child, w2, e2, v2, f2))]
                continue
            for p, w2, e2 in ls:
                yield i, label, "left", p, [(q, (child, w2, e2, v2, f2)) for q, v2, f2 in rs]
            for q, v2, f2 in rs:
                yield i, label, "right", q, [(p, (child, w2, e2, v2, f2)) for p, w2, e2 in ls]

    memo: dict[tuple, tuple[int, tuple[TraceStep, ...]] | None] = {}

    def loss(node, Lw, Lenv, Rv, Renv) -> tuple[int, tuple[TraceStep, ...]] | None:
        """None when the survivor wins from here, else (depth, line)."""
        if not agree(Lw, Lenv, Rv, Renv):
            return 0, ()
        key = (id(node), Lw, Lenv, Rv, Renv)
        if key in memo:
            return memo[key]
        best = None
        for i, label, side, target, answers in options(node, Lw, Lenv, Rv, Renv):
            deepest = None  # (depth, answer, line) of the survivor's best answer
            for eloise, reply in answers:
                sub = loss(*reply)
                if sub is None:
                    break  # this answer survives: the option is refuted
                if deepest is None or sub[0] > deepest[0]:
                    deepest = (sub[0], eloise, sub[1])
            else:
                depth, eloise, line = deepest or (0, None, ())
                if best is None or depth + 1 < best[0]:
                    best = (depth + 1, (TraceStep(i, edge_text(label), side, target, eloise),) + line)
        memo[key] = best
        return best

    found = loss(tr, left.current, (), right.current, ())
    if found is None:
        return EfResult("eloise")
    return EfResult("abelard", found[1], found[0])
