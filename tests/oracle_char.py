"""Characteristic formulas built by recursion over configurations, used as an
independent oracle in tests.

Deliberately separate from `hdpl.games.char_formula`, which classifies the
configurations with the type pass `ef_solve` uses and then builds one game
sentence per type: this recursion builds a game sentence per configuration
(node, state, environment) straight from the round rules in `_moves`.
"""

from hdpl.checker import SignatureMismatchError
from hdpl.gameboard import GameboardTree
from hdpl.games import GameSentence, GSLeaf, GSNode, GSPart, _bound_var, _moves, _point, gs_set
from hdpl.kripke import PointedModel
from hdpl.syntax import Nom, basic_sentences


def oracle_char_formula(tr: GameboardTree, pm: PointedModel) -> GameSentence:
    """The unique game sentence over `tr` the pointed model satisfies, built
    constructively with shared sub-results. A store or exists edge binds its
    variable by appending a state to the environment (see `_point`), not by
    expanding the model."""
    m = pm.model
    if m.sig != tr.sig:
        raise SignatureMismatchError("model signature differs from tree root signature")
    succ = m.succ
    memo: dict[tuple, GameSentence] = {}

    def char(node: GameboardTree, w: str, env: tuple[str, ...]) -> GameSentence:
        key = (id(node), w, env)
        got = memo.get(key)
        if got is not None:
            return got
        if not node.children:
            res: GameSentence = GSLeaf(
                tuple(
                    (b, _point(m, node, env, b.name) == w if isinstance(b, Nom) else b.name in m.valuation[w])
                    for b in basic_sentences(node.sig)
                )
            )
        else:
            parts = []
            for label, child in node.children:
                members = [char(child, v, e) for _, v, e in _moves(m, succ, node, label, w, env)]
                parts.append(GSPart(label, _bound_var(label, child), gs_set(members)))
            res = GSNode(tuple(parts))
        memo[key] = res
        return res

    return char(tr, pm.current, ())
