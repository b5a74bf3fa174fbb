"""The binding paths of the evaluators. `satisfies`, `char_formula` and
`ef_solve` bind variables in an environment over one base model instead of
expanding it; these cases cover a root signature that already carries a
bound variable, `@x` and at-edges naming a root-level variable or one bound
inside the sentence or tree, and exists nested under store. Each case is
checked against routes that do expand: the naive evaluator, characteristic-
formula equality, and replaying the losing trace through `game_step`; the
characteristic formulas themselves are checked by the naive evaluator."""

import random

import pytest

from hdpl.checker import satisfies
from hdpl.corpus import observing_tree, random_model_pair
from hdpl.gameboard import parse_tree
from hdpl.games import char_formula, ef_solve, legal_moves, lower_game_sentence, replay_trace
from hdpl.kripke import PointedModel, expand
from hdpl.syntax import FragmentConfig, Signature, parse_sentence

from oracle_eval import naive_satisfies

SIG = Signature(nominals=("k",), relations=("l",), props=("p",))
FULL = FragmentConfig.full()

# (id, whether the root signature carries x0, tree, sentence)
CASES = [
    (
        "root-variable",
        True,
        "(branch (at x0 (dia l leaf)) (dia l (at x0 leaf)) (at k leaf))",
        "<l>(x0 | @x0 <l> p) & @x0 ~<l> x0 & @k ~x0",
    ),
    (
        "inner-variable-under-root-variable",
        True,
        "(down (dia l (branch (at x1 leaf) (at x0 (dia l leaf)))))",
        "down x1 . <l>(@x1 p & @x0 <l> x1) | down y . [l] @x0 ~y",
    ),
    (
        "inner-variable",
        False,
        "(branch (down (dia l (dia l (at x0 leaf)))) (dia l (down (at k (dia l leaf)))))",
        "down x . <l>(x | @x <l> down y . @x <l> y) & <l> down x . @k <l> x",
    ),
    (
        "exists-under-store",
        False,
        "(down (exists (branch (at x1 (dia l leaf)) (dia l (at x0 leaf)))))",
        "down x . exists y . (@y <l> x & ~@x y) | down x . forall y . (@y ~x | <l> y)",
    ),
    (
        "exists-under-store-under-root-variable",
        True,
        "(down (exists (branch (dia l (at x2 leaf)) (at x0 (at x1 leaf)))))",
        "down x1 . exists x2 . @x0 (<l> x2 & ~x1) & exists y . down z . @y <l> z",
    ),
]


def pointed_pairs(seed, root_bound, n):
    """Random pointed pairs over SIG, each model expanded by x0 when the
    root signature carries it."""
    rng = random.Random(seed)
    for _ in range(n):
        m, m2 = random_model_pair(rng, SIG, max_states=4)
        if root_bound:
            m = expand(m, "x0", rng.choice(m.states))
            m2 = expand(m2, "x0", rng.choice(m2.states))
        yield PointedModel(m, rng.choice(m.states)), PointedModel(m2, rng.choice(m2.states))


@pytest.mark.parametrize("root_bound, tree, sentence", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_environment_paths(root_bound, tree, sentence):
    sig = SIG
    if root_bound:
        sig = Signature(SIG.nominals, SIG.relations, SIG.props, ("x0",))
    tr = observing_tree(parse_tree(tree, sig, FULL))
    s = parse_sentence(sentence, sig, FULL)
    winners = set()
    for left, right in pointed_pairs(tree, root_bound, 120):
        chars = []
        for pm in (left, right):
            assert satisfies(pm, s) == naive_satisfies(pm, s)
            chars.append(char_formula(tr, pm))
            assert naive_satisfies(pm, lower_game_sentence(chars[-1]))
        res = ef_solve(tr, left, right)
        winners.add(res.winner)
        assert (res.winner == "eloise") == (chars[0] == chars[1])
        if res.winner == "abelard":
            assert len(res.trace) == res.loss_depth
            end = replay_trace(tr, left, right, res.trace)
            assert end.lost or (end.pending is not None and not legal_moves(end, "eloise"))
    assert winners == {"eloise", "abelard"}
