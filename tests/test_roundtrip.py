"""Property-based round trips: generated gameboard trees through the tree text
format, and generated models through their JSON form."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpl.gameboard import KINDS, Edge, GameboardTree, child_signature, leaf, parse_tree, print_tree
from hdpl.kripke import KripkeModel, model_from_dict, model_to_dict
from hdpl.syntax import Comp, Rel, Signature, Star, Union

SIG = Signature(nominals=("k",), relations=("l", "m"), props=("p",))
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)

actions = st.recursive(
    st.sampled_from([Rel(r) for r in SIG.relations]),
    lambda inner: st.one_of(
        st.builds(Union, inner, inner), st.builds(Comp, inner, inner), st.builds(Star, inner)
    ),
    max_leaves=4,
)


@st.composite
def trees(draw, sig=SIG, height=3):
    if height == 0 or draw(st.booleans()):
        return leaf(sig)
    children = []
    for kind in draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3)):
        if kind == "at":
            arg = draw(st.sampled_from(sig.point_names()))
        else:
            arg = draw(actions) if kind == "dia" else None
        children.append((Edge(kind, arg), draw(trees(child_signature(sig, kind), height - 1))))
    return GameboardTree(sig, tuple(children))


@FAST
@given(trees())
def test_tree_text_round_trip_gives_an_equal_shared_tree(tr):
    assert parse_tree(print_tree(tr), SIG) is tr


@st.composite
def models(draw):
    states = draw(st.lists(st.text("ab01", min_size=1, max_size=2), min_size=1, max_size=4, unique=True))
    pairs = st.tuples(st.sampled_from(states), st.sampled_from(states))
    return KripkeModel(
        SIG,
        tuple(states),
        {"k": draw(st.sampled_from(states))},
        {r: draw(st.frozensets(pairs)) for r in SIG.relations},
        {w: draw(st.frozensets(st.sampled_from(SIG.props))) for w in states},
    )


@FAST
@given(models())
def test_model_json_round_trip(m):
    assert model_from_dict(json.loads(json.dumps(model_to_dict(m)))) == m
