import random

import pytest

from hdpl import fixtures as fx
from hdpl.corpus import FRAGMENTS, default_actions, random_tree, small_signature
from hdpl.gameboard import (
    AtEdge,
    DiaEdge,
    ExistsEdge,
    GameboardTree,
    IdleEdge,
    StoreEdge,
    TreeError,
    complete_tree,
    count_nodes,
    leaf,
    parse_tree,
    print_tree,
    prune_to_height,
    tree_height,
    validate_tree,
)
from hdpl.kripke import generate_random_model
from hdpl.syntax import FragmentConfig, ParseError, Rel, Signature, Star, extend_signature

SIG = fx.SIG_P
FULL = FragmentConfig.full()


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


class TestValidate:
    def test_leaf_valid(self):
        assert validate_tree(leaf(SIG), FULL).ok

    def test_duplicate_idle_children_invalid(self):
        tr = GameboardTree(SIG, ((IdleEdge(), leaf(SIG)), (IdleEdge(), leaf(SIG))))
        report = validate_tree(tr, FULL)
        assert not report.ok
        assert "duplicate idle" in report.problems[0]

    def test_distinct_idle_branches_valid(self):
        other = GameboardTree(SIG, ((DiaEdge(Rel("l")), leaf(SIG)),))
        tr = GameboardTree(SIG, ((IdleEdge(), leaf(SIG)), (IdleEdge(), other)))
        assert validate_tree(tr, FULL).ok

    def test_duplicate_nonidle_labels_invalid(self):
        other = GameboardTree(SIG, ((DiaEdge(Rel("l")), leaf(SIG)),))
        tr = GameboardTree(SIG, ((DiaEdge(Rel("l")), leaf(SIG)), (DiaEdge(Rel("l")), other)))
        assert not validate_tree(tr, FULL).ok

    def test_store_child_must_extend_signature(self):
        tr = GameboardTree(SIG, ((StoreEdge(), leaf(SIG)),))
        report = validate_tree(tr, FULL)
        assert not report.ok
        assert "next fresh variable" in report.problems[0]

    def test_fragment_gating(self):
        ext, _ = extend_signature(SIG)
        tr = GameboardTree(SIG, ((StoreEdge(), leaf(ext)),))
        assert validate_tree(tr, frag({"store"})).ok
        assert not validate_tree(tr, frag({"diamond"})).ok

    def test_action_ctor_gating(self):
        tr = GameboardTree(SIG, ((DiaEdge(Star(Rel("l"))), leaf(SIG)),))
        assert validate_tree(tr, frag({"diamond"}, {"star"})).ok
        assert not validate_tree(tr, frag({"diamond"})).ok

    def test_undeclared_at_name(self):
        tr = GameboardTree(SIG, ((AtEdge("nope"), leaf(SIG)),))
        assert not validate_tree(tr, FULL).ok

    def test_invalid_subtree_reported_at_every_occurrence(self):
        bad = GameboardTree(SIG, ((IdleEdge(), leaf(SIG)), (AtEdge("nope"), leaf(SIG))))
        ext, _ = extend_signature(SIG)
        tr = GameboardTree(
            SIG,
            (
                (IdleEdge(), bad),
                (DiaEdge(Rel("l")), bad),
                (StoreEdge(), GameboardTree(ext, ((IdleEdge(), leaf(ext)),))),
            ),
        )
        assert validate_tree(tr, frag({"diamond", "at"})).problems == (
            "undeclared name 'nope' at root/0:idle/1:at nope",
            "undeclared name 'nope' at root/1:dia l/1:at nope",
            "edge kind 'store' not enabled at root/2:down",
        )
        with pytest.raises(TreeError) as err:
            parse_tree(print_tree(tr), SIG, frag({"diamond", "at"}))
        assert str(err.value) == (
            "invalid tree: undeclared name 'nope' at root/0:idle/1:at nope;"
            " undeclared name 'nope' at root/1:dia l/1:at nope;"
            " edge kind 'store' not enabled at root/2:down"
        )


class TestCompleteTree:
    def test_height_zero_is_leaf(self):
        assert complete_tree(SIG, FULL, 0, (Rel("l"),)) == leaf(SIG)

    def test_diamond_only_node_count(self):
        tr = complete_tree(SIG, frag({"diamond"}), 2, (Rel("l"),))
        assert count_nodes(tr) == 7  # 1 + 2 + 4: idle and one dia per level

    def test_at_option_stays_gated_after_store(self):
        tr = complete_tree(SIG, frag({"diamond", "store"}), 2, (Rel("l"),))
        labels = {type(lab) for lab, _ in tr.children}
        assert AtEdge not in labels
        store_child = next(ch for lab, ch in tr.children if isinstance(lab, StoreEdge))
        assert {type(lab) for lab, _ in store_child.children} == {IdleEdge, StoreEdge, DiaEdge}

    def test_at_edges_cover_bound_variables(self):
        sig = fx.SIG_NOM
        tr = complete_tree(sig, frag({"at", "store"}), 2, ())
        assert [lab.name for lab, _ in tr.children if isinstance(lab, AtEdge)] == ["k1", "k2"]
        store_child = next(ch for lab, ch in tr.children if isinstance(lab, StoreEdge))
        at_names = [lab.name for lab, _ in store_child.children if isinstance(lab, AtEdge)]
        assert at_names == ["k1", "k2", "x0"]

    def test_equal_subtree_heights(self):
        tr = complete_tree(SIG, FULL, 3, (Rel("l"),))

        def heights(t):
            if not t.children:
                return {0}
            return {1 + h for _, c in t.children for h in heights(c)}

        assert heights(tr) == {3}

    def test_empty_action_list_rejected_with_diamond(self):
        with pytest.raises(TreeError):
            complete_tree(SIG, frag({"diamond"}), 1, ())

    def test_valid_for_its_fragment(self):
        for f in FRAGMENTS:
            tr = complete_tree(SIG, f, 2, (Rel("l"),))
            assert validate_tree(tr, f).ok

    def test_pruning_chain(self):
        for h in range(1, 4):
            big = complete_tree(SIG, frag({"diamond", "store"}), h, (Rel("l"),))
            small = complete_tree(SIG, frag({"diamond", "store"}), h - 1, (Rel("l"),))
            assert prune_to_height(big, h - 1) == small


class TestTextFormat:
    def test_named_loop_tree(self):
        tr = parse_tree("(down (dia l (dia l leaf)))", SIG)
        assert tree_height(tr) == 3
        label0, child0 = tr.children[0]
        assert isinstance(label0, StoreEdge)
        assert child0.sig.bound_vars == ("x0",)
        label1, _ = child0.children[0]
        assert label1 == DiaEdge(Rel("l"))

    def test_leaf(self):
        assert parse_tree("leaf", SIG) == leaf(SIG)

    def test_branch(self):
        sig = fx.SIG_NOM
        tr = parse_tree("(branch (idle leaf) (at k1 leaf))", sig)
        assert len(tr.children) == 2
        assert tr.children[1][0] == AtEdge("k1")

    def test_round_trip_random(self):
        rng = random.Random(12)
        for _ in range(200):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            assert parse_tree(print_tree(tr), sig) == tr

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_tree("(dia l", SIG)

    @pytest.mark.parametrize("text, pos", [("(dia l $)", 7), ("(branch (idle leaf) $", 20), ("$leaf", 0)])
    def test_unexpected_character_at_its_offset(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_tree(text, SIG)
        assert str(err.value) == f"unexpected character '$' (at position {pos})"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("((idle leaf))", "expected edge kind, found '(' (at position 1)"),
            ("(branch (+ leaf))", "expected edge kind, found '+' (at position 9)"),
            ("(", "expected edge kind, found None (at position 1)"),
            ("(walk leaf)", "unknown edge kind 'walk' (at position 1)"),
            ("(at ( leaf)", "expected nominal or variable, found '(' (at position 4)"),
        ],
    )
    def test_bad_edge_kind(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_tree(text, SIG)
        assert str(err.value) == message

    def test_validation_error_raised_with_fragment(self):
        with pytest.raises(TreeError):
            parse_tree("(down leaf)", SIG, frag({"diamond"}))


def occurrences(tr):
    yield tr
    for _, child in tr.children:
        yield from occurrences(child)


def assert_maximally_shared(tr):
    """Equal subtrees are one object: as many objects as distinct subtrees."""
    nodes = list(occurrences(tr))
    assert len({id(node) for node in nodes}) == len(set(nodes))


class TestSharing:
    def test_parse_shares_equal_subtrees(self):
        tr = parse_tree("(branch (idle (dia l leaf)) (dia l (dia l leaf)) (down (dia l leaf)))", SIG)
        (_, idle), (_, dia), (_, down) = tr.children
        assert idle is dia
        # the same text under the store edge is over the extended signature
        assert down.sig == extend_signature(SIG)[0] and down != idle
        assert_maximally_shared(tr)

    def test_parse_shares_complete_trees(self):
        for f in FRAGMENTS:
            text = print_tree(complete_tree(fx.SIG_NOM, f, 3, (Rel("l"), Star(Rel("l")))))
            tr = parse_tree(text, fx.SIG_NOM)
            assert_maximally_shared(tr)
            assert print_tree(tr) == text

    def test_complete_tree_builds_each_distinct_subtree_once(self):
        f = frag({"diamond", "at", "store", "exists"}, {"star"})
        tr = complete_tree(fx.SIG_NOM, f, 3, (Rel("l"), Star(Rel("l"))))
        labels = [type(label) for label, _ in tr.children]
        assert labels == [IdleEdge, StoreEdge, ExistsEdge, AtEdge, AtEdge, DiaEdge, DiaEdge]
        same = {id(child) for label, child in tr.children if not isinstance(label, (StoreEdge, ExistsEdge))}
        ext = {id(child) for label, child in tr.children if isinstance(label, (StoreEdge, ExistsEdge))}
        assert len(same) == len(ext) == 1 and same != ext
        assert_maximally_shared(tr)
        # one object per (signature, height): bound-variable counts 0..3-h at height h
        assert len({id(node) for node in occurrences(tr)}) == 4 + 3 + 2 + 1

    def test_shared_tree_equals_unshared_copy(self):
        tr = complete_tree(SIG, FULL, 3, (Rel("l"),))
        copy = prune_to_height(tr, 3)
        assert copy == tr and hash(copy) == hash(tr)
        assert len({id(node) for node in occurrences(copy)}) == count_nodes(tr)

    def test_duplicate_idle_edges_still_reported(self):
        with pytest.raises(TreeError) as err:
            parse_tree("(branch (idle (dia l leaf)) (idle (dia l leaf)))", SIG, FULL)
        assert str(err.value) == "invalid tree: duplicate idle edge (same subtree) at root/1:idle"


class TestSignatureAnnotations:
    def test_path_extensions_match_structure(self):
        rng = random.Random(13)
        for _ in range(100):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))

            def walk(node, expected_sig):
                assert node.sig == expected_sig
                for label, child in node.children:
                    if isinstance(label, (StoreEdge, ExistsEdge)):
                        walk(child, extend_signature(expected_sig)[0])
                    else:
                        walk(child, expected_sig)

            walk(tr, sig)


def test_random_trees_are_valid_at_criterion_1_seed():
    """Every tree acceptance criterion 1 draws (seed 101, 500 per fragment)
    passes validation: no two idle siblings carry the same subtree."""
    rng = random.Random(101)
    invalid = []
    for f in FRAGMENTS:
        actions = default_actions(f)
        for _ in range(500):
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, actions, theta_cap=512)
            # the model draws of criterion 1, so the trees stay the same
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 5), rng.random(), sig)
            rng.choice(m.states)
            report = validate_tree(tr, f)
            if not report.ok:
                invalid.append(str(report))
    assert not invalid, f"{len(invalid)} invalid trees, first: {invalid[0]}"
