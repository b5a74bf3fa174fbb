import gc
import hashlib
import random
import re

import pytest

from hdpl import fixtures as fx
from hdpl import gameboard, syntax
from hdpl.corpus import FRAGMENTS, default_actions, random_tree, small_signature
from hdpl.gameboard import (
    Edge,
    GameboardTree,
    TreeError,
    complete_tree,
    leaf,
    parse_tree,
    print_tree,
    validate_tree,
)
from hdpl.kripke import generate_random_model
from hdpl.syntax import (
    Comp,
    FragmentConfig,
    ParseError,
    Rel,
    Signature,
    Star,
    Union,
    extend_signature,
    extend_signature_with,
    parse_action,
    print_action,
)
from support import count_nodes, prune_to_height, tree_height

SIG = fx.SIG_P
FULL = FragmentConfig.full()


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


class TestValidate:
    def test_leaf_valid(self):
        assert validate_tree(leaf(SIG), FULL).ok

    def test_duplicate_idle_children_invalid(self):
        tr = GameboardTree(SIG, ((Edge("idle"), leaf(SIG)), (Edge("idle"), leaf(SIG))))
        report = validate_tree(tr, FULL)
        assert not report.ok
        assert "duplicate idle" in report.problems[0]

    def test_distinct_idle_branches_valid(self):
        other = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        tr = GameboardTree(SIG, ((Edge("idle"), leaf(SIG)), (Edge("idle"), other)))
        assert validate_tree(tr, FULL).ok

    def test_duplicate_nonidle_labels_invalid(self):
        other = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)), (Edge("dia", Rel("l")), other)))
        assert not validate_tree(tr, FULL).ok

    def test_store_child_must_extend_signature(self):
        tr = GameboardTree(SIG, ((Edge("down"), leaf(SIG)),))
        report = validate_tree(tr, FULL)
        assert not report.ok
        assert "next fresh variable" in report.problems[0]

    def test_fragment_gating(self):
        ext, _ = extend_signature(SIG)
        tr = GameboardTree(SIG, ((Edge("down"), leaf(ext)),))
        assert validate_tree(tr, frag({"store"})).ok
        assert not validate_tree(tr, frag({"diamond"})).ok

    def test_action_ctor_gating(self):
        tr = GameboardTree(SIG, ((Edge("dia", Star(Rel("l"))), leaf(SIG)),))
        assert validate_tree(tr, frag({"diamond"}, {"star"})).ok
        assert not validate_tree(tr, frag({"diamond"})).ok

    def test_undeclared_at_name(self):
        tr = GameboardTree(SIG, ((Edge("at", "nope"), leaf(SIG)),))
        assert not validate_tree(tr, FULL).ok

    def test_invalid_subtree_reported_at_every_occurrence(self):
        bad = GameboardTree(SIG, ((Edge("idle"), leaf(SIG)), (Edge("at", "nope"), leaf(SIG))))
        ext, _ = extend_signature(SIG)
        tr = GameboardTree(
            SIG,
            (
                (Edge("idle"), bad),
                (Edge("dia", Rel("l")), bad),
                (Edge("down"), GameboardTree(ext, ((Edge("idle"), leaf(ext)),))),
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

    def test_every_problem_message(self):
        ext, _ = extend_signature(SIG)
        act = Union(Rel("l"), Star(Comp(Rel("l"), Rel("m"))))
        tr = GameboardTree(
            SIG,
            (
                (Edge("idle"), leaf(SIG)),
                (Edge("idle"), leaf(SIG)),
                (Edge("dia", act), leaf(SIG)),
                (Edge("dia", act), leaf(ext)),
                (Edge("at", "k"), leaf(SIG)),
                (Edge("down"), leaf(SIG)),
                (Edge("exists"), GameboardTree(ext, ((Edge("at", "x1"), leaf(ext)),))),
            ),
        )
        dia2, dia3 = "root/2:dia l+(l;m)*", "root/3:dia l+(l;m)*"
        assert validate_tree(tr, frag(())).problems == (
            "duplicate idle edge (same subtree) at root/1:idle",
            f"edge kind 'diamond' not enabled at {dia2}",
            f"action constructors ['comp', 'star', 'union'] not enabled at {dia2}",
            f"undeclared relations ['m'] at {dia2}",
            f"duplicate sibling label at {dia3}",
            f"child signature changes across dia l+(l;m)* at {dia3}",
            f"edge kind 'diamond' not enabled at {dia3}",
            f"action constructors ['comp', 'star', 'union'] not enabled at {dia3}",
            f"undeclared relations ['m'] at {dia3}",
            "edge kind 'at' not enabled at root/4:at k",
            "undeclared name 'k' at root/4:at k",
            "child signature under down at root/5:down is not the parent extended by the next fresh variable",
            "edge kind 'store' not enabled at root/5:down",
            "edge kind 'exists' not enabled at root/6:exists",
            "edge kind 'at' not enabled at root/6:exists/0:at x1",
            "undeclared name 'x1' at root/6:exists/0:at x1",
        )
        assert validate_tree(tr, FULL).problems == (
            "duplicate idle edge (same subtree) at root/1:idle",
            f"undeclared relations ['m'] at {dia2}",
            f"duplicate sibling label at {dia3}",
            f"child signature changes across dia l+(l;m)* at {dia3}",
            f"undeclared relations ['m'] at {dia3}",
            "undeclared name 'k' at root/4:at k",
            "child signature under down at root/5:down is not the parent extended by the next fresh variable",
            "undeclared name 'x1' at root/6:exists/0:at x1",
        )


class TestEdge:
    @pytest.mark.parametrize(
        "kind, arg",
        [
            ("store", None),
            ("walk", None),
            ("dia", None),
            ("at", None),
            ("idle", "k"),
            ("down", Rel("l")),
            # a dia edge takes an action term and an at edge a name
            ("dia", "l"),
            ("at", Rel("l")),
        ],
    )
    def test_rejects_a_bad_kind_or_argument(self, kind, arg):
        with pytest.raises(TreeError):
            Edge(kind, arg)


class TestCompleteTree:
    def test_height_zero_is_leaf(self):
        assert complete_tree(SIG, FULL, 0, (Rel("l"),)) == leaf(SIG)

    def test_diamond_only_node_count(self):
        tr = complete_tree(SIG, frag({"diamond"}), 2, (Rel("l"),))
        assert count_nodes(tr) == 7  # 1 + 2 + 4: idle and one dia per level

    def test_at_option_stays_gated_after_store(self):
        tr = complete_tree(SIG, frag({"diamond", "store"}), 2, (Rel("l"),))
        labels = {lab.kind for lab, _ in tr.children}
        assert "at" not in labels
        store_child = next(ch for lab, ch in tr.children if lab.kind == "down")
        assert {lab.kind for lab, _ in store_child.children} == {"idle", "down", "dia"}

    def test_at_edges_cover_bound_variables(self):
        sig = fx.SIG_NOM
        tr = complete_tree(sig, frag({"at", "store"}), 2, ())
        assert [lab.arg for lab, _ in tr.children if lab.kind == "at"] == ["k1", "k2"]
        store_child = next(ch for lab, ch in tr.children if lab.kind == "down")
        at_names = [lab.arg for lab, _ in store_child.children if lab.kind == "at"]
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

    def test_repeated_actions_give_one_edge(self):
        # equal actions are one term, whatever text they were parsed from
        actions = (Rel("l"), parse_action("(l)", SIG), Rel("l"))
        for f in FRAGMENTS:
            tr = complete_tree(SIG, f, 2, actions)
            assert validate_tree(tr, f).ok
            assert [label.arg for label, _ in tr.children if label.kind == "dia"] == [Rel("l")]
        tr = complete_tree(SIG, FULL, 1, (Star(Rel("l")), Rel("l"), Star(Rel("l"))))
        assert [label.arg for label, _ in tr.children if label.kind == "dia"] == [Star(Rel("l")), Rel("l")]

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
        assert label0 == Edge("down")
        assert child0.sig.bound_vars == ("x0",)
        label1, _ = child0.children[0]
        assert label1 == Edge("dia", Rel("l"))

    def test_leaf(self):
        assert parse_tree("leaf", SIG) == leaf(SIG)

    def test_branch(self):
        sig = fx.SIG_NOM
        tr = parse_tree("(branch (idle leaf) (at k1 leaf))", sig)
        assert len(tr.children) == 2
        assert tr.children[1][0] == Edge("at", "k1")

    def test_round_trip_random(self):
        rng = random.Random(12)
        for _ in range(200):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            assert parse_tree(print_tree(tr), sig) == tr

    def test_round_trip_every_edge_kind(self):
        text = (
            "(branch (idle leaf) (down (branch (at x0 leaf) (exists (at x1 leaf))))"
            " (exists leaf) (at k2 (dia l leaf)) (dia (l+l;l)* leaf))"
        )
        tr = parse_tree(text, fx.SIG_NOM)
        assert print_tree(tr) == text
        assert [label for label, _ in tr.children] == [
            Edge("idle"),
            Edge("down"),
            Edge("exists"),
            Edge("at", "k2"),
            Edge("dia", Star(Union(Rel("l"), Comp(Rel("l"), Rel("l"))))),
        ]
        assert parse_tree(print_tree(tr), fx.SIG_NOM) == tr

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


def outcome(text, sig, f=None):
    """The printed tree, or the error's type and message."""
    try:
        return print_tree(parse_tree(text, sig, f))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


# every error path of the tree parser, with the message and position it gave
# when the parser was recursive
PARSER_ERRORS = [
    ("", "ParseError: expected 'leaf' or '(', found None (at position 0)"),
    ("(idle leaf", "ParseError: expected ')', found None (at position 10)"),
    ("(idle (idle (idle leaf)", "ParseError: expected ')', found None (at position 23)"),
    ("(idle leaf) leaf", "ParseError: trailing input 'leaf' (at position 12)"),
    ("(idle leaf))", "ParseError: trailing input ')' (at position 11)"),
    ("leaf leaf", "ParseError: trailing input 'leaf' (at position 5)"),
    ("(branch)", "ParseError: branch needs at least one edge (at position 7)"),
    ("(walk leaf)", "ParseError: unknown edge kind 'walk' (at position 1)"),
    ("(branch (idle leaf) (walk leaf))", "ParseError: unknown edge kind 'walk' (at position 21)"),
    ("(idle (+ leaf))", "ParseError: expected edge kind, found '+' (at position 7)"),
    ("(at ( leaf)", "ParseError: expected nominal or variable, found '(' (at position 4)"),
    ("(branch (idle leaf)", "ParseError: expected ')', found None (at position 19)"),
    ("(branch (idle leaf) leaf)", "ParseError: expected ')', found 'leaf' (at position 20)"),
    ("(dia", "ParseError: expected relation name, found None (at position 4)"),
    ("(dia (l+", "ParseError: expected relation name, found None (at position 8)"),
    ("(dia (l", "ParseError: expected ')', found None (at position 7)"),
    ("(dia l", "ParseError: expected 'leaf' or '(', found None (at position 6)"),
    ("(dia l) leaf)", "ParseError: expected 'leaf' or '(', found ')' (at position 6)"),
    ("(dia m leaf)", "UndeclaredSymbolError: undeclared symbol 'm' (at position 5)"),
    ("(dia (l+m)* leaf)", "UndeclaredSymbolError: undeclared symbol 'm' (at position 8)"),
    # a bad character anywhere wins over an earlier syntax error
    ("((idle leaf)) $", "ParseError: unexpected character '$' (at position 14)"),
    ("(walk leaf) (idle $", "ParseError: unexpected character '$' (at position 18)"),
    ("(dia m leaf) $", "ParseError: unexpected character '$' (at position 13)"),
    # an error inside the second copy of a repeated subtree
    (
        "(branch (idle (dia l leaf)) (idle (dia l leaf leaf)))",
        "ParseError: expected ')', found 'leaf' (at position 46)",
    ),
    (
        "(branch (idle (dia l leaf)) (dia l (dia l leaf) leaf))",
        "ParseError: expected ')', found 'leaf' (at position 48)",
    ),
    (
        "(branch (idle (dia l leaf)) (idle (dia l (dia m leaf))))",
        "UndeclaredSymbolError: undeclared symbol 'm' (at position 46)",
    ),
]


class TestParserErrors:
    @pytest.mark.parametrize("f", [None, FULL], ids=["parse", "validate"])
    @pytest.mark.parametrize("text, expected", PARSER_ERRORS)
    def test_message_and_position(self, text, expected, f):
        assert outcome(text, SIG, f) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            # one span text under two signatures: valid under the store edge only
            (
                "(branch (down (at x0 leaf)) (idle (at x0 leaf)))",
                "TreeError: invalid tree: undeclared name 'x0' at root/1:idle/0:at x0",
            ),
            (
                "(branch (idle (dia l leaf)) (idle (dia l leaf)))",
                "TreeError: invalid tree: duplicate idle edge (same subtree) at root/1:idle",
            ),
        ],
    )
    def test_validation_of_a_repeated_subtree(self, text, expected):
        assert outcome(text, SIG) == text
        assert outcome(text, SIG, FULL) == expected


# (count, sha256) of the texts and outcomes of 3,024 corpus tree texts with
# one token deleted, duplicated or swapped with the next; recorded when the
# parser was recursive
MUTATION_DIGEST = (3024, "24b6681269fd758bb9c22c8e555326908d965a80e4daad27a4bd44dbc9873609")


def test_mutated_tree_texts_unchanged():
    digest, count = hashlib.sha256(), 0
    rng = random.Random(4242)
    for i in range(1008):
        f = FRAGMENTS[i % len(FRAGMENTS)]
        sig = small_signature(rng)
        tokens = re.findall(r"[\w']+|\S", print_tree(random_tree(rng, sig, f, default_actions(f))))
        for mutation in ("delete", "duplicate", "swap"):
            t = list(tokens)
            k = rng.randrange(len(t))
            if mutation == "delete":
                del t[k]
            elif mutation == "duplicate":
                t.insert(k, t[k])
            else:
                t[k : k + 2] = reversed(t[k : k + 2])
            text = " ".join(t)
            # validated against every fragment in turn, or not at all
            vf = FRAGMENTS[count % len(FRAGMENTS)] if count % 8 else None
            digest.update(f"{text}\n{outcome(text, sig, vf)}\n".encode())
            count += 1
    assert (count, digest.hexdigest()) == MUTATION_DIGEST


def assert_validation_folds(text, sig, f):
    """Parsing with a fragment gives the tree parsing without one gives, or
    the TreeError that validating that tree calls for."""
    plain = parse_tree(text, sig)
    report = validate_tree(plain, f)
    if report.ok:
        assert parse_tree(text, sig, f) == plain
    else:
        with pytest.raises(TreeError) as err:
            parse_tree(text, sig, f)
        assert str(err.value) == f"invalid tree: {report}"
    return report


class TestValidationWhileParsing:
    def test_corpus_trees_under_every_fragment(self):
        rng = random.Random(28)
        for gen_frag in FRAGMENTS:
            for _ in range(40):
                sig = small_signature(rng)
                text = print_tree(random_tree(rng, sig, gen_frag, default_actions(gen_frag)))
                for f in FRAGMENTS:
                    assert_validation_folds(text, sig, f)

    @pytest.mark.parametrize(
        "text, f, problem",
        [
            ("(branch (idle leaf) (dia l (down leaf)))", frag({"diamond"}), "edge kind 'store' not enabled"),
            ("(dia l (branch (idle leaf) (at x0 leaf)))", FULL, "undeclared name 'x0'"),
            ("(dia l (dia l* leaf))", frag({"diamond"}), "action constructors ['star'] not enabled"),
            ("(down (branch (dia l leaf) (dia l (idle leaf))))", FULL, "duplicate sibling label"),
            ("(dia l (branch (idle leaf) (idle (dia l leaf)) (idle leaf)))", FULL, "duplicate idle edge"),
        ],
    )
    def test_one_node_fails_one_check(self, text, f, problem):
        report = assert_validation_folds(text, SIG, f)
        assert len(report.problems) == 1 and report.problems[0].startswith(problem)

    def test_a_later_syntax_error_wins(self):
        with pytest.raises(ParseError):
            parse_tree("(branch (down leaf) (idle leaf) leaf)", SIG, frag({"diamond"}))


class TestLabelTable:
    def test_a_repeated_label_followed_by_an_operator_parses_on(self):
        tr = parse_tree("(branch (dia l leaf) (dia l * leaf))", SIG)
        assert [label.arg for label, _ in tr.children] == [Rel("l"), Star(Rel("l"))]
        sig = Signature(relations=("l", "leaf"))
        tr = parse_tree("(branch (dia l leaf) (dia l + leaf leaf))", sig)
        assert [label.arg for label, _ in tr.children] == [Rel("l"), Union(Rel("l"), Rel("leaf"))]
        assert tr.children[1][1] == leaf(sig)

    def test_relations_named_like_tree_words(self):
        sig = Signature(relations=("leaf", "idle"))
        tr = parse_tree("(branch (dia leaf leaf) (dia idle (dia leaf (idle leaf))) (idle (dia idle leaf)))", sig)
        assert [label for label, _ in tr.children] == [Edge("dia", Rel("leaf")), Edge("dia", Rel("idle")), Edge("idle")]
        ((label, child),) = tr.children[1][1].children
        assert label == Edge("dia", Rel("leaf")) and child.children == ((Edge("idle"), leaf(sig)),)

    def test_an_undeclared_relation_in_a_later_label(self):
        # the messages and positions of the parser that parsed every label
        for text, expected in [
            ("(branch (dia l leaf) (dia l;m leaf))", 28),
            ("(branch (dia l* leaf) (dia l (dia l*;m leaf)))", 37),
        ]:
            for f in (None, FULL):
                assert outcome(text, SIG, f) == f"UndeclaredSymbolError: undeclared symbol 'm' (at position {expected})"

    def test_each_distinct_label_is_parsed_once(self, monkeypatch):
        parse_act = gameboard._parse_act_union
        starts = []
        monkeypatch.setattr(gameboard, "_parse_act_union", lambda ts, *rest: starts.append(ts.i) or parse_act(ts, *rest))
        tr = complete_tree(SIG, FULL, 3, (Rel("l"), Star(Rel("l"))))
        assert parse_tree(print_tree(tr), SIG, FULL) == tr
        assert len(starts) == 2

    def test_more_distinct_labels_than_the_table_keeps(self):
        sig = Signature(relations=tuple(f"r{i}" for i in range(12)))
        actions = [Rel(f"r{i}") for i in range(12)] + [Comp(Rel("r11"), Rel("r0"))]
        text = "(branch " + " ".join(f"(dia {print_action(a)} leaf)" for a in actions) + " (idle (dia r0 (dia r11 leaf))))"
        tr = parse_tree(text, sig, FULL)
        assert [label.arg for label, _ in tr.children[:-1]] == actions
        assert print_tree(tr) == text


def occurrences(tr):
    yield tr
    for _, child in tr.children:
        yield from occurrences(child)


def assert_maximally_shared(tr):
    """Equal subtrees are one object: as many objects as subtrees distinct by
    signature and text."""
    nodes = list(occurrences(tr))
    assert len({id(node) for node in nodes}) == len({(node.sig, print_tree(node)) for node in nodes})


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
        labels = [label.kind for label, _ in tr.children]
        assert labels == ["idle", "down", "exists", "at", "at", "dia", "dia"]
        same = {id(child) for label, child in tr.children if label.kind not in ("down", "exists")}
        ext = {id(child) for label, child in tr.children if label.kind in ("down", "exists")}
        assert len(same) == len(ext) == 1 and same != ext
        assert_maximally_shared(tr)
        # one object per (signature, height): bound-variable counts 0..3-h at height h
        assert len({id(node) for node in occurrences(tr)}) == 4 + 3 + 2 + 1

    def test_rebuilt_tree_is_the_shared_tree(self):
        tr = complete_tree(SIG, FULL, 3, (Rel("l"),))
        assert prune_to_height(tr, 3) is tr
        assert prune_to_height(tr, 2) is complete_tree(SIG, FULL, 2, (Rel("l"),))

    def test_duplicate_idle_edges_still_reported(self):
        with pytest.raises(TreeError) as err:
            parse_tree("(branch (idle (dia l leaf)) (idle (dia l leaf)))", SIG, FULL)
        assert str(err.value) == "invalid tree: duplicate idle edge (same subtree) at root/1:idle"


class TestInterning:
    """Trees share the term intern table, keyed on the signature, itself
    interned, and the children tuple: equal trees are one object, and the
    table keeps no dead tree."""

    def test_equal_signatures_give_one_tree(self):
        a, b = Signature(("k",), ("l",), ("p",)), Signature(("k",), ("l",), ("p",))
        assert a is b and leaf(a) is leaf(b)
        down_a = GameboardTree(a, ((Edge("down"), leaf(extend_signature(a)[0])),))
        assert down_a is GameboardTree(b, ((Edge("down"), leaf(extend_signature_with(b, "x0"))),))

    def test_one_field_apart_gives_distinct_trees(self):
        base = Signature(("k",), ("l",), ("p",))
        sigs = [
            base,
            Signature(("k",), ("l",), ("p", "q")),
            Signature((), ("l",), ("p",)),
            Signature((), ("l",), ("k", "p")),  # k a prop, not a nominal
            Signature(("k",), ("l", "m"), ("p",)),
            Signature(("k",), ("l",), ("p",), ("x0",)),
        ]
        leaves = [leaf(sig) for sig in sigs]
        assert len(set(leaves)) == len(sigs)
        assert all(tr.sig == sig for tr, sig in zip(leaves, sigs))
        child = GameboardTree(base, ((Edge("idle"), leaf(base)),))
        trees = [
            GameboardTree(base, ((Edge("dia", Rel("l")), leaf(base)),)),
            GameboardTree(base, ((Edge("dia", Star(Rel("l"))), leaf(base)),)),
            GameboardTree(base, ((Edge("at", "k"), leaf(base)),)),
            GameboardTree(base, ((Edge("idle"), leaf(base)),)),
            GameboardTree(base, ((Edge("idle"), child),)),
            GameboardTree(base, ((Edge("idle"), leaf(base)), (Edge("idle"), child))),
            GameboardTree(base, ((Edge("idle"), child), (Edge("idle"), leaf(base)))),
        ]
        assert len(set(trees)) == len(trees)

    def test_dead_trees_leave_the_table(self):
        gc.collect()
        before = len(syntax._TABLE)
        rng = random.Random(7)
        trees = [random_tree(rng, small_signature(rng), f, default_actions(f)) for f in FRAGMENTS * 200]
        trees += [complete_tree(small_signature(rng), f, 3, default_actions(f)) for f in FRAGMENTS]
        assert len(syntax._TABLE) > before + 400
        assert all(type(ref) is syntax._Ref and ref() is not None for ref in syntax._TABLE.values())
        del trees
        gc.collect()
        assert len(syntax._TABLE) == before


class TestDeepTrees:
    def test_deep_idle_chain(self):
        depth = 10000
        tr = parse_tree("(idle " * depth + "leaf" + ")" * depth, SIG, FULL)
        for _ in range(depth):
            ((label, tr),) = tr.children
            assert label == Edge("idle")
        assert tr == leaf(SIG)

    def test_deep_dia_star_chain(self):
        depth = 10000
        tr = parse_tree("(dia l* " * depth + "leaf" + ")" * depth, SIG, FULL)
        for _ in range(depth):
            ((label, tr),) = tr.children
            assert label == Edge("dia", Star(Rel("l")))
        assert tr == leaf(SIG)

    def test_deep_chains_compare(self):
        # equal chains from separate parses are one object
        depth = 10000
        chain = "(idle " * depth + "{}" + ")" * depth
        a, b = parse_tree(chain.format("leaf"), SIG), parse_tree(chain.format("leaf"), SIG)
        assert a is b
        c = parse_tree(chain.format("(dia l leaf)"), SIG)
        assert a is not c and a != c and c is parse_tree(chain.format("(dia l leaf)"), SIG)

    def test_deep_chains_differing_at_the_bottom_are_distinct(self):
        def chain(action):
            node = GameboardTree(SIG, ((Edge("dia", action), leaf(SIG)),))
            for _ in range(10000):
                node = GameboardTree(SIG, ((Edge("idle"), node),))
            return node

        assert chain(Rel("l")) is chain(Rel("l"))
        assert chain(Rel("l")) is not chain(Star(Rel("l")))

    def test_problem_deep_in_a_chain(self):
        depth = 10000
        with pytest.raises(TreeError) as err:
            parse_tree("(idle " * depth + "(down leaf)" + ")" * depth, SIG, frag({"diamond"}))
        assert str(err.value) == "invalid tree: edge kind 'store' not enabled at root" + "/0:idle" * depth + "/0:down"


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
                    if label.kind in ("down", "exists"):
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
