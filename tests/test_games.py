import hashlib
import random

import pytest

from hdpl import fixtures as fx
from hdpl.checker import satisfies
from hdpl.corpus import (
    FRAGMENTS,
    default_actions,
    observing_tree,
    random_model_pair,
    random_tree,
    small_signature,
)
from hdpl.gameboard import (
    Edge,
    GameboardTree,
    complete_tree,
    leaf,
    parse_tree,
    print_tree,
)
from hdpl.games import (
    AbelardMove,
    CapExceededError,
    EloiseMove,
    GSLeaf,
    GSNode,
    GSPart,
    IllegalMoveError,
    char_formula,
    ef_solve,
    enumerate_game_sentences,
    game_step,
    gs_set,
    gs_text,
    legal_moves,
    lower_game_sentence,
    normal_form,
    replay_trace,
    start_game,
    predicted_theta_size,
)
from hdpl.kripke import PointedModel, generate_random_model, model_from_dict, model_to_dict
from hdpl.syntax import (
    And,
    FragmentConfig,
    Nom,
    Prop,
    Rel,
    Signature,
    SignatureError,
    Star,
    Store,
    UndeclaredSymbolError,
    extend_signature,
    parse_sentence,
    print_sentence,
)
from oracle_char import oracle_char_formula
from oracle_ef import oracle_ef_solve
from support import canonical_vars, game_loss_depth, prune_to_height, random_sentence

SIG = fx.SIG_P
FULL = FragmentConfig.full()


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


def random_pointed(rng, sig, max_states=4):
    m = generate_random_model(rng.randrange(2**30), rng.randint(1, max_states), rng.random(), sig)
    return PointedModel(m, rng.choice(m.states))


class TestLowering:
    def test_leaf_single_positive(self):
        assert print_sentence(lower_game_sentence(GSLeaf(((Prop("p"), True),)))) == "p"

    def test_empty_member_set_is_box_false(self):
        lowered = lower_game_sentence(GSNode((GSPart(Edge("dia", Rel("l")), None, ()),)))
        assert print_sentence(lowered) == "[l]false"

    def test_worked_two_member_component(self):
        sigx = Signature(relations=("l",), props=("p",), bound_vars=("x",))
        ga = GSLeaf(((Nom("x"), False), (Prop("p"), True)))
        gb = GSLeaf(((Nom("x"), False), (Prop("p"), False)))
        lowered = lower_game_sentence(GSNode((GSPart(Edge("dia", Rel("l")), None, gs_set([ga, gb])),)))
        expected = parse_sentence(
            "<l>(~x & p) & <l>(~x & ~p) & [l]((~x & p) | (~x & ~p))", sigx
        )
        assert lowered == expected


# (count, sha256) of the lowered texts, one per line, of every game sentence
# over 70 `hdpl.corpus` tree draws; recorded before terms were hash-consed
LOWERED_DIGEST = (2886, "98a350c3dbf8faad5ae3a83b0a14f7c4aa326022f0e412e193c2266a891203d3")


class TestLoweredTerms:
    def test_lowered_texts_unchanged(self):
        digest, count = hashlib.sha256(), 0
        rng = random.Random(2024)
        for f in FRAGMENTS:
            for _ in range(10):
                tr = random_tree(rng, small_signature(rng), f, default_actions(f), max_height=3, theta_cap=256)
                for g in enumerate_game_sentences(tr, 256):
                    digest.update(print_sentence(lower_game_sentence(g)).encode() + b"\n")
                    count += 1
        assert (count, digest.hexdigest()) == LOWERED_DIGEST

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_equal_lowered_sentences_are_one_object(self, f):
        rng = random.Random(5)
        for _ in range(4):
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, default_actions(f), max_height=2, theta_cap=64)
            theta = enumerate_game_sentences(tr, 64)
            for g in theta:
                s = lower_game_sentence(g)
                assert lower_game_sentence(g) is s
                assert parse_sentence(print_sentence(s), sig) is s
            # char_formula builds an equal game sentence of its own; its
            # lowering is the same object as the enumerated one's
            g = char_formula(tr, random_pointed(rng, sig))
            assert lower_game_sentence(g) is lower_game_sentence(theta[theta.index(g)])

    def test_each_part_is_lowered_once(self, monkeypatch):
        from hdpl import games

        calls = []
        real = games._lower_part
        monkeypatch.setattr(games, "_lower_part", lambda *args: calls.append(args) or real(*args))
        tr = complete_tree(SIG, frag({"diamond"}), 2, [Rel("l")])
        theta = enumerate_game_sentences(tr, 10_000)
        parts, stack = {}, list(theta)
        while stack:
            g = stack.pop()
            for p in getattr(g, "parts", ()):
                if id(p) not in parts:
                    parts[id(p)] = p
                    stack.extend(p.members)
        for g in theta + theta:
            lower_game_sentence(g)
        assert len(calls) == len(parts) < len(theta) * len(tr.children)


class TestCharFormula:
    def test_leaf_records_signs(self):
        left, _ = fx.fork_pair()
        g = char_formula(leaf(SIG), PointedModel(left.model, "1"))
        assert g == GSLeaf(((Prop("p"), True),))

    def test_fork_pair_agrees_on_one_step_tree(self):
        left, right = fx.fork_pair()
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        gl = char_formula(tr, left)
        gr = char_formula(tr, right)
        assert gl == gr
        assert gl.parts[0].members == (GSLeaf(((Prop("p"), True),)),)

    def test_loop_pair_differs_on_named_tree(self):
        left, right = fx.loop_pair(4)
        tr = parse_tree("(down (dia l (dia l leaf)))", SIG)
        assert char_formula(tr, left) != char_formula(tr, right)
        # cross-check with the independent game solver
        assert ef_solve(tr, left, right).winner == "abelard"

    def test_equality_agrees_with_the_canonical_text(self):
        # == walks the two DAGs once per pair of objects; it must agree with
        # text equality on sentences, parts and leaves built apart, and equal
        # sentences keep equal hashes
        rng = random.Random(23)
        outcomes = set()
        for k in range(300):
            f = FRAGMENTS[k % len(FRAGMENTS)]
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, default_actions(f), max_height=4, theta_cap=10**6)
            m, n = random_model_pair(rng, sig, max_states=3)
            gl = char_formula(tr, PointedModel(m, rng.choice(m.states)))
            gr = char_formula(tr, PointedModel(n, rng.choice(n.states)))
            pairs = [(gl, gr), (gl, gl.parts[0] if isinstance(gl, GSNode) else gr)]
            pairs += zip(getattr(gl, "parts", ()), getattr(gr, "parts", ()))
            for a, b in pairs:
                same = gs_text(a) == gs_text(b)
                assert (a == b) == same and (a != b) != same
                assert not same or hash(a) == hash(b)
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_satisfies_own_lowering(self):
        rng = random.Random(7)
        for _ in range(150):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            pm = random_pointed(rng, sig)
            g = char_formula(tr, pm)
            assert satisfies(pm, lower_game_sentence(g))


class TestWorkedNamedLoopChain:
    """The fully worked verdict on the named-loop tree: the nested game
    sentence built from the two-member leaf set separates the two models,
    and it is exactly the unrolling's characteristic formula."""

    def test_constructed_game_sentence_separates_the_models(self):
        left, right = fx.loop_pair(4)
        tr = parse_tree("(down (dia l (dia l leaf)))", SIG)
        not_x_and_p = GSLeaf(((Nom("x0"), False), (Prop("p"), True)))
        not_x_not_p = GSLeaf(((Nom("x0"), False), (Prop("p"), False)))
        phi_g3 = GSNode((GSPart(Edge("dia", Rel("l")), None, gs_set([not_x_and_p, not_x_not_p])),))
        # the terminal p-successor of the start contributes the empty component
        phi_end = GSNode((GSPart(Edge("dia", Rel("l")), None, ()),))
        phi_g2 = GSNode((GSPart(Edge("dia", Rel("l")), None, gs_set([phi_g3, phi_end])),))
        phi_g1 = GSNode((GSPart(Edge("down"), "x0", (phi_g2,)),))
        assert char_formula(tr, right) == phi_g1
        assert char_formula(tr, left) != phi_g1
        lowered = lower_game_sentence(phi_g1)
        assert satisfies(right, lowered)
        assert not satisfies(left, lowered)
        # the two-member set separates the one-step-in positions
        one_step = lower_game_sentence(phi_g3)
        from hdpl.kripke import expand

        right_in = PointedModel(expand(right.model, "x0", "0"), "1")
        left_in = PointedModel(expand(left.model, "x0", "0"), "1")
        assert satisfies(right_in, one_step)
        assert not satisfies(left_in, one_step)

    def test_leaf_set_under_one_binding_has_four_assignments(self):
        ext, _ = extend_signature(SIG)
        theta_leaf = enumerate_game_sentences(leaf(ext), 16)
        assert {g.signs for g in theta_leaf} == {
            ((Nom("x0"), a), (Prop("p"), b)) for a in (True, False) for b in (True, False)
        }


class TestEnumerate:
    def test_leaf_sizes(self):
        assert len(enumerate_game_sentences(leaf(Signature(props=("p",))), 512)) == 2
        assert len(enumerate_game_sentences(leaf(Signature(nominals=("k",), props=("p",))), 512)) == 4

    def test_one_step_tree_size(self):
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        theta = enumerate_game_sentences(tr, 512)
        assert len(theta) == 4
        assert len({gs_text(g) for g in theta}) == 4

    def test_cap_exceeded_reports_prediction(self):
        tr = complete_tree(SIG, frag({"diamond", "store"}), 3, (Rel("l"),))
        with pytest.raises(CapExceededError) as err:
            enumerate_game_sentences(tr, 64)
        assert err.value.predicted > 64

    def test_prediction_matches_enumeration(self):
        rng = random.Random(8)
        for _ in range(80):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),), theta_cap=256)
            theta = enumerate_game_sentences(tr, 256)
            assert predicted_theta_size(tr, 256) == len(theta)


class TestEfSolve:
    def test_copycat(self):
        left, _ = fx.loop_pair(4)
        twin = PointedModel(left.model, "0")
        for f in FRAGMENTS:
            tr = complete_tree(SIG, f, 2, (Rel("l"),))
            assert ef_solve(tr, left, twin).winner == "eloise"

    def test_loop_three_move_trace(self):
        left, right = fx.loop_pair(4)
        tr = parse_tree("(down (dia l (dia l leaf)))", SIG)
        res = ef_solve(tr, left, right)
        assert res.winner == "abelard"
        assert len(res.trace) == 3
        assert res.trace[0].edge == "down"
        assert res.trace[1].edge == res.trace[2].edge == "dia l"
        end = replay_trace(tr, left, right, res.trace)
        assert end.lost

    def test_deeper_truncations_same_verdict(self):
        tr = parse_tree("(down (dia l (dia l leaf)))", SIG)
        for depth in (4, 5, 6):
            left, right = fx.loop_pair(depth)
            assert ef_solve(tr, left, right).winner == "abelard"

    def test_fork_pair_survives_store_fragment(self):
        left, right = fx.fork_pair()
        tr = complete_tree(SIG, frag({"diamond", "store"}), 2, (Rel("l"),))
        assert ef_solve(tr, left, right).winner == "eloise"

    def test_losing_traces_replay_to_violations(self):
        rng = random.Random(14)
        replayed = 0
        while replayed < 60:
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            m1, m2 = random_model_pair(rng, sig)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            res = ef_solve(tr, left, right)
            if res.winner != "abelard":
                continue
            end = replay_trace(tr, left, right, res.trace)
            # the line ends in a property violation, or with the answering
            # player stuck mid-round
            if end.pending is not None:
                assert not legal_moves(end, "eloise")
            else:
                assert end.lost
            assert len(res.trace) == res.loss_depth
            replayed += 1

    def test_loss_depth_is_the_first_height_where_characteristic_formulas_differ(self):
        # on observing trees the challenger wins the game cut at height d iff
        # the characteristic formulas over the cut tree differ
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = observing_tree(random_tree(rng, sig, f, (Rel("l"),)))
            m1, m2 = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            res = ef_solve(tr, left, right)
            if res.winner != "abelard" or res.loss_depth == 0:
                continue  # depth 0 is a property violation at the start
            differs = [
                char_formula(prune_to_height(tr, d), left) != char_formula(prune_to_height(tr, d), right)
                for d in range(res.loss_depth + 1)
            ]
            assert differs == [False] * res.loss_depth + [True]
            checked += 1


# the fragments and tree actions of the benchmark's finite games
FINITE_GAMES = [
    ("diamond,store", (Rel("l"),)),
    ("diamond,at,store", (Rel("l"),)),
    ("diamond,at,store,star", (Rel("l"), Star(Rel("l")))),
    ("diamond,store,exists", (Rel("l"),)),
]


def agreeing_pair(rng, sig, max_states):
    """A random model pair started at states that agree on the basic
    sentences, so that a game does not end before its first round."""
    m1, m2 = random_model_pair(rng, sig, max_states=max_states)
    starts = sorted((w, v) for w in m1.states for v in m2.states if m1.profiles[w] == m2.profiles[v])
    w, v = rng.choice(starts) if starts else (m1.states[0], m1.states[0])
    return PointedModel(m1, w), PointedModel(m2 if starts else m1, v)


class TestSharedSubtrees:
    """Parsed and complete trees share equal subtrees, and the memos of
    `ef_solve`, keyed by node identity, solve each once. Its winner and loss
    depth must be those of a memo-free minimax over `legal_moves` and
    `game_step` (`support.game_loss_depth`), which keys nothing by node."""

    @staticmethod
    def assert_same_results(tr, left, right):
        res = ef_solve(tr, left, right)
        depth = game_loss_depth(start_game(tr, left, right))
        assert (res.winner, res.loss_depth) == ("eloise" if depth is None else "abelard", depth)

    @pytest.mark.parametrize("fragment, actions", FINITE_GAMES, ids=[f for f, _ in FINITE_GAMES])
    def test_complete_tree_texts_of_the_finite_games(self, fragment, actions):
        f = FragmentConfig.parse(fragment)
        rng = random.Random(fragment)
        for height, max_states, pairs in ((1, 4, 8), (2, 4, 8), (3, 3, 4)):
            for _ in range(pairs):
                sig = small_signature(rng)
                text = print_tree(complete_tree(sig, f, height, actions))
                tr = parse_tree(text, sig, f)
                assert tr is complete_tree(sig, f, height, actions)
                assert tr.children[0][1] is tr.children[-1][1]  # the idle and last dia child
                self.assert_same_results(tr, *agreeing_pair(rng, sig, max_states))

    def test_random_trees_and_pairs(self):
        rng = random.Random(23)
        for _ in range(150):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = parse_tree(print_tree(random_tree(rng, sig, f, (Rel("l"),))), sig, f)
            self.assert_same_results(tr, *agreeing_pair(rng, sig, 3))


class TestEfOracle:
    """`ef_solve` compares per-side type ids; `oracle_ef.py` searches the
    product of both sides. Verdict, trace and loss depth must be equal."""

    def test_random_corpus(self):
        rng = random.Random(19)
        lines = 0
        for k in range(3000):
            f = FRAGMENTS[k % len(FRAGMENTS)]
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, default_actions(f), max_height=4, theta_cap=10**6)
            if k % 2:
                tr = observing_tree(tr)
            left, right = agreeing_pair(rng, sig, 5)  # sometimes one model object
            if k % 5 == 0:  # equal models, two objects
                right = PointedModel(model_from_dict(model_to_dict(left.model)), rng.choice(left.model.states))
            res = ef_solve(tr, left, right)
            assert res == oracle_ef_solve(tr, left, right), (k, print_tree(tr))
            lines += res.winner == "abelard" and res.loss_depth > 0
        assert lines > 300  # losing lines of one round or more

    @pytest.mark.parametrize("fragment, actions", FINITE_GAMES, ids=[f for f, _ in FINITE_GAMES])
    def test_complete_trees_of_the_finite_games(self, fragment, actions):
        f = FragmentConfig.parse(fragment)
        rng = random.Random(fragment)
        for height in (2, 3):
            for max_states in (2, 3, 4, 5):
                for _ in range(6):
                    sig = small_signature(rng)
                    tr = complete_tree(sig, f, height, actions)
                    left, right = agreeing_pair(rng, sig, max_states)
                    assert ef_solve(tr, left, right) == oracle_ef_solve(tr, left, right)


class TestCharOracle:
    """`char_formula` builds one game sentence per type of the type pass;
    `oracle_char.py` builds one per configuration by recursion. The game
    sentences and their texts must be equal."""

    def assert_same(self, tr, pm):
        got, want = char_formula(tr, pm), oracle_char_formula(tr, pm)
        assert got == want and gs_text(got) == gs_text(want), print_tree(tr)

    def test_random_corpus(self):
        rng = random.Random(21)
        for k in range(1500):
            f = FRAGMENTS[k % len(FRAGMENTS)]
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, default_actions(f), max_height=4, theta_cap=10**6)
            m, n = random_model_pair(rng, sig, max_states=4)
            for model in (m, n):
                self.assert_same(tr, PointedModel(model, rng.choice(model.states)))

    @pytest.mark.parametrize("f", FRAGMENTS, ids=[f.describe() for f in FRAGMENTS])
    def test_complete_trees(self, f):
        rng = random.Random(f.describe())
        for height in (1, 2, 3):
            for _ in range(6):
                sig = small_signature(rng)
                tr = complete_tree(sig, f, height, default_actions(f))
                m, _ = random_model_pair(rng, sig, max_states=4)
                self.assert_same(tr, PointedModel(m, rng.choice(m.states)))


class TestRoundStepping:
    def test_idle_round_changes_nothing_but_the_tree(self):
        left, right = fx.fork_pair()
        tr = GameboardTree(SIG, ((Edge("idle"), leaf(SIG)),))
        gs = start_game(tr, left, right)
        nxt = game_step(gs, AbelardMove(0))
        assert (nxt.left, nxt.right) == (gs.left, gs.right)
        assert nxt.tree == leaf(SIG)
        assert not nxt.lost

    def test_retrieve_round_is_forced(self):
        pm = fx.nominal_chain(3)
        tr = parse_tree("(at k2 leaf)", pm.model.sig)
        gs = start_game(tr, pm, pm)
        moves = legal_moves(gs, "abelard")
        assert moves == [AbelardMove(0)]
        nxt = game_step(gs, moves[0])
        assert nxt.left.current == nxt.right.current == "s2"

    def test_illegal_dia_target_rejected_with_alternatives(self):
        left, right = fx.fork_pair()
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        gs = start_game(tr, left, right)
        with pytest.raises(IllegalMoveError) as err:
            game_step(gs, AbelardMove(0, "left", "0"))  # 0 is not an l-successor of 0
        assert err.value.legal

    def _dia_game(self, left_state="0"):
        left, right = fx.fork_pair()
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        return start_game(tr, PointedModel(left.model, left_state), right)

    def _rejected(self, gs, move):
        with pytest.raises(IllegalMoveError) as err:
            game_step(gs, move)
        return err.value.legal

    def test_answer_with_nothing_pending_rejected(self):
        gs = self._dia_game()
        legal = self._rejected(gs, EloiseMove("1"))
        assert legal == legal_moves(gs, "abelard") and AbelardMove(0, "left", "2") in legal

    def test_challenge_while_an_answer_is_pending_rejected(self):
        gs = game_step(self._dia_game(), AbelardMove(0, "left", "2"))
        assert self._rejected(gs, AbelardMove(0, "left", "1")) == [EloiseMove("1")]

    def test_any_move_after_a_loss_rejected(self):
        gs = self._dia_game("1")  # p holds at 1, not at the right start 0
        assert gs.lost
        for move in (AbelardMove(0, "left", "2"), EloiseMove("1")):
            assert self._rejected(gs, move) == []

    def test_side_or_target_on_a_deterministic_edge_rejected(self):
        left, right = fx.fork_pair()
        gs = start_game(parse_tree("(down leaf)", SIG), left, right)
        for move in (AbelardMove(0, "left"), AbelardMove(0, None, "0"), AbelardMove(0, "left", "0")):
            assert self._rejected(gs, move) == [AbelardMove(0)]

    def test_edge_index_out_of_range_rejected(self):
        gs = self._dia_game()
        for index in (1, -1):
            assert self._rejected(gs, AbelardMove(index)) == legal_moves(gs, "abelard")

    def test_non_move_rejected(self):
        gs = self._dia_game()
        for move in ("0", 0, None, (0, "left", "2")):
            assert self._rejected(gs, move) == legal_moves(gs, "abelard")

    def test_dia_round_two_half_moves(self):
        left, right = fx.fork_pair()
        tr = GameboardTree(SIG, ((Edge("dia", Rel("l")), leaf(SIG)),))
        gs = start_game(tr, left, right)
        gs = game_step(gs, AbelardMove(0, "left", "2"))
        assert gs.pending is not None
        assert legal_moves(gs, "eloise") == [EloiseMove("1")]
        gs = game_step(gs, EloiseMove("1"))
        assert (gs.left.current, gs.right.current) == ("2", "1")
        assert not gs.lost

    def test_store_round_expands_both(self):
        left, right = fx.fork_pair()
        tr = parse_tree("(down leaf)", SIG)
        gs = game_step(start_game(tr, left, right), AbelardMove(0))
        assert gs.left.model.nominal_interp["x0"] == "0"
        assert gs.right.model.nominal_interp["x0"] == "0"


class TestNormalForm:
    def test_atomic(self):
        nf = normal_form(Prop("p"), SIG, FULL)
        assert nf.tree == leaf(SIG)
        members = nf.enumerate_members(16)
        assert members == [GSLeaf(((Prop("p"), True),))]

    def test_diamond_membership_is_intersection(self):
        s = parse_sentence("<l>p", SIG)
        nf = normal_form(s, SIG, FULL)
        base = normal_form(Prop("p"), SIG, FULL)
        for g in enumerate_game_sentences(nf.tree, 64):
            expected = any(base.contains(m) for m in g.parts[0].members)
            assert nf.contains(g) == expected

    def test_negation_is_complement(self):
        s = parse_sentence("~<l>p", SIG)
        nf = normal_form(s, SIG, FULL)
        pos = normal_form(parse_sentence("<l>p", SIG), SIG, FULL)
        theta = enumerate_game_sentences(nf.tree, 64)
        assert {gs_text(g) for g in theta if nf.contains(g)} == {
            gs_text(g) for g in theta if not pos.contains(g)
        }

    @pytest.mark.parametrize("text", ["p", "<l>p", "~p & <l>p"])
    def test_contract_on_200_model_corpus(self, text):
        s = parse_sentence(text, SIG)
        nf = normal_form(s, SIG, FULL)
        rng = random.Random(len(text))
        for _ in range(200):
            pm = random_pointed(rng, SIG)
            assert satisfies(pm, s) == nf.holds_on(pm)

    @pytest.mark.parametrize(
        "text",
        [
            "(down y . y) & (down y . <l> y)",
            "down y . <l> down z . @y <l> z",
            "down x1 . down x0 . @x1 x0",
            "exists y . @y <l> (p & ~y)",
        ],
    )
    def test_user_named_binders(self, text):
        # binders read as the names extending their scope gives: sibling
        # binders that share a name, `@` to an outer binder, and names that
        # are canonical at another depth
        s = parse_sentence(text, SIG)
        nf, renamed = normal_form(s, SIG, FULL), normal_form(canonical_vars(s, SIG), SIG, FULL)
        assert nf.tree == renamed.tree
        rng = random.Random(text)
        for _ in range(200):
            pm = random_pointed(rng, SIG)
            assert nf.holds_on(pm) == satisfies(pm, s)

    @pytest.mark.parametrize(
        "s, error",
        [
            (And((Prop("p"), Nom("k"))), UndeclaredSymbolError),
            (Store("p", Prop("p")), SignatureError),
        ],
        ids=["undeclared-nominal", "binder-named-like-prop"],
    )
    def test_sentence_checked_against_signature(self, s, error):
        # the check `satisfies` makes, before any translation
        with pytest.raises(error):
            normal_form(s, SIG, FULL)

    def test_equal_subtrees_are_one_object(self):
        # type keys start with their node, so a lookup on a shared subtree
        # hits by identity instead of walking two equal trees
        rng = random.Random(20)
        visits = distinct = 0
        for _ in range(80):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tree = normal_form(random_sentence(rng, sig, f, depth=3), sig, f).tree
            seen, stack = {}, [tree]
            while stack:
                node = stack.pop()
                assert seen.setdefault(node, node) is node
                stack += [child for _, child in node.children]
                visits += 1
            distinct += len(seen)
        assert visits > distinct  # some subtree occurs more than once

    def test_fragment_violation_raised(self):
        from hdpl.syntax import FragmentViolationError

        with pytest.raises(FragmentViolationError):
            normal_form(parse_sentence("<l>p", SIG), SIG, frag({"at"}))


class TestTheoremProperties:
    def test_existence_uniqueness_sample(self):
        rng = random.Random(15)
        for _ in range(120):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            pm = random_pointed(rng, sig)
            theta = enumerate_game_sentences(tr, 512)
            satisfied = [g for g in theta if satisfies(pm, lower_game_sentence(g))]
            assert len(satisfied) == 1
            assert satisfied[0] == char_formula(tr, pm)

    def test_empty_member_sets_participate_in_uniqueness(self):
        # an edgeless model picks the all-empty-component game sentence
        m = generate_random_model(1, 3, 0.0, SIG)
        pm = PointedModel(m, "s0")
        tr = GameboardTree(SIG, ((Edge("idle"), leaf(SIG)), (Edge("dia", Rel("l")), leaf(SIG))))
        theta = enumerate_game_sentences(tr, 64)
        satisfied = [g for g in theta if satisfies(pm, lower_game_sentence(g))]
        assert len(satisfied) == 1
        assert satisfied[0].parts[1].members == ()
        assert satisfied[0] == char_formula(tr, pm)

    def test_solver_matches_characteristic_equality_sample(self):
        # on trees where every node watches the property through an idle path
        rng = random.Random(16)
        for _ in range(150):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = observing_tree(random_tree(rng, sig, f, (Rel("l"),)))
            m1, m2 = random_model_pair(rng, sig)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            solver = ef_solve(tr, left, right).winner == "eloise"
            chars = char_formula(tr, left) == char_formula(tr, right)
            assert solver == chars

    def test_property_blind_trees_make_the_game_strictly_stronger(self):
        # a tree whose only path crosses a modal edge never records the root
        # signs in its game sentences, so equal characteristic formulas do not
        # imply a game win when the start position already disagrees
        sig = SIG
        tr = GameboardTree(sig, ((Edge("dia", Rel("l")), leaf(sig)),))
        rng = random.Random(1)
        m = generate_random_model(rng.randrange(2**30), 2, 0.0, sig)
        flipped = {w: (frozenset({"p"}) if not ps else frozenset()) for w, ps in m.valuation.items()}
        from hdpl.kripke import KripkeModel

        n = KripkeModel(sig, m.states, {}, m.relation_interp, flipped)
        left, right = PointedModel(m, "s0"), PointedModel(n, "s0")
        assert char_formula(tr, left) == char_formula(tr, right)  # both empty components
        assert ef_solve(tr, left, right).winner == "abelard"  # start property fails
        # closing the tree restores the equivalence
        closed = observing_tree(tr)
        assert char_formula(closed, left) != char_formula(closed, right)

    def test_normal_form_sample(self):
        rng = random.Random(18)
        for _ in range(40):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            s = random_sentence(rng, sig, f, depth=2)
            nf = normal_form(s, sig, f)
            for _ in range(25):
                pm = random_pointed(rng, sig, max_states=3)
                assert satisfies(pm, s) == nf.holds_on(pm), print_sentence(s)

    def test_pruning_monotonicity_sample(self):
        rng = random.Random(19)
        checked = 0
        while checked < 120:
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            if not tr.children:
                continue
            m1, m2 = random_model_pair(rng, sig)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            if ef_solve(tr, left, right).winner != "eloise":
                continue
            pruned = prune_to_height(tr, rng.randint(0, 2))
            assert ef_solve(pruned, left, right).winner == "eloise"
            checked += 1

    def test_swapping_the_models_preserves_the_verdict(self):
        # both players act on either model, so the game is symmetric; this
        # also guards the per-side successor caches against cross-talk
        rng = random.Random(23)
        for _ in range(150):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            tr = random_tree(rng, sig, f, (Rel("l"),))
            m1, m2 = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            assert ef_solve(tr, left, right).winner == ef_solve(tr, right, left).winner

    def test_all_heights_agreement_equals_top_height_equality(self):
        rng = random.Random(20)
        for _ in range(80):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            m1, m2 = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m1, rng.choice(m1.states))
            right = PointedModel(m2, rng.choice(m2.states))
            h = rng.randint(1, 2)
            all_heights = all(
                ef_solve(complete_tree(sig, f, k, (Rel("l"),)), left, right).winner == "eloise"
                for k in range(h + 1)
            )
            top = complete_tree(sig, f, h, (Rel("l"),))
            chars = char_formula(top, left) == char_formula(top, right)
            assert all_heights == chars
