"""Acceptance suite: one test per criterion, each printing a PASS line with
the case counts it covered (run with -s to see them). Every criterion is
exact: a single disagreement fails the test."""

import itertools
import random

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
from hdpl.gameboard import parse_tree
from hdpl.games import (
    char_formula,
    ef_solve,
    enumerate_game_sentences,
    legal_moves,
    lower_game_sentence,
    normal_form,
    replay_trace,
)
from hdpl.kripke import (
    KripkeModel,
    PointedModel,
    find_isomorphism,
    generate_random_model,
)
from hdpl.omega import (
    back_and_forth_hypotheses,
    bf_related,
    extract_bisim_witness,
    omega_solve,
    validate_bisim_family,
)
from hdpl.seqgame import seq_survives
from hdpl.syntax import FragmentConfig, Rel, Signature, parse_sentence

from support import family_relates, generate_random_rooted_model, prune_to_height, random_sentence
from test_omega import identity_family


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


def random_pointed_pair(rng, sig, max_states):
    m, n = random_model_pair(rng, sig, max_states=max_states)
    return PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states))


def test_criterion_1_game_sentence_existence_uniqueness():
    """Exactly one enumerated game sentence is satisfied, and it is the
    characteristic formula; 500 cases per fragment, models up to 5 states."""
    rng = random.Random(101)
    total = 0
    for f in FRAGMENTS:
        actions = default_actions(f)
        for _ in range(500):
            sig = small_signature(rng)
            tr = random_tree(rng, sig, f, actions, theta_cap=512)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 5), rng.random(), sig)
            pm = PointedModel(m, rng.choice(m.states))
            theta = enumerate_game_sentences(tr, 512)
            satisfied = [g for g in theta if satisfies(pm, lower_game_sentence(g))]
            assert len(satisfied) == 1, f"{len(satisfied)} game sentences satisfied"
            assert satisfied[0] == char_formula(tr, pm)
            total += 1
    print(f"\nACCEPTANCE 1 PASS: existence/uniqueness on {total} cases "
          f"({len(FRAGMENTS)} fragments x 500)")


def test_criterion_2_solver_equals_characteristic_equality():
    """Game verdict coincides with structural equality of characteristic
    formulas on 500 random (pair, tree) cases over property-observing trees."""
    rng = random.Random(102)
    agreements = 0
    wins = 0
    for _ in range(500):
        sig = small_signature(rng)
        f = rng.choice(FRAGMENTS)
        tr = observing_tree(random_tree(rng, sig, f, default_actions(f)))
        left, right = random_pointed_pair(rng, sig, 4)
        solver = ef_solve(tr, left, right).winner == "eloise"
        chars = char_formula(tr, left) == char_formula(tr, right)
        assert solver == chars
        agreements += 1
        wins += solver
    print(f"\nACCEPTANCE 2 PASS: solver == characteristic equality on "
          f"{agreements} cases ({wins} survivor wins)")


def test_criterion_3_normal_form():
    """satisfies(pm, s) == membership of the characteristic formula in the
    translated set; 100 sentences per fragment, 200 models each."""
    rng = random.Random(103)
    sentences = 0
    for f in FRAGMENTS:
        for _ in range(100):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, f, depth=2)
            nf = normal_form(s, sig, f)
            for _ in range(200):
                m = generate_random_model(
                    rng.randrange(2**30), rng.randint(1, 3), rng.random(), sig
                )
                pm = PointedModel(m, rng.choice(m.states))
                assert satisfies(pm, s) == nf.holds_on(pm)
            sentences += 1
    print(f"\nACCEPTANCE 3 PASS: normal form on {sentences} sentences x 200 models")


def test_criterion_4_bundled_fixture_verdicts():
    """The bundled example scenarios reproduce their exact verdicts."""
    # named loop vs truncated unrolling: challenger wins in exactly 3 moves
    for depth in (4, 5):
        left, right = fx.loop_pair(depth)
        tr = parse_tree("(down (dia l (dia l leaf)))", fx.SIG_P)
        res = ef_solve(tr, left, right)
        assert res.winner == "abelard"
        assert len(res.trace) == 3
        end = replay_trace(tr, left, right, res.trace)
        assert end.lost or (end.pending and not legal_moves(end, "eloise"))
    # fork pair: countable-game win without retrieve, yet no back-and-forth
    left, right = fx.fork_pair()
    assert omega_solve(frag({"diamond", "store"}), left, right).eloise_wins
    assert not bf_related(frag({"diamond", "store"}), left, right)
    # isolated-state pair: quantified countable-game win, no back-and-forth
    left, right = fx.isolated_state_pair()
    assert omega_solve(frag({"diamond", "store", "exists"}), left, right).eloise_wins
    assert not bf_related(frag({"diamond", "store", "exists"}), left, right)
    # linear-order axioms: chains of 2..6 satisfy, cycle and loop falsify
    phi = parse_sentence(fx.finite_orders_formula(), fx.SIG_NOM)
    for n in range(2, 7):
        assert satisfies(fx.nominal_chain(n), phi)
    assert not satisfies(fx.nominal_two_cycle(), phi)
    for k1, k2 in itertools.permutations(("0", "1", "a", "b"), 2):
        assert not satisfies(fx.nominal_loop_model(k1, k2), phi)
    print("\nACCEPTANCE 4 PASS: all bundled scenario verdicts exact")


def test_criterion_5_bisimulation_witnesses_both_directions():
    """Won countable games yield families valid under the level-indexed
    definition (l_max = 3), and validated hand-built families imply wins."""
    rng = random.Random(105)
    extracted = 0
    attempts = 0
    while extracted < 60 and attempts < 4000:
        attempts += 1
        sig = small_signature(rng)
        f = rng.choice(FRAGMENTS)
        left, right = random_pointed_pair(rng, sig, 3)
        if not omega_solve(f, left, right).eloise_wins:
            continue
        fam = extract_bisim_witness(f, left, right, 3)
        report = validate_bisim_family(fam, f, left.model, right.model)
        assert report.ok, report.violations[:3]
        extracted += 1
    assert extracted == 60
    # fixtures
    for (left, right), f in [
        (fx.fork_pair(), frag({"diamond", "store"})),
        (fx.isolated_state_pair(), frag({"diamond", "store", "exists"})),
        (fx.isolated_state_pair(), frag({"diamond", "at", "store"})),
    ]:
        fam = extract_bisim_witness(f, left, right, 3)
        assert validate_bisim_family(fam, f, left.model, right.model).ok
        assert family_relates(fam, left.current, right.current)
    # hand-built identity families validate and imply wins
    implied = 0
    for _ in range(40):
        sig = small_signature(rng)
        f = rng.choice(FRAGMENTS)
        m = generate_random_model(rng.randrange(2**30), rng.randint(1, 3), rng.random(), sig)
        fam = identity_family(m, 2)
        assert validate_bisim_family(fam, f, m, m).ok
        w = rng.choice(m.states)
        assert family_relates(fam, w, w)
        assert omega_solve(f, PointedModel(m, w), PointedModel(m, w)).eloise_wins
        implied += 1
    print(f"\nACCEPTANCE 5 PASS: {extracted} extracted witnesses validate; "
          f"{implied} validated families imply wins")


def test_criterion_6_back_and_forth_vs_games():
    """Back-and-forth relatedness implies a game win in every fragment;
    verdicts coincide when the closure hypotheses hold; both bundled
    counterexamples diverge when they fail."""
    rng = random.Random(106)
    hyp_frags = [
        frag({"store"}),
        frag({"at", "store"}),
        frag({"diamond", "at", "store"}),
        frag({"diamond", "at", "store"}, {"star"}),
        frag({"diamond", "at", "store", "exists"}),
    ]
    cases = 0
    for f in FRAGMENTS + hyp_frags:
        for _ in range(40):
            sig = small_signature(rng)
            left, right = random_pointed_pair(rng, sig, 3)
            related = bf_related(f, left, right)
            wins = omega_solve(f, left, right).eloise_wins
            if related:
                assert wins, f.describe()
            if back_and_forth_hypotheses(f):
                assert related == wins, f.describe()
            cases += 1
    # the bundled counterexamples: divergence exactly when hypotheses fail
    left, right = fx.fork_pair()
    f = frag({"diamond", "store"})
    assert not back_and_forth_hypotheses(f)
    assert omega_solve(f, left, right).eloise_wins and not bf_related(f, left, right)
    left, right = fx.isolated_state_pair()
    f = frag({"diamond", "store", "exists"})
    assert not back_and_forth_hypotheses(f)
    assert omega_solve(f, left, right).eloise_wins and not bf_related(f, left, right)
    print(f"\nACCEPTANCE 6 PASS: {cases} corpus cases + both divergent counterexamples")


def test_criterion_7_rooted_isomorphism():
    """On rooted pointed models, isomorphism presence coincides with the
    countable-game verdict under diamond+at+store; 50 random pairs up to 5
    states, plus the fork fixture."""
    rng = random.Random(107)
    f = frag({"diamond", "at", "store"})
    sig = Signature(relations=("l",), props=("p",))
    agreements = 0
    for i in range(50):
        n1 = rng.randint(1, 5)
        a = generate_random_rooted_model(rng.randrange(2**30), n1, 0.25, sig)
        if i % 3 == 0:
            ren = {s: f"t{s}" for s in a.states}
            b = KripkeModel(
                sig,
                tuple(ren[s] for s in a.states),
                {},
                {"l": frozenset((ren[x], ren[y]) for x, y in a.relation_interp["l"])},
                {ren[s]: a.valuation[s] for s in a.states},
            )
        else:
            b = generate_random_rooted_model(rng.randrange(2**30), rng.randint(1, 5), 0.25, sig)
        left = PointedModel(a, a.states[0])
        right = PointedModel(b, b.states[0])
        iso = find_isomorphism(left, right) is not None
        wins = omega_solve(f, left, right).eloise_wins
        assert iso == wins, i
        agreements += 1
    left, right = fx.fork_pair()
    assert find_isomorphism(left, right) is None
    assert not omega_solve(f, left, right).eloise_wins
    print(f"\nACCEPTANCE 7 PASS: isomorphism == countable game on {agreements} rooted pairs + fixture")


def test_criterion_8_abstraction_soundness():
    """The arena solver agrees with the explicit sequence-based search: a win
    guarantees depth-4 survival, a loss is exhibited within the loss rank;
    300 pairs per fragment."""
    rng = random.Random(108)
    total = 0
    for f in FRAGMENTS:
        for _ in range(300):
            sig = small_signature(rng)
            left, right = random_pointed_pair(rng, sig, 4)
            res = omega_solve(f, left, right)
            if res.eloise_wins:
                assert seq_survives(f, left, right, 4), f.describe()
            else:
                rank = res.loss_rank()
                assert not seq_survives(f, left, right, rank), f.describe()
            total += 1
    print(f"\nACCEPTANCE 8 PASS: arena == sequence oracle on {total} cases")


def test_criterion_9_monotonicity_suites():
    """Enabling fewer operators never hurts the survivor; pruning a tree never
    hurts the survivor; 300 cases each."""
    rng = random.Random(109)
    inclusions = [
        (frag({"diamond"}), frag({"diamond", "at", "store"})),
        (frag({"diamond", "store"}), frag({"diamond", "at", "store", "exists"})),
        (frag({"diamond"}), frag({"diamond"}, {"union", "comp", "star"})),
        (frag({"diamond", "at"}), frag({"diamond", "at", "store"})),
        (frag({"store"}), frag({"diamond", "store", "exists"})),
        (frag({"diamond", "at", "store"}), frag({"diamond", "at", "store", "exists"})),
    ]
    fragment_cases = 0
    while fragment_cases < 300:
        small, big = inclusions[fragment_cases % len(inclusions)]
        sig = small_signature(rng)
        left, right = random_pointed_pair(rng, sig, 3)
        if omega_solve(big, left, right).eloise_wins:
            assert omega_solve(small, left, right).eloise_wins
        fragment_cases += 1
    pruning_cases = 0
    while pruning_cases < 300:
        sig = small_signature(rng)
        f = rng.choice(FRAGMENTS)
        tr = random_tree(rng, sig, f, (Rel("l"),))
        if not tr.children:
            continue
        left, right = random_pointed_pair(rng, sig, 3)
        if ef_solve(tr, left, right).winner == "eloise":
            pruned = prune_to_height(tr, rng.randint(0, 2))
            assert ef_solve(pruned, left, right).winner == "eloise"
        pruning_cases += 1
    print(f"\nACCEPTANCE 9 PASS: {fragment_cases} fragment-monotonicity and "
          f"{pruning_cases} pruning-monotonicity cases")
