import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hdpl
from hdpl import fixtures as fx
from hdpl.corpus import FRAGMENTS, random_model_pair, small_signature
from hdpl.gameboard import complete_tree
from hdpl.games import char_formula
from hdpl.kripke import (
    KripkeModel,
    PointedModel,
    find_isomorphism,
    generate_random_model,
    generate_random_rooted_model,
    model_from_dict,
    successor_map,
)
from hdpl.omega import (
    LBisimFamily,
    _Arena,
    OmegaError,
    action_pair_closure,
    back_and_forth_hypotheses,
    bf_related,
    extract_bisim_witness,
    hennessy_milner_check,
    max_back_and_forth,
    omega_solve,
    partial_iso_from_tuple,
    rooted_iso_check,
    shift_family,
    validate_bisim_family,
)
from hdpl.seqgame import seq_survives
from hdpl.syntax import FragmentConfig, Rel, Signature, Star
from oracle_bf import naive_max_back_and_forth


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


FULL = frag({"diamond", "at", "store", "exists"})
DS = frag({"diamond", "store"})
DAS = frag({"diamond", "at", "store"})
DSE = frag({"diamond", "store", "exists"})


def identity_family(m: KripkeModel, l_max: int) -> LBisimFamily:
    levels = {}
    for level in range(l_max + 1):
        entries = set()
        for t in itertools.product(m.states, repeat=level):
            for w in m.states:
                entries.add(((t, w), (t, w)))
        levels[level] = entries
    return LBisimFamily(levels, l_max)


class TestActionPairClosure:
    def test_single_relation_no_ctors(self):
        left, right = fx.fork_pair()
        assert len(action_pair_closure(left.model, right.model, frozenset())) == 1

    def test_star_is_idempotent(self):
        left, right = fx.fork_pair()
        closure = action_pair_closure(left.model, right.model, frozenset({"star"}))
        assert len(closure) == 2
        kinds = {type(ap.term) for ap in closure}
        assert kinds == {Rel, Star}

    def test_union_closure_matches_brute_force(self):
        sig = Signature(relations=("l", "m", "o"), props=("p",))
        rng = random.Random(77)
        a = generate_random_model(rng.randrange(2**30), 3, 0.4, sig)
        b = generate_random_model(rng.randrange(2**30), 3, 0.4, sig)
        closure = action_pair_closure(a, b, frozenset({"union"}))
        # brute-force: one pair per nonempty subset of base relations, deduped
        combos = set()
        for r in range(1, 4):
            for subset in itertools.combinations(sig.relations, r):
                la = frozenset().union(*(a.relation_interp[x] for x in subset))
                lb = frozenset().union(*(b.relation_interp[x] for x in subset))
                combos.add((la, lb))
        assert {(ap.left, ap.right) for ap in closure} == combos
        assert len(closure) <= 2**3 - 1

    def test_witness_terms_denote_their_pairs(self):
        from hdpl.kripke import interpret_action

        left, right = fx.fork_pair()
        closure = action_pair_closure(
            left.model, right.model, frozenset({"union", "comp", "star"})
        )
        for ap in closure:
            assert interpret_action(left.model, ap.term) == ap.left
            assert interpret_action(right.model, ap.term) == ap.right


class TestOmegaSolve:
    def test_copycat(self):
        left, _ = fx.fork_pair()
        twin = PointedModel(left.model, "0")
        for f in FRAGMENTS:
            assert omega_solve(f, left, twin).eloise_wins

    def test_fork_surviving_fragment(self):
        left, right = fx.fork_pair()
        assert omega_solve(DS, left, right).eloise_wins

    def test_isolated_state_surviving_fragment(self):
        left, right = fx.isolated_state_pair()
        assert omega_solve(DSE, left, right).eloise_wins

    def test_fork_full_fragment_lost(self):
        left, right = fx.fork_pair()
        res = omega_solve(FULL, left, right)
        assert res.winner == "abelard"
        rank = res.loss_rank()
        # the explicit sequence game confirms the exact rank
        assert not seq_survives(FULL, left, right, rank)
        assert seq_survives(FULL, left, right, rank - 1)

    @pytest.mark.parametrize("seeds", [(1, 101), (2, 102)])
    def test_two_relation_constructor_pairs_decide(self, seeds):
        # 4-state pairs whose action-pair closure overflows its cap or takes
        # over a minute; the base relations decide them at once
        sig = Signature(relations=("l", "r"), props=("p",))
        f = frag({"diamond"}, {"union", "comp", "star"})
        m, n = (generate_random_model(seed, 4, 0.3, sig) for seed in seeds)
        left, right = PointedModel(m, "s0"), PointedModel(n, "s0")
        rank = omega_solve(f, left, right).loss_rank()
        assert rank is not None and not seq_survives(f, left, right, rank)
        assert rank == 0 or seq_survives(f, left, right, rank - 1)

    def test_dead_positions_do_not_depend_on_string_hashing(self):
        # 5-state self-pairs where the at-moves over named pairs, iterated in
        # frozenset order, made the explored positions vary between processes
        script = (
            "import random\n"
            "from hdpl.kripke import PointedModel, generate_random_model\n"
            "from hdpl.omega import omega_solve\n"
            "from hdpl.syntax import FragmentConfig, Signature\n"
            "f = FragmentConfig.parse('diamond,at,store')\n"
            "sig = Signature(relations=('l',), props=('p',))\n"
            "rng = random.Random(1)\n"
            "for _ in range(40):\n"
            "    m = generate_random_model(rng.randrange(2**30), 5, rng.uniform(0.3, 0.8), sig)\n"
            "    pm = PointedModel(m, rng.choice(m.states))\n"
            "    print(len(omega_solve(f, pm, pm).dead))\n"
        )
        src = str(Path(hdpl.__file__).parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outs[0] == outs[1] and len(outs[0].split()) == 40

    def test_variable_free_start_required(self):
        from hdpl.kripke import expand

        left, _ = fx.fork_pair()
        grown = PointedModel(expand(left.model, "x0", "0"), "0")
        with pytest.raises(OmegaError):
            omega_solve(DS, grown, grown)


class TestBackAndForth:
    def test_identity_relates_everything(self):
        left, _ = fx.fork_pair()
        system = max_back_and_forth(FULL, left.model, left.model)
        for w in left.model.states:
            assert system.relates(w, w)

    def test_fork_unrelated_without_retrieve(self):
        left, right = fx.fork_pair()
        system = max_back_and_forth(DS, left.model, right.model)
        assert not system.relates("0", "0")
        # by-hand fixpoint at this size: the maps through the roots all lose
        # their step-extension and die; only the root-free maps survive
        expected = {
            frozenset(),
            frozenset({("1", "1")}),
            frozenset({("2", "1")}),
        }
        assert set(system.maps) == expected

    def test_isolated_pair_has_empty_family(self):
        left, right = fx.isolated_state_pair()
        system = max_back_and_forth(DSE, left.model, right.model)
        # no left state carries q, so the quantifier back-extension to the
        # right q-states empties the whole family
        assert len(system) == 0
        assert not system.relates("0", "0")

    @pytest.mark.parametrize("nominal", [False, True], ids=["plain", "nominal"])
    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_matches_round_based_oracle(self, f, nominal):
        rng = random.Random(f"{f.describe()}:{nominal}")
        for _ in range(20):
            sig = small_signature(rng, with_nominal=nominal)
            m = generate_random_model(rng.randrange(2**30), rng.randint(2, 5), rng.uniform(0.15, 0.7), sig)
            if rng.random() < 0.3:
                n = m
            else:
                n = generate_random_model(rng.randrange(2**30), rng.randint(2, 5), rng.uniform(0.15, 0.7), sig)
            system = max_back_and_forth(f, m, n)
            expected = naive_max_back_and_forth(f, m, n)
            assert system.maps == expected
            assert len(system) == len(expected)
            for w in m.states:
                for v in n.states:
                    assert system.relates(w, v) == any((w, v) in h for h in expected)
            # subset-closed: dropping any pair of a surviving map leaves a survivor
            assert all(h - {pair} in expected for h in expected for pair in h)


class TestValidateBisimFamily:
    def test_empty_family_vacuously_valid(self):
        left, right = fx.fork_pair()
        fam = LBisimFamily({0: set()}, 2)
        report = validate_bisim_family(fam, FULL, left.model, right.model)
        assert report.ok
        assert "empty" in report.note

    def test_identity_family_valid(self):
        left, _ = fx.fork_pair()
        fam = identity_family(left.model, 2)
        report = validate_bisim_family(fam, FULL, left.model, left.model)
        assert report.ok
        assert "level 1" in report.note

    def test_missing_forth_reply_named(self):
        left, right = fx.fork_pair()
        fam = LBisimFamily({0: {(((), "0"), ((), "0"))}}, 0)
        report = validate_bisim_family(fam, FULL, left.model, right.model)
        assert not report.ok
        assert any("(forth)" in v for v in report.violations)


class TestExtractWitness:
    def test_identical_models(self):
        left, _ = fx.fork_pair()
        twin = PointedModel(left.model, "0")
        fam = extract_bisim_witness(FULL, left, twin, 2)
        assert fam.relates("0", "0")
        assert validate_bisim_family(fam, FULL, left.model, left.model).ok

    def test_fork_store_fragment(self):
        left, right = fx.fork_pair()
        fam = extract_bisim_witness(DS, left, right, 3)
        assert fam.relates("0", "0")
        assert validate_bisim_family(fam, DS, left.model, right.model).ok

    def test_isolated_quantified_fragment(self):
        left, right = fx.isolated_state_pair()
        fam = extract_bisim_witness(DSE, left, right, 2)
        assert validate_bisim_family(fam, DSE, left.model, right.model).ok

    def test_lost_game_rejected(self):
        left, right = fx.fork_pair()
        with pytest.raises(OmegaError):
            extract_bisim_witness(FULL, left, right, 2)


class TestShiftFamily:
    def test_identity_anchor_gives_identity(self):
        left, _ = fx.fork_pair()
        fam = identity_family(left.model, 2)
        shifted = shift_family(fam, ((("0",), "0"), (("0",), "0")))
        assert shifted.l_max == 1
        assert shifted.levels[0] == identity_family(left.model, 1).levels[0]

    def test_shifted_witness_validates_on_expanded_models(self):
        from hdpl.kripke import expand

        left, right = fx.fork_pair()
        fam = extract_bisim_witness(DS, left, right, 3)
        shifted = shift_family(fam, ((("0",), "0"), (("0",), "0")))
        report = validate_bisim_family(
            shifted, DS, expand(left.model, "x0", "0"), expand(right.model, "x0", "0")
        )
        assert report.ok

    def test_absent_anchor_rejected(self):
        left, _ = fx.fork_pair()
        fam = identity_family(left.model, 2)
        with pytest.raises(OmegaError):
            shift_family(fam, ((("0",), "0"), (("1",), "1")))


class TestPartialIso:
    def test_identity_entry(self):
        left, _ = fx.fork_pair()
        report = partial_iso_from_tuple(
            left.model, left.model, ((("0", "1"), "1"), (("0", "1"), "1"))
        )
        assert report.ok
        assert report.mapping == (("0", "0"), ("1", "1"))

    def test_empty_tuples_give_empty_map(self):
        left, _ = fx.fork_pair()
        report = partial_iso_from_tuple(left.model, left.model, (((), "0"), ((), "0")))
        assert report.ok and report.mapping == ()

    def test_witness_entries_preserve_relations(self):
        left, right = fx.isolated_state_pair()
        fam = extract_bisim_witness(DAS, left, right, 3)
        assert validate_bisim_family(fam, DAS, left.model, right.model).ok
        for level in range(4):
            for entry in fam.entries(level):
                assert partial_iso_from_tuple(left.model, right.model, entry).ok

    def test_source_violations_reported(self):
        left, right = fx.fork_pair()
        report = partial_iso_from_tuple(
            left.model, right.model, ((("0", "1"), "0"), (("1", "1"), "1"))
        )
        assert not report.ok
        assert report.violations


class TestHennessyMilner:
    def test_identical_models_agree(self):
        left, _ = fx.fork_pair()
        report = hennessy_milner_check(left, PointedModel(left.model, "0"), DAS)
        assert report.elementary_proxy and report.omega_equivalent and report.bf_equivalent

    def test_loop_truncation_inequivalent_everywhere(self):
        left, right = fx.loop_pair(4)
        report = hennessy_milner_check(left, right, DS)
        assert not report.elementary_proxy
        assert not report.omega_equivalent
        assert not report.bf_equivalent
        assert report.proxy_matches_omega and report.bf_matches_omega
        # the height-3 characteristic formulas expose the difference
        assert 3 in report.heights
        assert not report.char_equal_per_height[report.heights.index(3)]

    def test_fork_flags_predicted_divergence(self):
        left, right = fx.fork_pair()
        report = hennessy_milner_check(left, right, DS)
        assert report.elementary_proxy and report.omega_equivalent
        assert not report.bf_equivalent
        assert not report.hypotheses_met
        assert report.divergence_expected

    def test_quantifier_fragment_rejected(self):
        left, right = fx.fork_pair()
        with pytest.raises(OmegaError):
            hennessy_milner_check(left, right, DSE)

    def test_height_is_one_plus_the_largest_exact_rank(self):
        # every edge but the loop at s0: the disproved positions have ranks
        # 0-2, among them ({(s2, s0)}, (s2, s0)) with rank 1
        states = ["s0", "s1", "s2"]
        edges = [[a, b] for a in states for b in states if (a, b) != ("s0", "s0")]
        m = model_from_dict({"states": states, "relations": {"l": edges}, "props": {"p": states}})
        pm = PointedModel(m, "s1")
        res = omega_solve(DAS, pm, pm)
        assert res.eloise_wins and res.stabilization_height() == 3
        report = hennessy_milner_check(pm, pm, DAS)
        assert report.heights == (1, 2, 3) and report.elementary_proxy


class TestRootedIso:
    def test_renamed_copy(self):
        left, _ = fx.fork_pair()
        ren = {s: f"t{s}" for s in left.model.states}
        copy = KripkeModel(
            left.model.sig,
            tuple(ren[s] for s in left.model.states),
            {},
            {"l": frozenset((ren[a], ren[b]) for a, b in left.model.relation_interp["l"])},
            {ren[s]: left.model.valuation[s] for s in left.model.states},
        )
        report = rooted_iso_check(left, PointedModel(copy, "t0"), DAS)
        assert report.isomorphic and report.omega_equivalent and report.agree

    def test_fork_pair_both_negative(self):
        left, right = fx.fork_pair()
        report = rooted_iso_check(left, right, DAS)
        assert not report.isomorphic and not report.omega_equivalent and report.agree

    def test_non_rooted_input_rejected(self):
        left, _ = fx.isolated_state_pair()
        with pytest.raises(OmegaError):
            rooted_iso_check(left, left, DAS)

    def test_random_rooted_pairs_sample(self):
        sig = Signature(relations=("l",), props=("p",))
        rng = random.Random(80)
        for _ in range(25):
            n1 = rng.randint(1, 4)
            a = generate_random_rooted_model(rng.randrange(2**30), n1, 0.25, sig)
            if rng.random() < 0.5:
                ren = {s: f"t{s}" for s in a.states}
                b = KripkeModel(
                    sig,
                    tuple(ren[s] for s in a.states),
                    {},
                    {"l": frozenset((ren[x], ren[y]) for x, y in a.relation_interp["l"])},
                    {ren[s]: a.valuation[s] for s in a.states},
                )
            else:
                b = generate_random_rooted_model(rng.randrange(2**30), rng.randint(1, 4), 0.25, sig)
            report = rooted_iso_check(
                PointedModel(a, a.states[0]), PointedModel(b, b.states[0]), DAS
            )
            assert report.agree


def closure_arena(f, m, n):
    """The arena with one diamond step per entry of the action-pair closure:
    the constructors-on alphabet, which no solver reads."""
    arena = _Arena(f, m, n)
    if arena.steps:
        arena.steps = [
            (ap.term, successor_map(ap.left, m.states), successor_map(ap.right, n.states))
            for ap in action_pair_closure(m, n, f.action_ctors)
        ]
    return arena


def brute_force_safety_verdict(f, left, right, arena=None) -> bool:
    """Classical greatest fixpoint over the fully enumerated arena (by default
    the solver's own): start from every property-holding position and delete
    positions with an unanswerable option until stable. Only tractable for the
    tiniest models."""
    if arena is None:
        arena = _Arena(f, left.model, right.model)
    all_pairs = [(w, v) for w in left.model.states for v in right.model.states]
    positions = [
        (frozenset(sub), cur)
        for r in range(len(all_pairs) + 1)
        for sub in itertools.combinations(all_pairs, r)
        for cur in all_pairs
    ]
    safe = {p for p in positions if arena.prop(p)}
    changed = True
    while changed:
        changed = False
        for p in list(safe):
            if any(not any(r in safe for r in replies) for replies in arena.options(p)):
                safe.discard(p)
                changed = True
    return (frozenset(), (left.current, right.current)) in safe


class TestInvariants:
    def test_lazy_solver_matches_brute_force_fixpoint(self):
        rng = random.Random(87)
        total = 0
        while total < 250:
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            if rng.random() < 0.3:
                m, _ = random_model_pair(rng, sig, max_states=2)
                n = m
            else:
                m = generate_random_model(rng.randrange(2**30), rng.randint(1, 3), rng.random(), sig)
                n = generate_random_model(rng.randrange(2**30), rng.randint(1, 3), rng.random(), sig)
            if len(m.states) * len(n.states) > 6:
                continue
            left = PointedModel(m, rng.choice(m.states))
            right = PointedModel(n, rng.choice(n.states))
            lazy = omega_solve(f, left, right).eloise_wins
            assert lazy == brute_force_safety_verdict(f, left, right), f.describe()
            total += 1

    def test_constructors_on_equal_constructors_off_over_two_relations(self):
        # the closure-based arena and the round-based oracle see every
        # constructor-closed relation pair; the solvers see the base relations
        rng = random.Random(89)
        verdicts = set()
        for _ in range(60):
            sig = Signature(nominals=("k",) if rng.random() < 0.5 else (), relations=("l", "r"), props=("p",))
            ops = {"diamond"} | {op for op in ("at", "store", "exists") if rng.random() < 0.5}
            ctors = {c for c in ("union", "comp", "star") if rng.random() < 0.6} or {"comp"}
            f = frag(ops, ctors)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 2), rng.uniform(0.2, 0.7), sig)
            n = m if rng.random() < 0.3 else generate_random_model(
                rng.randrange(2**30), rng.randint(1, 2), rng.uniform(0.2, 0.7), sig
            )
            left, right = PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states))
            wins = omega_solve(f, left, right).eloise_wins
            assert wins == brute_force_safety_verdict(f, left, right, closure_arena(f, m, n)), f.describe()
            assert max_back_and_forth(f, m, n).maps == naive_max_back_and_forth(f, m, n), f.describe()
            verdicts.add(wins)
        assert verdicts == {True, False}

    def test_swapping_the_models_preserves_the_verdict(self):
        rng = random.Random(88)
        for _ in range(120):
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            m, n = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m, rng.choice(m.states))
            right = PointedModel(n, rng.choice(n.states))
            forward = omega_solve(f, left, right).eloise_wins
            backward = omega_solve(f, right, left).eloise_wins
            assert forward == backward

    def test_abstraction_soundness_sample(self):
        rng = random.Random(81)
        for f in FRAGMENTS:
            for _ in range(60):
                sig = small_signature(rng)
                m, n = random_model_pair(rng, sig, max_states=3)
                left = PointedModel(m, rng.choice(m.states))
                right = PointedModel(n, rng.choice(n.states))
                res = omega_solve(f, left, right)
                if res.eloise_wins:
                    assert seq_survives(f, left, right, 4)
                else:
                    rank = res.loss_rank()
                    assert not seq_survives(f, left, right, rank)
                    if rank > 0:
                        assert seq_survives(f, left, right, rank - 1)

    def test_dead_start_positions_rank_exactly(self):
        # a dead position naming nothing yet is the start of the game from its
        # pair, so its rank is where the sequence game from there first fails
        rng = random.Random(84)
        checked = 0
        for f in FRAGMENTS:
            for _ in range(30):
                sig = small_signature(rng)
                m, n = random_model_pair(rng, sig, max_states=3)
                res = omega_solve(f, PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states)))
                res.loss_rank()  # fills the shared memo first when the game is lost
                for pairs, (w, v) in res.dead:
                    if pairs:
                        continue
                    rank = res._rank((pairs, (w, v)))
                    survives = [seq_survives(f, PointedModel(m, w), PointedModel(n, v), d) for d in range(rank + 1)]
                    assert survives == [True] * rank + [False]
                    checked += 1
        assert checked > 100

    def test_bf_implies_win_and_equality_under_hypotheses(self):
        rng = random.Random(82)
        for f in FRAGMENTS:
            for _ in range(40):
                sig = small_signature(rng)
                m, n = random_model_pair(rng, sig, max_states=3)
                left = PointedModel(m, rng.choice(m.states))
                right = PointedModel(n, rng.choice(n.states))
                related = bf_related(f, left, right)
                wins = omega_solve(f, left, right).eloise_wins
                if related:
                    assert wins
                if back_and_forth_hypotheses(f):
                    assert related == wins

    def test_fragment_monotonicity_sample(self):
        rng = random.Random(83)
        pairs = [
            (DS, FULL),
            (frag({"diamond"}), DAS),
            (DAS, FULL),
            (frag({"diamond"}), frag({"diamond"}, {"union", "comp", "star"})),
        ]
        for small, big in pairs:
            for _ in range(40):
                sig = small_signature(rng)
                m, n = random_model_pair(rng, sig, max_states=3)
                left = PointedModel(m, rng.choice(m.states))
                right = PointedModel(n, rng.choice(n.states))
                if omega_solve(big, left, right).eloise_wins:
                    assert omega_solve(small, left, right).eloise_wins

    def test_extracted_witnesses_validate(self):
        rng = random.Random(84)
        done = 0
        while done < 40:
            sig = small_signature(rng)
            f = rng.choice(FRAGMENTS)
            m, n = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m, rng.choice(m.states))
            right = PointedModel(n, rng.choice(n.states))
            if not omega_solve(f, left, right).eloise_wins:
                continue
            fam = extract_bisim_witness(f, left, right, 3)
            assert validate_bisim_family(fam, f, m, n).ok
            done += 1

    def test_validated_identity_families_imply_wins(self):
        rng = random.Random(85)
        for _ in range(25):
            sig = small_signature(rng)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 3), rng.random(), sig)
            fam = identity_family(m, 2)
            f = rng.choice(FRAGMENTS)
            assert validate_bisim_family(fam, f, m, m).ok
            w = rng.choice(m.states)
            assert fam.relates(w, w)
            assert omega_solve(f, PointedModel(m, w), PointedModel(m, w)).eloise_wins

    def test_iso_implies_win_implies_char_agreement(self):
        rng = random.Random(86)
        checked = 0
        while checked < 30:
            sig = small_signature(rng)
            m, n = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m, rng.choice(m.states))
            right = PointedModel(n, rng.choice(n.states))
            if m.sig != n.sig:
                continue
            iso = find_isomorphism(left, right)
            f = rng.choice(FRAGMENTS)
            wins = omega_solve(f, left, right).eloise_wins
            if iso is not None:
                assert wins
            if wins:
                for h in (1, 2):
                    tr = complete_tree(sig, f, h, (Rel("l"),))
                    assert char_formula(tr, left) == char_formula(tr, right)
            checked += 1
