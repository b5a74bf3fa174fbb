import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hdpl
from hdpl import fixtures as fx
from hdpl.corpus import FRAGMENTS, random_model_pair, small_signature
from hdpl.gameboard import complete_tree
from hdpl.games import char_formula, ef_solve
from hdpl.kripke import (
    KripkeModel,
    PointedModel,
    find_isomorphism,
    generate_random_model,
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
    rooted_iso_check,
    validate_bisim_family,
)
from hdpl.seqgame import seq_survives
from hdpl.syntax import FragmentConfig, Rel, Signature, Star
from oracle_bf import naive_max_back_and_forth
from paper_lemmas import partial_iso_from_tuple, shift_family
from support import bf_maps, family_relates, generate_random_rooted_model


def frag(ops, ctors=()):
    return FragmentConfig(frozenset(ops), frozenset(ctors))


FULL = frag({"diamond", "at", "store", "exists"})
DIA = frag({"diamond"})
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


def edges_model(states: str, p: str = "", **relations: str) -> KripkeModel:
    """A model over the space-separated `states`, with prop p at the states
    in `p` and each relation given as space-separated `a-b` edges."""
    rels = {r: [e.split("-") for e in edges.split()] for r, edges in relations.items()}
    return model_from_dict({"states": states.split(), "relations": rels, "props": {"p": p.split()}})


def shuffled_copy(m: KripkeModel, rng: random.Random) -> tuple[KripkeModel, dict[str, str]]:
    """An isomorphic copy of m under shuffled names, listing its states in a
    shuffled order, and the renaming."""
    names = list(m.states)
    rng.shuffle(names)
    ren = {w: f"t{i}" for i, w in enumerate(names)}
    order = list(m.states)
    rng.shuffle(order)
    copy = KripkeModel(
        m.sig,
        tuple(ren[w] for w in order),
        {k: ren[w] for k, w in m.nominal_interp.items()},
        {r: frozenset((ren[a], ren[b]) for a, b in pairs) for r, pairs in m.relation_interp.items()},
        {ren[w]: props for w, props in m.valuation.items()},
    )
    return copy, ren


# 6-state pairs: a tree against a non-isomorphic one, whose families without
# exists are large, and a lasso against a renamed copy listed in another order
SIX_STATE_PAIRS = [
    (edges_model("a b c d e f", l="a-b a-c a-d b-e"), edges_model("f e d c b a", l="a-b a-c a-d a-e e-f")),
    (
        edges_model("a b c d e f", "a", l="a-b b-c c-d d-e e-f f-c"),
        edges_model("u v w x y z", "x", l="x-z z-u u-y y-v v-w w-u"),
    ),
]


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

    def test_classes_find_the_isomorphism_of_a_shuffled_copy(self):
        # in model order the matching reply comes late, and the search
        # disproves 3,433 positions before it wins; once the search has paid
        # for the classes, rows built afterwards offer the class-matching
        # replies first
        sig = Signature(nominals=("k",), relations=("l",), props=("p",))
        m = generate_random_model(7, 6, 0.4, sig)
        n, ren = shuffled_copy(m, random.Random(6))
        res = omega_solve(DSE, PointedModel(m, "s0"), PointedModel(n, ren["s0"]))
        assert res.eloise_wins and len(res.dead) < 1000

    @pytest.mark.parametrize("f", [DSE, FULL], ids=lambda f: f.describe())
    def test_frontiers_decide_symmetric_cycles(self, f):
        # two disjoint l-3-cycles under p, each paired with itself: matched
        # exactly, the search meets many named-set variants of each position
        # (under DSE it disproved 10,752 and certified 768; under FULL, 33,988
        # and 1,944). A reply that a live position at its pair covers is
        # answered by it, and so is a later reply of its row before a push;
        # without that look-ahead, FULL still took 1,096 and 66
        m = edges_model("a b c d e f", "a b c d e f", l="a-b b-c c-a d-e e-f f-d")
        res = omega_solve(f, PointedModel(m, "a"), PointedModel(m, "a"))
        assert res.eloise_wins and len(res.dead) + len(res.safe) < 1000

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
            "    res = omega_solve(f, pm, pm)\n"
            "    dead = sorted((sorted(named), pair) for named, pair in res.dead)\n"
            "    print(dead, res.loss_rank())\n"
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
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 40

    def test_variable_free_start_required(self):
        from hdpl.kripke import expand

        left, _ = fx.fork_pair()
        grown = PointedModel(expand(left.model, "x0", "0"), "0")
        with pytest.raises(OmegaError):
            omega_solve(DS, grown, grown)
        # max_back_and_forth builds the same arena, but takes expanded models
        assert max_back_and_forth(DS, grown.model, grown.model).relates("0", "0")


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
        assert set(bf_maps(system)) == expected

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
            assert bf_maps(system) == expected
            assert len(system) == len(expected)
            for w in m.states:
                for v in n.states:
                    assert system.relates(w, v) == any((w, v) in h for h in expected)
            # subset-closed: dropping any pair of a surviving map leaves a survivor
            assert all(h - {pair} in expected for h in expected for pair in h)

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_loop_on_one_side_only(self, f):
        # only left state a has a loop, and it is assigned last; {(a, a), (b, b)}
        # keeps every other edge, and its successors are all mapped
        m = edges_model("a b c d", l="a-a a-b c-d d-c")
        n = edges_model("a b c d", l="a-b c-d d-c")
        system = max_back_and_forth(f, m, n)
        maps = bf_maps(system)
        assert maps == naive_max_back_and_forth(f, m, n)
        assert all(w != "a" for h in maps for w, _ in h)
        assert system.relates("c", "c") == ("exists" not in f.ops)

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_consistent_on_l_but_not_on_r(self, f):
        # the identity keeps l; it breaks r only in the direction from the
        # state assigned later (a) to the one assigned first (b)
        m = edges_model("a b", l="a-b", r="b-a")
        n = edges_model("a b", l="a-b", r="")
        identity = frozenset({("a", "a"), ("b", "b")})
        system = max_back_and_forth(f, m, n)
        maps = bf_maps(system)
        assert maps == naive_max_back_and_forth(f, m, n)
        assert identity not in maps and not system.relates("a", "a")
        assert identity in bf_maps(max_back_and_forth(f, edges_model("a b", l="a-b"), edges_model("a b", l="a-b")))

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_pair_cut_at_its_first_assignment(self, f):
        # b is assigned first; (b, b) breaks the loop at b, so nothing below it is visited
        m = edges_model("a b", l="b-b")
        n = edges_model("a b", l="a-a")
        system = max_back_and_forth(f, m, n)
        maps = bf_maps(system)
        assert maps == naive_max_back_and_forth(f, m, n)
        assert not system.relates("b", "b") and not system.relates("a", "a")
        assert frozenset({("a", "b"), ("b", "a")}) in maps

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_renamed_shuffled_copies_give_the_same_family(self, f):
        # maps are coded over the states in sorted-name order, whatever order
        # the models list them in: renamed copies listed in shuffled orders
        # keep the family's size and relate the renamed pairs
        rng = random.Random(f"renamed:{f.describe()}")
        related = 0
        for _ in range(12):
            m, n = random_model_pair(rng, small_signature(rng), max_states=4)
            (m2, ren_m), (n2, ren_n) = shuffled_copy(m, rng), shuffled_copy(n, rng)
            system, renamed = max_back_and_forth(f, m, n), max_back_and_forth(f, m2, n2)
            assert len(renamed) == len(system)
            for w in m.states:
                for v in n.states:
                    assert renamed.relates(ren_m[w], ren_n[v]) == system.relates(w, v)
                    related += system.relates(w, v)
        assert related

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_six_state_families_are_partial_isomorphisms(self, f):
        for m, n in SIX_STATE_PAIRS:
            system = max_back_and_forth(f, m, n)
            maps = bf_maps(system)
            assert len(maps) == len(system)
            for h in maps:
                wt, vt = zip(*sorted(h)) if h else ((), ())
                report = partial_iso_from_tuple(m, n, ((wt, m.states[0]), (vt, n.states[0])))
                assert report.relation_preserving and report.ok, (f.describe(), sorted(h))
            if back_and_forth_hypotheses(f):
                for w in m.states:
                    for v in n.states:
                        wins = omega_solve(f, PointedModel(m, w), PointedModel(n, v)).eloise_wins
                        assert system.relates(w, v) == wins, (f.describe(), w, v)
        assert len(system) > 1  # the lasso pair is isomorphic

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_family_is_subset_closed(self, f):
        # relates(w, v) looks up only the map {(w, v)}, which is right because
        # dropping any pair of a member leaves a member
        rng = random.Random(f"subsets:{f.describe()}")
        largest = 0
        for _ in range(25):
            m, n = random_model_pair(rng, small_signature(rng), max_states=6)
            system = max_back_and_forth(f, m, n)
            maps = bf_maps(system)
            assert len(maps) == len(system)
            assert all(h - {pair} in maps for h in maps for pair in h), f.describe()
            largest = max(largest, max(map(len, maps), default=0))
        assert largest >= 2

    def test_clause_free_family_counts_profile_matchings(self):
        # under store alone no clause constrains a map, so the family holds
        # every injective profile-preserving partial map: per profile class
        # with a states on the left and b on the right, sum_k C(a,k) C(b,k) k!
        rng = random.Random("clause-free")
        store = frag({"store"})
        for _ in range(40):
            sig = small_signature(rng)
            m, n = (
                generate_random_model(rng.randrange(2**30), rng.randint(1, 6), rng.uniform(0.15, 0.7), sig)
                for _ in range(2)
            )

            def profile(model, w):
                return model.valuation[w], frozenset(k for k in sig.nominals if model.nominal_interp[k] == w)

            right = Counter(profile(n, v) for v in n.states)
            expected = math.prod(
                sum(math.comb(a, k) * math.comb(right[p], k) * math.factorial(k) for k in range(a + 1))
                for p, a in Counter(profile(m, w) for w in m.states).items()
            )
            system = max_back_and_forth(store, m, n)
            assert len(system) == expected
            for w in m.states:
                for v in n.states:
                    assert system.relates(w, v) == (profile(m, w) == profile(n, v))

    @pytest.mark.parametrize("f", [DS, DAS], ids=lambda f: f.describe())
    def test_ten_state_loop_self_pair(self, f):
        m = fx.unrolled_model(4)
        system = max_back_and_forth(f, m, m)
        assert len(system) == 3228 and system.relates("0", "0")


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

    # a -> b -> c, p at c, k at a: the identity family is valid under FULL;
    # each case adds or removes one entry and names the clause that breaks
    @pytest.mark.parametrize(
        "change, level, entry, tag",
        [
            ("add", 0, (((), "b"), ((), "c")), "(prop)"),
            ("add", 0, (((), "a"), ((), "b")), "(nom)"),
            ("add", 1, ((("a",), "a"), (("b",), "a")), "(wvar)"),
            ("remove", 1, ((("b",), "b"), (("b",), "b")), "(atv)"),
            ("remove", 0, (((), "a"), ((), "a")), "(atn)"),
            ("remove", 2, ((("a", "c"), "c"), (("a", "c"), "c")), "(st)"),
            ("remove", 1, ((("c",), "a"), (("c",), "a")), "(ex-f)"),
            ("remove", 1, ((("c",), "a"), (("c",), "a")), "(ex-b)"),
            ("add", 1, (((), "a"), ((), "a")), "malformed tuple lengths"),
            ("add", 0, (((), "z"), ((), "z")), "unknown states"),
        ],
        ids=["prop", "nom", "wvar", "atv", "atn", "st", "ex-f", "ex-b", "length", "unknown-state"],
    )
    def test_each_clause_reported(self, change, level, entry, tag):
        m = model_from_dict(
            {"states": ["a", "b", "c"], "nominals": {"k": "a"}, "relations": {"l": [["a", "b"], ["b", "c"]]},
             "props": {"p": ["c"]}}
        )
        fam = identity_family(m, 2)
        assert validate_bisim_family(fam, FULL, m, m).ok
        assert (entry in fam.levels[level]) == (change == "remove")
        getattr(fam.levels[level], change)(entry)
        report = validate_bisim_family(fam, FULL, m, m)
        assert any(tag in v for v in report.violations), report.violations


class TestExtractWitness:
    def test_identical_models(self):
        left, _ = fx.fork_pair()
        twin = PointedModel(left.model, "0")
        fam = extract_bisim_witness(FULL, left, twin, 2)
        assert family_relates(fam, "0", "0")
        assert validate_bisim_family(fam, FULL, left.model, left.model).ok

    def test_fork_store_fragment(self):
        left, right = fx.fork_pair()
        fam = extract_bisim_witness(DS, left, right, 3)
        assert family_relates(fam, "0", "0")
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

    def test_heights_run_to_the_feasible_cap(self):
        # every height from 1 to 8 under every fragment, whatever the
        # verdict; the finite games are lost from the loss rank on
        states = ["s0", "s1", "s2"]
        edges = [[a, b] for a in states for b in states if (a, b) != ("s0", "s0")]
        m = model_from_dict({"states": states, "relations": {"l": edges}, "props": {"p": states}})
        pm = PointedModel(m, "s1")
        left, right = fx.loop_pair(4)
        for f, lp, rp in ((DS, pm, pm), (DAS, pm, pm), (DS, left, right)):
            report = hennessy_milner_check(lp, rp, f)
            assert report.heights == tuple(range(1, 9))
            rank = omega_solve(f, lp, rp).loss_rank()
            expected = tuple(rank is None or h < rank for h in report.heights)
            assert report.char_equal_per_height == expected
        assert rank == 3 and not report.elementary_proxy

    def test_one_tall_game_gives_every_height(self):
        # the report plays the finite game on the tallest complete tree only;
        # each height's verdict must be that of its own complete tree
        rng = random.Random(95)
        mixed = 0
        for f in [f for f in FRAGMENTS if "exists" not in f.ops]:
            for _ in range(12):
                sig = small_signature(rng)
                m, n = random_model_pair(rng, sig, max_states=3)
                starts = [(w, v) for w in m.states for v in n.states if m.profiles[w] == n.profiles[v]]
                w, v = rng.choice(starts) if starts else (m.states[0], n.states[0])
                left, right = PointedModel(m, w), PointedModel(n, v)
                report = hennessy_milner_check(left, right, f)
                actions = tuple(Rel(r) for r in sig.relations)
                separate = tuple(
                    ef_solve(complete_tree(sig, f, h, actions), left, right).winner == "eloise" for h in report.heights
                )
                assert report.char_equal_per_height == separate, f.describe()
                mixed += len(set(separate)) == 2
        assert mixed > 3  # some games are lost above height 1


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

        def table(succ, states):
            return [tuple(map(states.index, succ[s])) for s in states]

        arena.steps = [
            (
                table(successor_map(ap.left, m.states), arena.left),
                table(successor_map(ap.right, n.states), arena.right),
            )
            for ap in action_pair_closure(m, n, f.action_ctors)
        ]
    return arena


def all_positions(arena):
    """Every int position: each mask of named pairs with each current pair."""
    return [mask << arena.S | c for mask in range(1 << arena.S) for c in range(arena.S)]


def reply_lists(arena, pos):
    """Per challenger option at `pos`, the full list of the answering
    player's replies: each (base, codes) row expanded to base | code."""
    return [[base | code for code in codes] for base, codes in arena.options(pos)]


def brute_force_safety_verdict(f, left, right, arena=None) -> bool:
    """Classical greatest fixpoint over the fully enumerated arena (by default
    the solver's own): start from every property-holding position and delete
    positions with an unanswerable option until stable. Only tractable for the
    tiniest models."""
    if arena is None:
        arena = _Arena(f, left.model, right.model)
    safe = {p for p in all_positions(arena) if arena.prop(p)}
    changed = True
    while changed:
        changed = False
        for p in list(safe):
            if any(not any(r in safe for r in replies) for replies in reply_lists(arena, p)):
                safe.discard(p)
                changed = True
    return arena.code(left.current, right.current) in safe


def reference_prop(m, n, pos) -> bool:
    """The safety property on a (named pairs, current pair) position: the
    current pair agrees on every proposition and nominal, and names the
    same state as a named pair on one side exactly when on the other."""
    named, (w, v) = pos
    basic = m.valuation[w] == n.valuation[v] and all(
        (m.nominal_interp[k] == w) == (n.nominal_interp[k] == v) for k in m.sig.nominals
    )
    return basic and all((w == a) == (v == b) for a, b in named)


def reference_options(f, m, n, pos, shares=None):
    """The challenger's options at a (named pairs, current pair) position, each
    the list of the survivor's replies, in the solver's search order: per
    relation the left then the right diamond moves, `@k` per nominal, `@`
    each named pair in sorted order, store, then exists on the left per left
    state and on the right per right state; states in model order. Given
    `shares`, a test on a (left, right) state pair, each diamond and exists
    option lists first the replies whose moved or named pair passes it,
    keeping that order within each group."""
    named, (w, v) = pos

    def first(pairs):
        return sorted(pairs, key=lambda p: not shares(*p)) if shares else pairs

    options = []
    if "diamond" in f.ops:
        for r in m.sig.relations:
            left = [x for x in m.states if (w, x) in m.relation_interp[r]]
            right = [y for y in n.states if (v, y) in n.relation_interp[r]]
            options += [[(named, p) for p in first([(x, y) for y in right])] for x in left]
            options += [[(named, p) for p in first([(x, y) for x in left])] for y in right]
    if "at" in f.ops:
        options += [[(named, (m.nominal_interp[k], n.nominal_interp[k]))] for k in m.sig.nominals]
        options += [[(named, pair)] for pair in sorted(named)]
    if "store" in f.ops:
        options.append([(named | {(w, v)}, (w, v))])
    if "exists" in f.ops:
        options += [[(named | {p}, (w, v)) for p in first([(a, b) for b in n.states])] for a in m.states]
        options += [[(named | {p}, (w, v)) for p in first([(a, b) for a in m.states])] for b in n.states]
    return options


class TestIntArena:
    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_every_position_matches_the_tuple_rules(self, f):
        # states are numbered in sorted-name order: pair c is (L[c // |R|],
        # R[c % |R|]) and mask bit c' names the pair c'; replies come in model
        # order until the classes are built, and then class-matching first
        rng = random.Random(f"encoding:{f.describe()}")
        drawn = largest = split = 0
        while drawn < 6 or largest < 9:  # six pairs, at least one of them 3x3
            m, n = random_model_pair(rng, small_signature(rng), max_states=3)
            if drawn % 2:  # list the states out of name order
                m, n = (
                    KripkeModel(x.sig, x.states[::-1], x.nominal_interp, x.relation_interp, x.valuation) for x in (m, n)
                )
            arena = _Arena(f, m, n)
            left, right = sorted(m.states), sorted(n.states)
            S = len(left) * len(right)

            def pair(c):
                return left[c // len(right)], right[c % len(right)]

            for pos in all_positions(arena):
                mask, c = pos >> S, pos % (1 << S)
                expected = frozenset(pair(b) for b in range(S) if mask >> b & 1), pair(c)
                assert arena.decode(pos) == expected
                assert arena.prop(pos) == reference_prop(m, n, expected)
                replies = [[arena.decode(r) for r in option] for option in reply_lists(arena, pos)]
                assert replies == reference_options(f, m, n, expected)
            arena.refine()

            def shares(w, v):
                return arena.same_class[arena.code(w, v)]

            for pos in all_positions(arena):
                replies = [[arena.decode(r) for r in option] for option in reply_lists(arena, pos)]
                assert replies == reference_options(f, m, n, arena.decode(pos), shares)
            drawn, largest = drawn + 1, max(largest, S)
            split += 0 < sum(arena.same_class) < S
        assert split  # some pair has both kinds of reply

    def test_classes_are_the_diamond_game_verdicts(self):
        # the paper's Hennessy-Milner analogue on these finite models: two
        # states share a class iff the survivor wins the countable game with
        # diamond moves alone between them
        rng = random.Random(92)
        verdicts = []
        for _ in range(300):
            m, n = random_model_pair(rng, small_signature(rng), max_states=3)
            arena = _Arena(DIA, m, n)
            arena.refine()
            for w in m.states:
                for v in n.states:
                    wins = omega_solve(DIA, PointedModel(m, w), PointedModel(n, v)).eloise_wins
                    assert arena.same_class[arena.code(w, v)] == wins, (w, v)
                    verdicts.append(wins)
        assert 300 < sum(verdicts) < len(verdicts) - 300

    def test_decoded_views(self):
        rng = random.Random(86)
        seen = set()
        for f in FRAGMENTS:
            for _ in range(10):
                m, n = random_model_pair(rng, small_signature(rng), max_states=3)
                res = omega_solve(f, PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states)))
                decode = res._arena.decode
                init = decode(res.start)
                assert not init[0]
                assert (res.safe is None) == (res.winner == "abelard")
                for view in (res.dead, res.safe or res.dead):
                    decoded = {decode(pos) for pos in view.codes}
                    assert len(view) == len(view.codes) == len(decoded)
                    assert view == decoded and set(view) == decoded
                    assert view - {init} == decoded - {init}
                    assert all(pos in view for pos in decoded)
                    assert (frozenset({("nowhere", "nowhere")}), init[1]) not in view
                    named, (w, v) = init
                    malformed = [res.start, (named,), (named, w), (named, [w, v]), (list(named), (w, v)), ({1}, (w, v))]
                    assert not any(pos in view for pos in malformed)
                    seen.add(res.winner)
        assert seen == {"eloise", "abelard"}


def solved_sample(f, count=40):
    """omega_solve on the 5-state sweep model self-paired at s0 and on
    `count` random pairs of at most 3 states."""
    sig = Signature(nominals=("k",), relations=("l",), props=("p",))
    sweep = PointedModel(generate_random_model(7, 5, 0.4, sig), "s0")
    yield omega_solve(f, sweep, sweep)
    rng = random.Random(f"sample:{f.describe()}")
    for _ in range(count):
        m, n = random_model_pair(rng, small_signature(rng), max_states=3)
        yield omega_solve(f, PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states)))


def assert_safe_set_closed(res):
    """The safe set holds the start and the property, and answers every
    option of each of its positions inside its closure: a reply counts only
    when a stored safe position at the same current pair names a superset."""
    arena, safe, low = res._arena, res.safe.codes, res._arena.low
    assert res.start in safe
    covers = {}
    for pos in safe:
        covers.setdefault(pos & low, []).append(pos & ~low)
    for pos in safe:
        assert arena.prop(pos)
        assert all(
            any(not r & ~low & ~b for r in replies for b in covers.get(r & low, ()))
            for replies in reply_lists(arena, pos)
        )


class TestInvariants:
    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_dead_positions_hold_the_property(self, f):
        # a reply that breaks the property is skipped, not recorded: only a
        # violating start is dead without an unanswerable option
        checked = 0
        for res in solved_sample(f):
            prop = res._arena.prop
            if not prop(res.start):
                assert res.dead.codes == {res.start} and res.runs == 1
            disproven = res.dead.codes - {res.start}
            assert all(prop(pos) for pos in disproven)
            checked += len(disproven)
        assert checked > 0

    @pytest.mark.parametrize("f", FRAGMENTS, ids=lambda f: f.describe())
    def test_safe_set_is_closed_on_survivor_wins(self, f):
        wins = 0
        for res in solved_sample(f):
            if res.eloise_wins:
                assert_safe_set_closed(res)
                wins += 1
        assert wins > 0

    def test_only_a_tainted_run_restarts(self):
        # a run that adds disproofs keeps its certified set unless a position
        # that answered while still on the stack died later; both cases occur.
        # Every sampled win with disproofs restarts, so the two l-3-cycles
        # under DSE add one that disproves 15 positions in the run it keeps
        cycles = PointedModel(edges_model("a b c d e f", "a b c d e f", l="a-b b-c c-a d-e e-f f-d"), "a")
        runs = set()
        for res in [*(res for f in FRAGMENTS for res in solved_sample(f)), omega_solve(DSE, cycles, cycles)]:
            if res.eloise_wins and res.dead:
                assert_safe_set_closed(res)
                runs.add(min(res.runs, 2))
        assert runs == {1, 2}
        # the first run certifies positions through one that dies later; its
        # certified set is open, so only the second run's is the safe set
        # (the search stays too small to build the classes, the other restart)
        sig = Signature(nominals=("k",), relations=("l",), props=("p",))
        sweep = PointedModel(generate_random_model(39, 5, 0.4, sig), "s0")
        res = omega_solve(frag({"diamond"}), sweep, sweep)
        assert res.runs == 2 and res._arena.same_class is None
        assert_safe_set_closed(res)
        # a reply answered by the live position of a later reply in its row
        # relies on that position, whose death later taints the run too
        edges = "0-1 0-3 0-6 1-1 1-2 1-5 2-3 2-5 3-2 3-3 3-4 4-6 5-2 5-4 5-5 6-2 6-6".split()
        m = model_from_dict({"states": [f"s{i}" for i in range(7)], "nominals": {"k": "s3"}, "props": {"p": []},
                             "relations": {"l": [[f"s{e[0]}", f"s{e[2]}"] for e in edges]}})
        res = omega_solve(DAS, PointedModel(m, "s4"), PointedModel(m, "s4"))
        assert res.eloise_wins and res.runs == 2 and res._arena.same_class is None
        assert_safe_set_closed(res)

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
            assert bf_maps(max_back_and_forth(f, m, n)) == naive_max_back_and_forth(f, m, n), f.describe()
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
                for pos in res.dead.codes:
                    named, (w, v) = res._arena.decode(pos)
                    if named:
                        continue
                    rank = res._rank(pos)
                    survives = [seq_survives(f, PointedModel(m, w), PointedModel(n, v), d) for d in range(rank + 1)]
                    assert survives == [True] * rank + [False]
                    checked += 1
        assert checked > 100

    def test_loss_rank_is_the_first_lost_complete_tree(self):
        # the finite games on complete trees over the base relations share no
        # code with the arena: the countable game is lost in `loss_rank`
        # rounds iff that is the least height whose finite game is lost, and
        # a survivor win loses no complete tree up to height 4
        rng = random.Random(87)
        wins = ranks = 0
        for k in range(105):
            f = FRAGMENTS[k % len(FRAGMENTS)]
            sig = small_signature(rng)
            m, n = random_model_pair(rng, sig, max_states=3)
            # mostly starts that agree, so the game lasts a round or more
            starts = [(w, v) for w in m.states for v in n.states if m.profiles[w] == n.profiles[v] or k % 5 == 0]
            w, v = rng.choice(starts) if starts else (m.states[0], n.states[0])
            left, right = PointedModel(m, w), PointedModel(n, v)
            rank = omega_solve(f, left, right).loss_rank()
            actions = tuple(Rel(r) for r in sig.relations)
            heights = range(5) if rank is None else range(rank + 1)
            lost = [ef_solve(complete_tree(sig, f, h, actions), left, right).winner == "abelard" for h in heights]
            assert lost == [False] * 5 if rank is None else lost == [False] * rank + [True], (k, f.describe())
            wins += rank is None
            ranks += bool(rank)
        assert wins > 30 and ranks > 30

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
            assert family_relates(fam, w, w)
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
