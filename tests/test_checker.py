import itertools
import random
import zlib

import pytest

from oracle_eval import naive_satisfies
from support import canonical_vars, random_sentence

from hdpl import fixtures as fx
from hdpl.checker import SignatureMismatchError, game_property, satisfies
from hdpl.corpus import FRAGMENTS, small_signature
from hdpl.games import char_formula, enumerate_game_sentences, lower_game_sentence
from hdpl.gameboard import leaf, parse_tree
from hdpl.kripke import PointedModel, expand, generate_random_model
from hdpl.syntax import (
    And,
    Dia,
    FragmentConfig,
    Neg,
    Nom,
    Prop,
    Rel,
    Signature,
    SignatureError,
    Star,
    Store,
    UndeclaredSymbolError,
    Union,
    Comp,
    check_sentence,
    conj,
    parse_sentence,
    print_sentence,
)

SIG = Signature(nominals=("k",), relations=("l",), props=("p",))


class TestSatisfiesExamples:
    def test_two_steps_reach_p(self):
        left, _ = fx.loop_pair()
        assert satisfies(left, parse_sentence("<l><l>p", fx.SIG_P))

    def test_empty_conjunction_everywhere(self):
        rng = random.Random(0)
        for _ in range(20):
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), SIG)
            pm = PointedModel(m, rng.choice(m.states))
            assert satisfies(pm, parse_sentence("true", SIG))

    def test_finite_orders_formula_on_fixtures(self):
        phi = parse_sentence(fx.finite_orders_formula(), fx.SIG_NOM)
        for n in range(2, 7):
            assert satisfies(fx.nominal_chain(n), phi)
        assert not satisfies(fx.nominal_two_cycle(), phi)
        for k1, k2 in itertools.permutations(("0", "1", "a", "b"), 2):
            assert not satisfies(fx.nominal_loop_model(k1, k2), phi)


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize("frag", FRAGMENTS, ids=lambda f: f.describe())
    def test_random_corpus_agreement(self, frag):
        rng = random.Random(zlib.crc32(frag.describe().encode()))
        for _ in range(60):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, frag)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            pm = PointedModel(m, rng.choice(m.states))
            assert satisfies(pm, s) == naive_satisfies(pm, s), print_sentence(s)


class TestSharedCache:
    """Every `satisfies` call on one model shares its memo and its record of
    well-formed subterms; the verdicts and errors are those of a fresh call."""

    def test_verdicts_in_either_order(self):
        sig = Signature(relations=("l",), props=("p",))
        tree = parse_tree("(down (dia l leaf))", sig)
        lowered = [lower_game_sentence(g) for g in enumerate_game_sentences(tree, 256)]
        assert len(lowered) == 16
        rng = random.Random(17)
        sentences = lowered + [random_sentence(rng, sig, FragmentConfig.full()) for _ in range(24)]
        for seed in range(4):
            m = generate_random_model(seed, 4, 0.4, sig)
            fresh = generate_random_model(seed, 4, 0.4, sig)
            for w in m.states:
                pm = PointedModel(m, w)
                expected = [naive_satisfies(pm, s) for s in sentences]
                assert [satisfies(pm, s) for s in sentences] == expected
                assert [satisfies(pm, s) for s in reversed(sentences)] == expected[::-1]
                assert [satisfies(PointedModel(fresh, w), s) for s in reversed(sentences)] == expected[::-1]
                assert sum(expected[:16]) == 1  # one game sentence per tree holds

    def test_ill_formed_sentences_sharing_accepted_subterms(self):
        sig = Signature(nominals=("k",), relations=("l",), props=("p",))
        m = generate_random_model(3, 3, 0.5, sig)
        pm = PointedModel(m, m.states[0])
        good = parse_sentence("down x . <l>(p & x) & <l*>@k p", sig)
        body = conj([Prop("p"), Nom("x")])  # accepted under the binder x only
        bad = [
            (conj([good, Prop("q")]), UndeclaredSymbolError, "undeclared symbol 'q'"),
            (Dia(Rel("l"), body), UndeclaredSymbolError, "undeclared symbol 'x'"),
            (Dia(Union(Star(Rel("l")), Rel("m")), good), UndeclaredSymbolError, "undeclared symbol 'm'"),
            (Store("x", And((good, Store("x", body)))), SignatureError,
             "variable name 'x' collides with a declared symbol"),
        ]
        after = parse_sentence("<l>(p & ~k) | down y . <l*>y", sig)
        for run in range(2):
            assert satisfies(pm, good) == naive_satisfies(pm, good)
            for s, error, message in bad:
                for model in (m, generate_random_model(3, 3, 0.5, sig)):
                    with pytest.raises(error) as err:
                        satisfies(PointedModel(model, model.states[0]), s)
                    assert str(err.value) == message
                with pytest.raises(error) as err:
                    check_sentence(s, sig, {})
                assert str(err.value) == message
            assert satisfies(pm, after) == naive_satisfies(pm, after)

    def test_one_term_on_models_of_two_signatures(self):
        s = Dia(Star(Rel("m")), conj([Prop("p"), Nom("k")]))
        narrow = generate_random_model(5, 3, 0.5, Signature(nominals=("k",), relations=("l",), props=("p",)))
        wide = generate_random_model(5, 3, 0.5, Signature(nominals=("k",), relations=("l", "m"), props=("p",)))
        for _ in range(2):
            with pytest.raises(UndeclaredSymbolError) as err:
                satisfies(PointedModel(narrow, "s0"), s)
            assert err.value.symbol == "m"
            for w in wide.states:
                assert satisfies(PointedModel(wide, w), s) == naive_satisfies(PointedModel(wide, w), s)


class TestSatisfactionCondition:
    def test_expansion_instances(self):
        # evaluating a base-signature sentence is blind to fresh expansions;
        # binders are translated along the extension so they stay fresh
        rng = random.Random(9)
        frag = FragmentConfig.full()
        for _ in range(500):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, frag, depth=2)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            v = rng.choice(m.states)
            w = rng.choice(m.states)
            expanded = expand(m, "x0", w)
            translated = canonical_vars(s, expanded.sig)
            assert satisfies(PointedModel(expanded, v), translated) == satisfies(
                PointedModel(m, v), s
            )

    def test_renaming_instances(self):
        from support import reduct_renaming, rename_sentence

        mapping = {"k": "j", "l": "m", "p": "q"}
        target = Signature(nominals=("j",), relations=("m",), props=("q",))
        rng = random.Random(4)
        for _ in range(200):
            s = random_sentence(rng, SIG, FragmentConfig.full(), depth=2)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), target)
            v = rng.choice(m.states)
            lhs = satisfies(PointedModel(m, v), rename_sentence(s, mapping))
            rhs = satisfies(PointedModel(reduct_renaming(m, SIG, mapping), v), s)
            assert lhs == rhs


class TestSemanticLaws:
    def test_negation_and_de_morgan(self):
        rng = random.Random(21)
        for _ in range(200):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, FragmentConfig.full(), depth=2)
            t = random_sentence(rng, sig, FragmentConfig.full(), depth=2)
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            pm = PointedModel(m, rng.choice(m.states))
            assert satisfies(pm, Neg(s)) == (not satisfies(pm, s))
            disj = parse_sentence(
                f"({print_sentence(s)}) | ({print_sentence(t)})", sig
            )
            assert satisfies(pm, disj) == (satisfies(pm, s) or satisfies(pm, t))

    def test_action_operator_equivalences(self):
        rng = random.Random(22)
        sig = Signature(relations=("l", "m"), props=("p",))
        for _ in range(200):
            model = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            pm = PointedModel(model, rng.choice(model.states))
            s = random_sentence(rng, sig, FragmentConfig(frozenset({"diamond"}), frozenset()), depth=1)
            union = satisfies(pm, Dia(Union(Rel("l"), Rel("m")), s))
            split = satisfies(pm, Dia(Rel("l"), s)) or satisfies(pm, Dia(Rel("m"), s))
            assert union == split
            comp = satisfies(pm, Dia(Comp(Rel("l"), Rel("m")), s))
            nested = satisfies(pm, Dia(Rel("l"), Dia(Rel("m"), s)))
            assert comp == nested


class TestGameProperty:
    def test_identical_pointed_models(self):
        left, _ = fx.fork_pair()
        assert game_property(left, PointedModel(left.model, "0"))

    def test_fork_pair_agreements(self):
        left, right = fx.fork_pair()
        assert game_property(PointedModel(left.model, "1"), PointedModel(right.model, "1"))
        assert not game_property(PointedModel(left.model, "0"), PointedModel(right.model, "1"))

    def test_signature_mismatch_rejected(self):
        left, _ = fx.fork_pair()
        other = generate_random_model(0, 2, 0.5, SIG)
        with pytest.raises(SignatureMismatchError):
            game_property(left, PointedModel(other, other.states[0]))
        with pytest.raises(SignatureMismatchError):
            game_property(left, PointedModel(expand(left.model, "x0", "0"), "0"))

    def test_matches_leaf_characteristic_formulas(self):
        rng = random.Random(31)
        for _ in range(200):
            sig = small_signature(rng)
            m1 = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            m2 = generate_random_model(rng.randrange(2**30), rng.randint(1, 4), rng.random(), sig)
            pm1 = PointedModel(m1, rng.choice(m1.states))
            pm2 = PointedModel(m2, rng.choice(m2.states))
            lf = leaf(sig)
            chars_equal = char_formula(lf, pm1) == char_formula(lf, pm2)
            assert game_property(pm1, pm2) == chars_equal
