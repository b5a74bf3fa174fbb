import random

import pytest

from hdpl import fixtures as fx
from hdpl.kripke import (
    KripkeModel,
    ModelError,
    PointedModel,
    expand,
    find_isomorphism,
    generate_random_model,
    interpret_action,
    is_rooted,
    model_from_dict,
    model_to_dict,
    verify_isomorphism,
)
from hdpl.syntax import Comp, Rel, Signature, SignatureError, Star, Union
from support import generate_random_rooted_model, reduct, reduct_renaming

SIG = Signature(nominals=("k",), relations=("l",), props=("p",))


def loop():
    return fx.loop_model()


class TestInterpretAction:
    def test_composition_on_loop(self):
        # by-hand composition oracle over the loop edges, frozen:
        # 0 -> {1, a}, 1 -> {0, b}; two steps from 0 reach {0, b}, from 1 reach {1, a}
        got = interpret_action(loop(), Comp(Rel("l"), Rel("l")))
        assert got == frozenset({("0", "0"), ("0", "b"), ("1", "1"), ("1", "a")})

    def test_naive_composition_oracle(self):
        m = loop()
        base = m.relation_interp["l"]
        brute = {(a, c) for (a, b) in base for (b2, c) in base if b == b2}
        assert interpret_action(m, Comp(Rel("l"), Rel("l"))) == frozenset(brute)

    def test_star_contains_identity(self):
        m = loop()
        star = interpret_action(m, Star(Rel("l")))
        assert all((w, w) in star for w in m.states)

    def test_union_symmetry(self):
        sig = Signature(relations=("l", "m"), props=())
        rng = random.Random(3)
        m = generate_random_model(rng, 4, 0.4, sig)
        ab = interpret_action(m, Union(Rel("l"), Rel("m")))
        ba = interpret_action(m, Union(Rel("m"), Rel("l")))
        assert ab == ba

    def test_undeclared_relation_rejected(self):
        from hdpl.syntax import UndeclaredSymbolError

        with pytest.raises(UndeclaredSymbolError):
            interpret_action(loop(), Rel("zz"))

    def test_star_idempotent_and_absorbs_composition(self):
        rng = random.Random(17)
        for i in range(100):
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 5), rng.random(), SIG)
            once = interpret_action(m, Star(Rel("l")))
            twice = interpret_action(m, Star(Star(Rel("l"))))
            assert once == twice
            comp = interpret_action(m, Comp(Rel("l"), Star(Rel("l"))))
            assert comp <= once


class TestExpandReduct:
    def test_expand_sets_interpretation(self):
        m = loop()
        m2 = expand(m, "x0", "1")
        assert m2.nominal_interp["x0"] == "1"
        assert m2.sig.bound_vars == ("x0",)

    def test_reduct_of_expand_is_identity(self):
        rng = random.Random(5)
        for _ in range(500):
            m = generate_random_model(rng.randrange(2**30), rng.randint(1, 5), rng.random(), SIG)
            w = rng.choice(m.states)
            assert reduct(expand(m, "x0", w)) == m

    def test_colliding_variable_rejected(self):
        m = loop()
        with pytest.raises(SignatureError):
            expand(m, "p", "0")
        m2 = expand(m, "x0", "0")
        with pytest.raises(SignatureError):
            expand(m2, "x0", "1")


class TestIsomorphism:
    def test_renamed_copy_found(self):
        m = loop()
        ren = {s: f"state_{s}" for s in m.states}
        copy = KripkeModel(
            m.sig,
            tuple(ren[s] for s in m.states),
            {},
            {"l": frozenset((ren[a], ren[b]) for a, b in m.relation_interp["l"])},
            {ren[s]: m.valuation[s] for s in m.states},
        )
        h = find_isomorphism(PointedModel(m, "0"), PointedModel(copy, "state_0"))
        assert h is not None
        assert verify_isomorphism(PointedModel(m, "0"), PointedModel(copy, "state_0"), h)

    def test_fork_pair_absent_by_cardinality(self):
        left, right = fx.fork_pair()
        assert find_isomorphism(left, right) is None

    def test_loop_vs_truncation_absent(self):
        # same state count (4) but the loop has a cycle; exhaustive oracle
        left = PointedModel(loop(), "0")
        right = PointedModel(fx.unrolled_model(1), "0")
        assert len(left.model.states) == len(right.model.states)
        assert find_isomorphism(left, right) is None
        # brute-force all bijections as the oracle
        import itertools

        found = False
        for perm in itertools.permutations(right.model.states):
            h = dict(zip(left.model.states, perm))
            if verify_isomorphism(left, right, h):
                found = True
        assert not found

    def test_point_preservation_required(self):
        m = loop()
        # loop has an automorphism swapping 0<->1 and a<->b, but not fixing 0->1
        assert find_isomorphism(PointedModel(m, "0"), PointedModel(m, "1")) is not None
        single = fx.unrolled_model(1)
        assert find_isomorphism(PointedModel(single, "0"), PointedModel(single, "1")) is None


    def test_search_backtracks(self):
        # a's first candidate u is consistent with r -> r, but then b (the
        # only p-state) must go to x, which u does not reach; a goes to w
        m = model_from_dict(
            {"states": ["r", "a", "b", "c", "d"], "relations": {"l": [["r", "a"], ["r", "c"], ["a", "b"], ["c", "d"]]},
             "props": {"p": ["b"]}}
        )
        n = model_from_dict(
            {"states": ["r", "u", "v", "w", "x"], "relations": {"l": [["r", "u"], ["r", "w"], ["u", "v"], ["w", "x"]]},
             "props": {"p": ["x"]}}
        )
        left, right = PointedModel(m, "r"), PointedModel(n, "r")
        h = find_isomorphism(left, right)
        assert h == {"r": "r", "a": "w", "b": "x", "c": "u", "d": "v"}
        assert verify_isomorphism(left, right, h)
        # on two 3-cycles, a's first candidate y leaves b (a p-state) no image;
        # the choice a -> y must leave the map before a tries z
        m = model_from_dict(
            {"states": ["r", "a", "b", "c"], "relations": {"l": [["a", "c"], ["b", "a"], ["c", "b"]]},
             "props": {"p": ["r", "b"]}}
        )
        n = model_from_dict(
            {"states": ["r", "x", "y", "z"], "relations": {"l": [["x", "z"], ["y", "x"], ["z", "y"]]},
             "props": {"p": ["r", "x"]}}
        )
        left, right = PointedModel(m, "r"), PointedModel(n, "r")
        assert find_isomorphism(left, right) == {"r": "r", "a": "z", "b": "x", "c": "y"}

    def test_state_order_does_not_hide_an_isomorphism(self):
        # profiles {p} and {q} are incomparable as sets: sorting them left
        # each list in its own order, so one model against itself listed in
        # another order was reported not isomorphic
        sig = Signature(relations=("l",), props=("p", "q"))
        m = KripkeModel(sig, ("a", "b"), {}, {}, {"a": {"p"}, "b": {"q"}})
        n = KripkeModel(sig, ("b", "a"), {}, {}, {"a": {"p"}, "b": {"q"}})
        assert find_isomorphism(PointedModel(m, "a"), PointedModel(n, "a")) == {"a": "a", "b": "b"}

    def test_agrees_with_brute_force(self):
        import itertools

        rng = random.Random(5)
        sig = Signature(nominals=("k",), relations=("l", "m"), props=("p", "q"))
        found = 0
        for _ in range(300):
            m = generate_random_model(rng, rng.randint(1, 5), rng.random(), sig)
            names = [f"t{i}" for i in range(len(m.states))]
            rng.shuffle(names)
            ren = dict(zip(m.states, names))
            rels = {r: {(ren[a], ren[b]) for a, b in m.relation_interp[r]} for r in sig.relations}
            if rng.random() < 0.3:
                rels["l"] ^= {(rng.choice(names), rng.choice(names))}
            n = KripkeModel(sig, tuple(rng.sample(names, len(names))), {"k": ren[m.nominal_interp["k"]]}, rels,
                            {ren[w]: m.valuation[w] for w in m.states})
            left, right = PointedModel(m, m.states[0]), PointedModel(n, rng.choice(names))
            exists = any(verify_isomorphism(left, right, dict(zip(m.states, perm)))
                         for perm in itertools.permutations(n.states))
            h = find_isomorphism(left, right)
            assert (h is not None) == exists and (h is None or verify_isomorphism(left, right, h))
            found += exists
        assert 50 < found < 250

    def test_verify_rejects_wrong_maps(self):
        m = KripkeModel(SIG, ("a", "b", "c"), {"k": "a"}, {}, {})
        two = KripkeModel(SIG, ("a", "b"), {"k": "a"}, {}, {})
        left = PointedModel(m, "c")
        assert verify_isomorphism(left, left, {"a": "a", "b": "b", "c": "c"})
        assert not verify_isomorphism(left, left, {"a": "a", "b": "b", "c": "c", "z": "z"})  # not on the states
        onto_two = {"a": "a", "b": "b", "c": "b"}  # onto, not injective
        assert not verify_isomorphism(PointedModel(m, "a"), PointedModel(two, "a"), onto_two)
        assert not verify_isomorphism(left, left, {"a": "b", "b": "a", "c": "c"})  # moves k


class TestConstruction:
    @pytest.mark.parametrize(
        "states, nominals, relations, valuation, message",
        [
            ((), {}, {}, {}, "a model needs at least one state"),
            (("a", "a"), {"k": "a"}, {}, {}, "duplicate state names"),
            (("a",), {}, {}, {}, "nominal interpretation missing for 'k'"),
            (("a",), {"k": "z"}, {}, {}, "nominal 'k' names unknown state 'z'"),
            (("a",), {"k": "a", "j": "a"}, {}, {}, "interpretation for undeclared names: ['j']"),
            (("a",), {"k": "a"}, {"r": frozenset()}, {}, "interpretation for undeclared relations: ['r']"),
            (("a",), {"k": "a"}, {}, {"a": frozenset({"q"})}, "state 'a' carries undeclared props ['q']"),
            (("a",), {"k": "a"}, {}, {"c": frozenset({"p"}), "b": frozenset()}, "valuation for unknown states: ['b', 'c']"),
        ],
        ids=["no-states", "duplicate-states", "nominal-missing", "nominal-unknown-state", "undeclared-name",
             "undeclared-relation", "undeclared-prop", "valuation-unknown-state"],
    )
    def test_invalid_models_rejected(self, states, nominals, relations, valuation, message):
        with pytest.raises(ModelError) as err:
            KripkeModel(SIG, states, nominals, relations, valuation)
        assert str(err.value) == message


class TestRooted:
    def test_single_state_no_edges(self):
        m = KripkeModel(Signature(relations=("l",)), ("w",), {}, {"l": frozenset()}, {"w": frozenset()})
        assert is_rooted(PointedModel(m, "w"))

    def test_isolated_state_breaks_rootedness(self):
        left, _ = fx.isolated_state_pair()
        assert not is_rooted(left)

    def test_loop_is_rooted(self):
        assert is_rooted(PointedModel(loop(), "0"))

    def test_generated_rooted_models(self):
        rng = random.Random(2)
        for i in range(50):
            m = generate_random_rooted_model(rng.randrange(2**30), rng.randint(1, 5), 0.2, SIG)
            assert is_rooted(PointedModel(m, m.states[0]))


class TestRandomModels:
    def test_same_seed_same_model(self):
        assert generate_random_model(7, 4, 0.4, SIG) == generate_random_model(7, 4, 0.4, SIG)

    def test_density_zero_edgeless(self):
        m = generate_random_model(1, 4, 0.0, SIG)
        assert m.relation_interp["l"] == frozenset()
        assert all(not ps for ps in m.valuation.values())

    def test_density_one_complete(self):
        m = generate_random_model(1, 3, 1.0, SIG)
        assert len(m.relation_interp["l"]) == 9
        assert all(ps == frozenset({"p"}) for ps in m.valuation.values())


class TestModelIO:
    def test_round_trip(self):
        m = loop()
        assert model_from_dict(model_to_dict(m)) == m

    def test_validation_rejects_unknown_state(self):
        d = model_to_dict(loop())
        d["relations"]["l"].append(["0", "zzz"])
        with pytest.raises(ModelError):
            model_from_dict(d)

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"states": ["s1", "s10"], "props": {"p": "s10"}}, "prop 'p' must be an array, not 's10'"),
            (
                {"states": ["a", "b"], "relations": {"l": ["ab"]}},
                "each pair of relation 'l' must be an array of two states",
            ),
            ({"states": ["a", "b"], "relations": {"l": "ab"}}, "relation 'l' must be an array, not 'ab'"),
            ({"states": "ab"}, "states must be an array, not 'ab'"),
            ({"states": ["a", 1]}, "state names must be strings: ['a', 1]"),
            ({"states": ["a"], "props": {"p": ["b"]}}, "prop 'p' holds at a state that is not in the model"),
        ],
        ids=["holders-string", "pair-string", "pairs-string", "states-string", "state-number", "unknown-holder"],
    )
    def test_json_arrays_and_string_states_required(self, d, message):
        with pytest.raises(ModelError) as err:
            model_from_dict(d)
        assert str(err.value) == message


def test_reduct_renaming_round_trip():
    mapping = {"k": "j", "l": "m", "p": "q"}
    target = Signature(nominals=("j",), relations=("m",), props=("q",))
    m = generate_random_model(11, 4, 0.5, target)
    back = reduct_renaming(m, SIG, mapping)
    assert back.sig == SIG
    assert back.nominal_interp["k"] == m.nominal_interp["j"]
    assert back.relation_interp["l"] == m.relation_interp["m"]
    assert all(("p" in back.valuation[w]) == ("q" in m.valuation[w]) for w in m.states)
