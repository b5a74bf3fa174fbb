import copy
import gc
import pickle
import random
import sys
import threading
import weakref
import zlib

import pytest

from hdpl import syntax
from hdpl.corpus import FRAGMENTS, small_signature
from oracle_eval import naive_print, naive_print_action
from support import random_action, random_sentence, rename_sentence
from hdpl.syntax import (
    And,
    Comp,
    Dia,
    FragmentConfig,
    FragmentViolationError,
    Neg,
    Nom,
    ParseError,
    Prop,
    Rel,
    Signature,
    SignatureError,
    Star,
    Union,
    Store,
    At,
    UndeclaredSymbolError,
    basic_sentences,
    box,
    check_sentence,
    conj,
    disj,
    forall,
    extend_signature,
    extend_signature_with,
    parse_action,
    parse_sentence,
    print_action,
    print_sentence,
    validate_in_fragment,
)

SIG = Signature(nominals=("k",), relations=("l",), props=("p",))


class TestParse:
    def test_forced_by_grammar(self):
        s = parse_sentence("<l>(p & ~k)", SIG)
        assert s == Dia(Rel("l"), conj([Prop("p"), Neg(Nom("k"))]))

    def test_true_is_empty_conjunction(self):
        assert parse_sentence("true", SIG) == And(())

    def test_fragment_gate_on_exists(self):
        frag = FragmentConfig(frozenset({"diamond"}), frozenset())
        with pytest.raises(FragmentViolationError) as err:
            parse_sentence("exists x . p", SIG, frag)
        assert err.value.ctor == "exists"

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbolError):
            parse_sentence("q", SIG)
        with pytest.raises(UndeclaredSymbolError):
            parse_sentence("<m>p", SIG)

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_sentence("p & & q", SIG)
        assert err.value.pos == 4

    @pytest.mark.parametrize("text, pos", [("p & $q", 4), ("$", 0), ("<l>p$", 4), ("p\n  & q$", 7)])
    def test_unexpected_character_at_its_offset(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_sentence(text, SIG)
        assert err.value.pos == pos
        assert str(err.value) == f"unexpected character '$' (at position {pos})"

    def test_non_ascii_letter_is_an_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_sentence("pé", SIG)
        assert str(err.value) == "unexpected character 'é' (at position 1)"

    def test_binder_collision(self):
        with pytest.raises(ParseError):
            parse_sentence("down k . p", SIG)
        with pytest.raises(ParseError):
            parse_sentence("down x . down x . p", SIG, FragmentConfig.full())

    def test_precedence(self):
        # | binds loosest, & next, prefixes tightest
        s = parse_sentence("p & ~k | <l>p", SIG)
        t = parse_sentence("(p & (~k)) | (<l>p)", SIG)
        assert s == t

    def test_action_precedence(self):
        a = parse_action("l;l+l*", SIG)
        assert a == parse_action("(l;l)+(l*)", SIG)
        assert print_action(a) == "l;l+l*"


class TestPrint:
    def test_star_diamond(self):
        assert print_sentence(Dia(Star(Rel("l")), Prop("p"))) == "<l*>p"

    def test_true(self):
        assert print_sentence(And(())) == "true"

    def test_store_at(self):
        assert print_sentence(Store("x", At("x", Prop("p")))) == "down x . @x p"

    def test_reparse_examples(self):
        for text in [
            "true",
            "false",
            "p | ~k",
            "[l]p",
            "forall x . @x p",
            "<l;l*>(p & k)",
            "down y . (p | @y ~p)",
            "~~p",
        ]:
            s = parse_sentence(text, SIG)
            assert parse_sentence(print_sentence(s), SIG) == s

    def test_surface_text_stable(self):
        # printing a parsed non-derived formula reproduces it up to whitespace
        text = "down y . @y (p & ~k)"
        assert print_sentence(parse_sentence(text, SIG)) == text


class TestDerivedForms:
    def test_box_expansion(self):
        assert parse_sentence("[l]p", SIG) == parse_sentence("~<l>~p", SIG)

    def test_forall_expansion(self):
        assert parse_sentence("forall x . p", SIG) == parse_sentence("~exists x . ~p", SIG)

    def test_or_expansion(self):
        assert parse_sentence("p | k", SIG) == parse_sentence("~(~p & ~k)", SIG)

    def test_false_expansion(self):
        assert parse_sentence("false", SIG) == Neg(And(()))


class TestSignature:
    def test_disjoint_pools(self):
        with pytest.raises(SignatureError):
            Signature(nominals=("a",), props=("a",))

    def test_extension_names(self):
        d2, v = extend_signature(SIG)
        assert (d2.bound_vars, v) == (("x0",), "x0")
        d3, v2 = extend_signature(d2)
        assert (d3.bound_vars, v2) == (("x0", "x1"), "x1")

    def test_extension_skips_taken_names(self):
        sig = Signature(props=("x0",))
        _, v = extend_signature(sig)
        assert v == "x1"

    def test_freshness_after_n_extensions(self):
        sig = SIG
        seen = []
        for _ in range(5):
            sig, v = extend_signature(sig)
            seen.append(v)
        assert len(sig.bound_vars) == 5
        assert len(set(seen)) == 5
        assert not set(seen) & set(SIG.all_names())

    def test_extension_chains_match_rebuilt_pools(self):
        # an extension checks its fresh name against pools it inherits, not
        # rebuilt ones: the name is still the first x{n}, n >= the number of
        # bound variables, that no pool holds, and the result equals the
        # publicly constructed (and so checked) signature
        rng = random.Random(14)
        for _ in range(200):
            sig = Signature(relations=("l",), props=tuple(f"x{k}" for k in rng.sample(range(12), 3)))
            for _ in range(10):
                if rng.random() < 0.2:
                    name = f"x{rng.randrange(12)}"
                    if name not in sig.all_names():
                        sig = extend_signature_with(sig, name)
                    continue
                n = len(sig.bound_vars)
                while f"x{n}" in sig.all_names():
                    n += 1
                ext, v = extend_signature(sig)
                assert v == f"x{n}"
                assert ext == Signature(sig.nominals, sig.relations, sig.props, sig.bound_vars + (v,))
                sig = ext

    def test_basic_sentences_of_an_extension(self):
        # basics cached before the first extension: the extension is built
        # from its parent's fields and does not inherit that cache
        sig = Signature(nominals=("k",), relations=("l",), props=("p",))
        assert basic_sentences(sig) == (Nom("k"), Prop("p"))
        assert basic_sentences(sig) is basic_sentences(sig)
        ext, v = extend_signature(sig)
        assert basic_sentences(ext) == (Nom("k"), Nom(v), Prop("p"))
        assert basic_sentences(extend_signature(ext)[0])[2] == Nom("x1")

    def test_overlapping_bound_variables_rejected(self):
        with pytest.raises(SignatureError):
            Signature(props=("x0",), bound_vars=("x0",))
        with pytest.raises(SignatureError):
            extend_signature_with(extend_signature(SIG)[0], "x0")

    @pytest.mark.parametrize(
        "pool, name",
        [("props", "true"), ("nominals", "false"), ("relations", "down"), ("props", "exists"),
         ("bound_vars", "forall"), ("props", "a b"), ("nominals", "1k"), ("relations", "")],
    )
    def test_names_a_formula_cannot_refer_to_rejected(self, pool, name):
        # the parser reads a keyword as itself and splits a non-identifier,
        # so no formula could refer to the symbol
        with pytest.raises(SignatureError, match="no formula can refer to"):
            Signature(**{pool: (name,)})
        assert Signature(props=("p'", "_q1"), nominals=("K",)).props == ("p'", "_q1")

    def test_from_dict_round_trip(self):
        assert Signature.from_dict(SIG.to_dict()) == SIG

    @pytest.mark.parametrize("d", [[1], {"props": 5}, {"props": "pq"}, {"nominals": [1]}])
    def test_from_dict_rejects_malformed_input(self, d):
        with pytest.raises(SignatureError):
            Signature.from_dict(d)


class TestFragmentConfig:
    def test_parse_flags(self):
        frag = FragmentConfig.parse("diamond,store,star")
        assert frag.ops == frozenset({"diamond", "store"})
        assert frag.action_ctors == frozenset({"star"})

    def test_ctors_need_diamond(self):
        with pytest.raises(SignatureError):
            FragmentConfig(frozenset({"store"}), frozenset({"star"}))

    def test_unknown_flag(self):
        with pytest.raises(SignatureError):
            FragmentConfig.parse("boxes")


class TestValidateInFragment:
    def test_boolean_core_always_accepted(self):
        frag = FragmentConfig(frozenset(), frozenset())
        assert validate_in_fragment(parse_sentence("p & ~k | true", SIG), frag).ok

    def test_full_formula_accepted_in_full_fragment(self):
        s = parse_sentence("down x . (exists y . @y <l*>x)", SIG)
        assert validate_in_fragment(s, FragmentConfig.full()).ok

    def test_violations_carry_paths_and_ctors(self):
        s = parse_sentence("down x . (exists y . @y <l>x)", SIG)
        frag = FragmentConfig(frozenset({"diamond", "at"}), frozenset())
        report = validate_in_fragment(s, frag)
        assert not report.ok
        ctors = {c for _, c in report.violations}
        assert ctors == {"store", "exists"}

    def test_linear_order_axioms_fragment_gating(self):
        from hdpl import fixtures as fx

        phi = parse_sentence(fx.finite_orders_formula(), fx.SIG_NOM)
        assert validate_in_fragment(phi, FragmentConfig.full()).ok
        narrowed = FragmentConfig(frozenset({"diamond", "at"}), frozenset({"star"}))
        report = validate_in_fragment(phi, narrowed)
        assert not report.ok
        assert {c for _, c in report.violations} == {"exists"}

    def test_action_constructors_reported_in_pre_order(self):
        sig = Signature(relations=("l", "m"), props=("p",))
        s = parse_sentence("<(l;m)+l*>p", sig)
        report = validate_in_fragment(s, FragmentConfig(frozenset({"diamond"}), frozenset()))
        assert report.violations == (("root/act", "union"), ("root/act/l", "comp"), ("root/act/r", "star"))

    def test_first_undeclared_relation_in_pre_order(self):
        s = Dia(Union(Comp(Rel("a"), Rel("b")), Star(Rel("c"))), Prop("p"))
        with pytest.raises(UndeclaredSymbolError) as err:
            check_sentence(s, SIG, {})
        assert err.value.symbol == "a"

    def test_shared_conjunction_checked_in_each_scope(self):
        # the conjunction x & p is well-formed under the binder only; its
        # second occurrence, checked after the first, is outside the binder,
        # whether or not the calls share what they checked
        body = conj([Nom("x"), Prop("p")])
        shared = {}
        for checked in ({}, shared, shared):
            check_sentence(Store("x", body), SIG, checked)
            with pytest.raises(UndeclaredSymbolError) as err:
                check_sentence(And((Store("x", body), Dia(Rel("l"), body))), SIG, checked)
            assert err.value.symbol == "x"

    def test_each_call_checks_actions_against_its_own_signature(self):
        s = Dia(Star(Rel("m")), Prop("p"))
        check_sentence(s, Signature(relations=("l", "m"), props=("p",)), {})
        with pytest.raises(UndeclaredSymbolError) as err:
            check_sentence(s, Signature(relations=("l",), props=("p",)), {})
        assert err.value.symbol == "m"


class TestRoundTrip:
    @pytest.mark.parametrize("frag", FRAGMENTS, ids=lambda f: f.describe())
    def test_parse_print_identity(self, frag):
        rng = random.Random(zlib.crc32(frag.describe().encode()))
        for _ in range(1000):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, frag)
            assert parse_sentence(print_sentence(s), sig, frag) == s


def test_rename_sentence_round_trip():
    mapping = {"p": "q", "l": "m", "k": "j"}
    target = Signature(nominals=("j",), relations=("m",), props=("q",))
    s = parse_sentence("down x . (@k <l>x | p)", SIG)
    renamed = rename_sentence(s, mapping)
    back = rename_sentence(renamed, {v: k for k, v in mapping.items()})
    assert back == s
    assert parse_sentence(print_sentence(renamed), target) == renamed


def test_conjunction_canonical_order_and_dedup():
    a, b = Prop("p"), Neg(Nom("k"))
    assert conj([a, b, a]) == conj([b, a])
    assert conj([a]) is conj(iter([a])) is conj([a, a]) is a
    assert conj([]) is conj(iter(())) is And(())
    assert disj([a]) == disj([a, a]) == a


class TestTerms:
    """Hash-consed terms: equal terms are one object, however they were
    built, the intern table keeps no term alive, and the cached text is the
    text a plain recursive printer gives."""

    def test_parsed_and_constructed_terms_are_one_object(self):
        s = parse_sentence("<l*>(p & ~k) | down x . @x p", SIG)
        built = disj([Dia(Star(Rel("l")), conj([Prop("p"), Neg(Nom("k"))])), Store("x", At("x", Prop("p")))])
        assert s is built
        assert parse_action("l;l*+l", SIG) is Union(Comp(Rel("l"), Star(Rel("l"))), Rel("l"))
        assert parse_sentence("[l]p", SIG) is box(Rel("l"), Prop("p"))
        assert parse_sentence("forall x . x", SIG) is forall("x", Nom("x"))
        assert Prop("k") is not Nom("k") and Comp(Rel("l"), Rel("l")) is not Union(Rel("l"), Rel("l"))

    @pytest.mark.parametrize("frag", FRAGMENTS, ids=lambda f: f.describe())
    def test_reparsed_corpus_sentences_are_one_object(self, frag):
        rng = random.Random(31)
        for _ in range(300):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, frag)
            assert parse_sentence(print_sentence(s), sig, frag) is s

    def test_dead_terms_leave_the_table(self):
        gc.collect()
        before = len(syntax._TABLE)
        rng = random.Random(7)
        terms = [random_sentence(rng, small_signature(rng), FRAGMENTS[i % len(FRAGMENTS)]) for i in range(10_000)]
        for s in terms[::10]:
            print_sentence(s)
        assert len(syntax._TABLE) > before + 1000
        # the table holds weak references only, a field that is a term by its id
        assert all(type(ref) is syntax._Ref and ref() is not None for ref in syntax._TABLE.values())
        assert not any(isinstance(field, syntax._Term) for key in syntax._TABLE for field in key)
        del terms, s
        gc.collect()
        assert len(syntax._TABLE) == before

    @pytest.mark.parametrize("frag", FRAGMENTS, ids=lambda f: f.describe())
    def test_cached_text_equals_the_reference_printer(self, frag):
        # later sentences reuse earlier terms, printed and cached in another
        # context, under conjunctions, disjunctions and prefixes
        rng = random.Random(11)
        seen = []
        for _ in range(300):
            sig = small_signature(rng)
            s = random_sentence(rng, sig, frag)
            if seen and rng.random() < 0.5:
                other = rng.choice(seen)
                s = rng.choice([conj([s, other]), disj([s, other]), Neg(conj([other, s])), Dia(Rel("l"), s)])
            if rng.random() < 0.1:
                # a one-item conjunction, which `conj` never makes, prints as its item
                s = rng.choice([Neg(And((s,))), conj([And((s,)), Prop(sig.props[0])])])
            assert print_sentence(s) == naive_print(s)
            seen.append(s)
            a = random_action(rng, sig, frag)
            assert print_action(a) == naive_print_action(a)
            assert print_action(Star(a)) == naive_print_action(Star(a))

    @pytest.mark.parametrize("seed", range(5))
    def test_threads_building_equal_terms_get_one_object(self, seed):
        # more threads than cores, switching often, parse and print the same
        # new terms; a lost race in the table would give one thread a second
        # object, and one in the text cache a text without its precedence
        rng = random.Random(seed)
        sig = Signature(nominals=("k",), relations=("l",), props=("p", "q"))
        texts = [print_sentence(random_sentence(rng, sig, FRAGMENTS[-1], depth=4)) for _ in range(300)]
        built = [None] * 6
        start = threading.Barrier(len(built))

        def work(i):
            start.wait(timeout=60)
            built[i] = [(s, print_sentence(s)) for s in (parse_sentence(text, sig) for text in texts)]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(built))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(s is first for other in built for (s, _), (first, _) in zip(other, built[0]))
        assert [text for _, text in built[0]] == texts

    def test_terms_are_immutable_and_copy_to_themselves(self):
        s = parse_sentence("<l>(p & k)", SIG)
        with pytest.raises(AttributeError):
            s.body = Prop("p")
        with pytest.raises(AttributeError):
            del s.action
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.deepcopy(s) is s
        assert weakref.ref(s)() is s
        assert repr(Dia(Rel("l"), Prop("p"))) == "Dia(action=Rel(name='l'), body=Prop(name='p'))"
