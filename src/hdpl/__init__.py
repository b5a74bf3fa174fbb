"""Toolkit for hybrid-dynamic propositional logic over finite Kripke models:
parsing and evaluation, gameboard trees, finite and countable equivalence
games, characteristic game sentences, bisimilarity and back-and-forth
equivalence."""

from .syntax import (
    Action,
    And,
    At,
    Comp,
    Dia,
    Exists,
    FragmentConfig,
    Neg,
    Nom,
    Prop,
    Rel,
    Sentence,
    Signature,
    Star,
    Store,
    Union,
    conj,
    disj,
    extend_signature,
    parse_action,
    parse_sentence,
    print_action,
    print_sentence,
    validate_in_fragment,
)
from .kripke import (
    KripkeModel,
    PointedModel,
    expand,
    find_isomorphism,
    generate_random_model,
    interpret_action,
    is_rooted,
    load_model,
    load_pointed,
)
from .checker import game_property, satisfies
from .gameboard import (
    KINDS,
    Edge,
    GameboardTree,
    complete_tree,
    parse_tree,
    print_tree,
    validate_tree,
)
from .games import (
    GameSentence,
    char_formula,
    ef_solve,
    enumerate_game_sentences,
    game_step,
    legal_moves,
    lower_game_sentence,
    normal_form,
    start_game,
)
from .omega import (
    action_pair_closure,
    bf_related,
    extract_bisim_witness,
    hennessy_milner_check,
    max_back_and_forth,
    omega_solve,
    rooted_iso_check,
    validate_bisim_family,
)
from .seqgame import seq_survives

__all__ = [name for name in dir() if not name.startswith("_")]
