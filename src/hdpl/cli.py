"""Command-line front-end.

Exit codes: 0 on positive verdicts, 1 on negative verdicts or counterexamples,
2 on usage, parse, or input errors, and on any internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import fixtures
from .checker import satisfies
from .corpus import (
    FRAGMENTS,
    default_actions,
    observing_tree,
    random_model_pair,
    random_tree,
    small_signature,
)
from .games import (
    AbelardMove,
    ef_solve,
    char_formula,
    enumerate_game_sentences,
    gs_text,
    legal_moves,
    lower_game_sentence,
    normal_form,
    predicted_theta_size,
    replay_trace,
    start_game,
    game_step,
)
from .gameboard import complete_tree, parse_tree, print_tree, validate_tree
from .kripke import (
    ModelError,
    PointedModel,
    find_isomorphism,
    load_model,
    load_pointed,
    model_to_dict,
)
from .omega import (
    back_and_forth_hypotheses,
    bf_related,
    extract_bisim_witness,
    hennessy_milner_check,
    max_back_and_forth,
    omega_solve,
    rooted_iso_check,
    validate_bisim_family,
)
from .seqgame import seq_survives
from .syntax import FragmentConfig, HdplError, Rel, Signature, parse_action, parse_sentence, print_sentence


def _read_text(path: str) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise HdplError(f"{path} is not a text file") from None


def _read_formula(arg: str) -> str:
    """`@path` names a formula file when the path exists; any other argument,
    `@k <l>p` among them, is formula text."""
    return _read_text(arg[1:]) if arg.startswith("@") and os.path.exists(arg[1:]) else arg


def _read_tree_text(arg: str) -> str:
    return _read_text(arg) if os.path.isfile(arg) else arg


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


# the fragment `hm` and `rootediso` compare when --fragment is not given
_HM_FRAGMENT = FragmentConfig(frozenset({"diamond", "at", "store"}), frozenset())


def _fragment(args, default: FragmentConfig = FragmentConfig.full()) -> FragmentConfig:
    """The fragment --fragment names whenever it is given, so an empty list
    is the boolean core; `default` when it is not."""
    return default if args.fragment is None else FragmentConfig.parse(args.fragment)


def _load_sig(path: str) -> Signature:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise ModelError(f"{path} is not valid JSON: {exc}") from None
    return Signature.from_dict(d)


def _emit(args, data: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    pm = PointedModel(load_model(args.model), args.state)
    frag = _fragment(args)
    s = parse_sentence(_read_formula(args.formula), pm.model.sig, frag)
    verdict = satisfies(pm, s)
    _emit(args, {"command": "check", "verdict": verdict}, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_game(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    frag = _fragment(args)
    tr = parse_tree(_read_tree_text(args.tree), left.model.sig, frag)
    res = ef_solve(tr, left, right)
    trace = [s.__dict__ for s in res.trace] if res.trace else None
    data = {"command": "game", "winner": res.winner, "trace": trace if args.trace else None}
    lines = [f"winner: {res.winner}"]
    if args.trace and res.trace:
        for step in res.trace:
            who = f" {step.side} -> {step.abelard}, answer {step.eloise}" if step.side else ""
            lines.append(f"  round: {step.edge}{who}")
    _emit(args, data, "\n".join(lines))
    return 0 if res.winner == "eloise" else 1


def _cmd_charform(args) -> int:
    pm = load_pointed(args.model)
    frag = _fragment(args)
    tr = parse_tree(_read_tree_text(args.tree), pm.model.sig, frag)
    g = char_formula(tr, pm)
    lowered = print_sentence(lower_game_sentence(g))
    data = {"command": "charform", "game_sentence": gs_text(g), "lowered": lowered}
    _emit(args, data, lowered if args.lower else gs_text(g))
    return 0


def _cmd_normalform(args) -> int:
    sig = _load_sig(args.sig)
    frag = _fragment(args)
    s = parse_sentence(_read_formula(args.formula), sig, frag)
    nf = normal_form(s, sig, frag)
    predicted = predicted_theta_size(nf.tree, args.cap)
    data = {
        "command": "normalform",
        "tree": print_tree(nf.tree),
        "theta_size": predicted if predicted <= args.cap else f"> {args.cap}",
    }
    lines = [f"tree: {data['tree']}", f"theta size: {data['theta_size']}"]
    if predicted <= args.cap:
        members = nf.enumerate_members(args.cap)
        data["members"] = [gs_text(g) for g in members]
        lines.append(f"members: {len(members)}")
        lines.extend(f"  {gs_text(g)}" for g in members[:20])
    _emit(args, data, "\n".join(lines))
    return 0


def _cmd_tree(args) -> int:
    sig = _load_sig(args.sig)
    frag = _fragment(args)
    if args.complete:
        actions = tuple(
            parse_action(a.strip(), sig, frag) for a in (args.actions or "").split(",") if a.strip()
        )
        tr = complete_tree(sig, frag, args.height, actions)
        _emit(args, {"command": "tree", "tree": print_tree(tr)}, print_tree(tr))
        return 0
    if not args.tree:
        print("error: --validate needs --tree", file=sys.stderr)
        return 2
    tr = parse_tree(_read_tree_text(args.tree), sig)
    report = validate_tree(tr, frag)
    data = {"command": "tree", "valid": report.ok, "problems": list(report.problems)}
    _emit(args, data, str(report))
    return 0 if report.ok else 1


def _cmd_omega(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    frag = _fragment(args)
    res = omega_solve(frag, left, right)
    data = {"command": "omega", "winner": res.winner, "fragment": frag.describe()}
    if res.winner == "abelard":
        data["loss_rank"] = res.loss_rank()
    _emit(args, data, f"winner: {res.winner}")
    return 0 if res.eloise_wins else 1


def _cmd_bf(args) -> int:
    m = load_model(args.modelL)
    n = load_model(args.modelR)
    frag = _fragment(args)
    for state, model, path in zip(args.pair or (), (m, n), (args.modelL, args.modelR)):
        if state not in model.states:
            raise ModelError(f"state '{state}' not in model {path}")
    system = max_back_and_forth(frag, m, n)
    if args.pair:
        w, v = args.pair
        related = system.relates(w, v)
        data = {"command": "bf", "related": related, "family_size": len(system)}
        _emit(args, data, "related" if related else "unrelated")
        return 0 if related else 1
    data = {"command": "bf", "family_size": len(system)}
    _emit(args, data, f"maximal family size: {len(system)}")
    return 0


def _cmd_hm(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    frag = _fragment(args, _HM_FRAGMENT)
    report = hennessy_milner_check(left, right, frag)
    text = [
        f"fragment: {report.fragment}",
        f"characteristic-formula agreement (heights {list(report.heights)}): {report.elementary_proxy}",
        f"countable-game equivalent: {report.omega_equivalent}",
        f"back-and-forth equivalent: {report.bf_equivalent}",
        f"hypotheses for bf = game: {report.hypotheses_met}",
    ]
    if report.divergence_expected:
        text.append("bf diverges from the game verdict (expected: hypotheses unmet)")
    _emit(args, {"command": "hm", **report.to_dict()}, "\n".join(text))
    return 0 if report.proxy_matches_omega and (report.bf_matches_omega or report.divergence_expected) else 1


def _cmd_rootediso(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    frag = _fragment(args, _HM_FRAGMENT)
    report = rooted_iso_check(left, right, frag)
    text = (
        f"isomorphic: {report.isomorphic}\n"
        f"countable-game equivalent: {report.omega_equivalent}\n"
        f"agree: {report.agree}"
    )
    _emit(args, {"command": "rootediso", **report.to_dict()}, text)
    return 0 if report.agree else 1


def _cmd_iso(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    h = find_isomorphism(left, right)
    data = {"command": "iso", "isomorphism": h}
    _emit(args, data, json.dumps(h) if h else "absent")
    return 0 if h else 1


def _cmd_play(args) -> int:
    left = load_pointed(args.left)
    right = load_pointed(args.right)
    frag = _fragment(args)
    tr = parse_tree(_read_tree_text(args.tree), left.model.sig, frag)
    gs = start_game(tr, left, right)
    human = args.play_as
    print(f"you play {human}; current: left={gs.left.current} right={gs.right.current}")

    def best_eloise(state):
        moves = legal_moves(state, "eloise")
        for mv in moves:
            nxt = game_step(state, mv)
            if not nxt.lost and ef_solve(nxt.tree, nxt.left, nxt.right).winner == "eloise":
                return mv
        return moves[0] if moves else None

    def best_abelard(state, moves):
        # the first step of a fastest forced loss, when there is one
        trace = ef_solve(state.tree, state.left, state.right).trace
        return AbelardMove(trace[0].edge_index, trace[0].side, trace[0].abelard) if trace else moves[0]

    while True:
        if gs.lost:
            print("game property violated: abelard wins")
            return 1 if human == "eloise" else 0
        if not gs.tree.children and gs.pending is None:
            print("tree exhausted: eloise wins")
            return 0 if human == "eloise" else 1
        whose = "eloise" if gs.pending is not None else "abelard"
        moves = legal_moves(gs, whose)
        if not moves:
            if whose == "abelard":
                print("no challenger move available: eloise wins")
                return 0 if human == "eloise" else 1
            print("no answer available: abelard wins")
            return 1 if human == "eloise" else 0
        if whose == human:
            print(f"[{whose}] legal moves:")
            for i, mv in enumerate(moves):
                print(f"  {i}: {mv}")
            try:
                line = input("move> ").strip()
            except EOFError:
                raise HdplError("standard input ended before the game did") from None
            try:
                gs = game_step(gs, moves[int(line)])
            except (ValueError, IndexError):
                print("enter a move number")
                continue
        else:
            mv = best_eloise(gs) if whose == "eloise" else best_abelard(gs, moves)
            print(f"[{whose}] plays {mv}")
            gs = game_step(gs, mv)
        print(f"position: left={gs.left.current} right={gs.right.current}")


# ---------------------------------------------------------------------------
# Differential fuzz suites


def _dump_counterexample(payload: dict, seed: int, case: int) -> str:
    path = f"hdpl-counterexample-{seed}-{case}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    return path


def _agreeing_start(rng: random.Random, sig: Signature) -> tuple[PointedModel, PointedModel]:
    """A random model pair and start states that agree on the basic sentences,
    redrawing the pair up to 20 times; random starts if none agrees."""
    for _ in range(20):
        m, n = random_model_pair(rng, sig, max_states=3)
        agreeing = [(w, v) for w in m.states for v in n.states if m.profiles[w] == n.profiles[v]]
        if agreeing:
            w, v = rng.choice(agreeing)
            return PointedModel(m, w), PointedModel(n, v)
    return PointedModel(m, rng.choice(m.states)), PointedModel(n, rng.choice(n.states))


def _cmd_fuzz(args) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for case in range(args.cases):
        sig = small_signature(rng)
        frag = rng.choice(FRAGMENTS)
        if args.suite in ("fh", "ct"):
            # a pair that disagrees at the start is lost before any round: fh
            # replays losing lines, and ct compares ranks above 0
            left, right = _agreeing_start(rng, sig)
        else:
            m, n = random_model_pair(rng, sig, max_states=3)
            left = PointedModel(m, rng.choice(m.states))
            right = PointedModel(n, rng.choice(n.states))
        payload = {
            "suite": args.suite,
            "case": case,
            "fragment": frag.describe(),
            "left": model_to_dict(left.model),
            "left_state": left.current,
            "right": model_to_dict(right.model),
            "right_state": right.current,
        }
        try:
            if args.suite == "omega":
                res = omega_solve(frag, left, right)
                if res.eloise_wins:  # the closure of the safe frontier must be a bisimulation family too
                    fam = extract_bisim_witness(frag, left, right, 2)
                    ok = seq_survives(frag, left, right, 4) and validate_bisim_family(fam, frag, m, n).ok
                else:
                    ok = not seq_survives(frag, left, right, res.loss_rank())
            elif args.suite == "bf":
                related = bf_related(frag, left, right)
                res = omega_solve(frag, left, right)
                ok = (not related) or res.eloise_wins
                if ok and back_and_forth_hypotheses(frag):
                    ok = related == res.eloise_wins
            elif args.suite == "hm":
                qf = FragmentConfig(frag.ops - {"exists"}, frag.action_ctors)
                report = hennessy_milner_check(left, right, qf)
                ok = report.proxy_matches_omega and (
                    report.bf_matches_omega or report.divergence_expected
                )
                payload["fragment"] = qf.describe()
            elif args.suite == "fh":
                tr = random_tree(rng, sig, frag, default_actions(frag), theta_cap=256)
                payload["tree"] = print_tree(tr)
                ok = parse_tree(payload["tree"], sig, frag) is tr  # the text parses back to the tree
                if ok:
                    theta = enumerate_game_sentences(tr, 256)
                    sat = [g for g in theta if satisfies(left, lower_game_sentence(g))]
                    ok = len(sat) == 1 and sat[0] == char_formula(tr, left)
                if ok:
                    # solver vs characteristic equality holds on trees where
                    # every node watches the property (see corpus.observing_tree)
                    watched = observing_tree(tr)
                    solved = ef_solve(watched, left, right)
                    ok = (solved.winner == "eloise") == (
                        char_formula(watched, left) == char_formula(watched, right)
                    )
                    if ok and solved.winner == "abelard":
                        # the losing line replays, through game_step, to a loss
                        end = replay_trace(watched, left, right, solved.trace)
                        ok = end.lost or (end.pending is not None and not legal_moves(end, "eloise"))
            else:  # ct: loss_rank is the first lost complete-tree height; a win loses none up to 4
                rank = omega_solve(frag, left, right).loss_rank()
                heights = range(5 if rank is None else rank + 1)
                trees = (complete_tree(sig, frag, h, tuple(map(Rel, sig.relations))) for h in heights)
                ok = [ef_solve(tr, left, right).winner == "abelard" for tr in trees] == [h == rank for h in heights]
        except HdplError as exc:
            payload["error"] = str(exc)
            ok = False
        if not ok:
            failures += 1
            path = _dump_counterexample(payload, args.seed, case)
            print(f"counterexample (case {case}) dumped to {path}")
    print(f"{args.suite}: {args.cases - failures}/{args.cases} cases passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Bundled example scenarios


def _cmd_paper(args) -> int:
    name = args.example
    checks: list[tuple[str, bool]] = []
    if name == "loop":
        left, right = fixtures.loop_pair(4)
        tr = parse_tree("(down (dia l (dia l leaf)))", left.model.sig)
        res = ef_solve(tr, left, right)
        checks.append(("challenger wins the named-loop game", res.winner == "abelard"))
        checks.append(("with a 3-move trace", res.trace is not None and len(res.trace) == 3))
        checks.append(
            ("characteristic formulas differ", char_formula(tr, left) != char_formula(tr, right))
        )
    elif name == "pos":
        left, right = fixtures.fork_pair()
        frag = FragmentConfig(frozenset({"diamond", "store"}), frozenset())
        checks.append(("survivor wins the countable game", omega_solve(frag, left, right).eloise_wins))
        checks.append(("no back-and-forth relation", not bf_related(frag, left, right)))
    elif name == "quant":
        left, right = fixtures.isolated_state_pair()
        frag = FragmentConfig(frozenset({"diamond", "store", "exists"}), frozenset())
        checks.append(("survivor wins the countable game", omega_solve(frag, left, right).eloise_wins))
        checks.append(("no back-and-forth relation", not bf_related(frag, left, right)))
    else:  # finite-orders
        phi = parse_sentence(fixtures.finite_orders_formula(), fixtures.SIG_NOM)
        for n in range(2, 7):
            checks.append((f"chain of {n} satisfies the axioms", satisfies(fixtures.nominal_chain(n), phi)))
        checks.append(("2-cycle falsifies the axioms", not satisfies(fixtures.nominal_two_cycle(), phi)))
        checks.append(
            ("looped model falsifies the axioms", not satisfies(fixtures.nominal_loop_model(), phi))
        )
    ok = all(v for _, v in checks)
    data = {"command": "paper", "example": name, "checks": {k: v for k, v in checks}, "ok": ok}
    lines = [f"{'PASS' if v else 'FAIL'}  {k}" for k, v in checks]
    _emit(args, data, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdpl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("check", _cmd_check, help="evaluate a formula on a pointed model")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True, help="formula text, or @file")
    p.add_argument("--fragment")

    p = add("game", _cmd_game, help="solve a finite game on a gameboard tree")
    p.add_argument("--tree", required=True, help="tree file or inline text")
    p.add_argument("--left", required=True, help="model.json:state")
    p.add_argument("--right", required=True)
    p.add_argument("--fragment")
    p.add_argument("--trace", action="store_true")

    p = add("charform", _cmd_charform, help="characteristic game sentence of a pointed model")
    p.add_argument("--tree", required=True)
    p.add_argument("--model", required=True, help="model.json:state")
    p.add_argument("--fragment")
    p.add_argument("--lower", action="store_true", help="print the lowered sentence")

    p = add("normalform", _cmd_normalform, help="game-sentence normal form of a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--sig", required=True, help="signature JSON file")
    p.add_argument("--fragment")
    p.add_argument("--cap", type=_nonnegative_int, default=512)

    p = add("tree", _cmd_tree, help="validate a tree or generate a complete one")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--validate", action="store_true")
    group.add_argument("--complete", action="store_true")
    p.add_argument("--tree", help="tree file or inline text (with --validate)")
    p.add_argument("--height", type=int, default=1)
    p.add_argument("--actions", help="comma list of actions, e.g. 'l,l*'")
    p.add_argument("--sig", required=True)
    p.add_argument("--fragment")

    p = add("omega", _cmd_omega, help="solve the countable game")
    p.add_argument("--fragment")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("bf", _cmd_bf, help="maximal back-and-forth family / relatedness")
    p.add_argument("--fragment")
    p.add_argument("--modelL", required=True)
    p.add_argument("--modelR", required=True)
    p.add_argument("--pair", nargs=2, metavar=("W", "V"))

    p = add("hm", _cmd_hm, help="image-finite agreement report")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--fragment")

    p = add("rootediso", _cmd_rootediso, help="rooted isomorphism vs countable game")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--fragment")

    p = add("iso", _cmd_iso, help="isomorphism search")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("play", _cmd_play, help="interactive game")
    p.add_argument("--tree", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--fragment")
    p.add_argument("--as", dest="play_as", choices=("abelard", "eloise"), required=True)

    p = add("fuzz", _cmd_fuzz, help="differential property suites")
    p.add_argument("--suite", choices=("omega", "bf", "hm", "fh", "ct"), required=True)
    p.add_argument("--cases", type=_nonnegative_int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("paper", _cmd_paper, help="replay a bundled example scenario")
    p.add_argument("--example", choices=("loop", "pos", "quant", "finite-orders"), required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (HdplError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of hdpl itself: still one line, never a traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
