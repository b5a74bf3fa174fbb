"""The benchmark's client: executes one request from its serialized inputs,
checks a result after the timed loop, and records per-layer spans.

A request goes through the same library calls as the matching `hdpl`
subcommand, from the JSON model dicts and sentence or tree text onwards, so
model loading and parsing count towards each verdict; only argparse and
printing are left out.
"""

from __future__ import annotations

import importlib.util
import os
import time

from hdpl.checker import satisfies
from hdpl.gameboard import parse_tree
from hdpl.games import (
    char_formula,
    ef_solve,
    enumerate_game_sentences,
    gs_text,
    legal_moves,
    lower_game_sentence,
    normal_form,
    predicted_theta_size,
    replay_trace,
)
from hdpl.kripke import PointedModel, model_from_dict
from hdpl.omega import (
    action_pair_closure,
    back_and_forth_hypotheses,
    extract_bisim_witness,
    max_back_and_forth,
    omega_solve,
    validate_bisim_family,
)
from hdpl.seqgame import seq_survives
from hdpl.syntax import FragmentConfig, HdplError, Signature, parse_sentence, print_sentence

# the `hdpl normalform` default cap on enumerated members
NF_CAP = 512
# the enumeration cap of `hdpl fuzz --suite fh`
FH_CAP = 256
# depth the seqgame oracle must survive on a survivor win (as `hdpl fuzz`)
SEQ_DEPTH = 4
# bisimulation witnesses are extracted and re-validated up to this many states
WITNESS_MAX_STATES = 4
WITNESS_LEVELS = 2


def _load_oracle():
    """The naive evaluator of the test suite, an independent oracle for
    `satisfies`."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "tests", "oracle_eval.py")
    spec = importlib.util.spec_from_file_location("oracle_eval", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tracer:
    """Summed call time, call counts and work counters per layer name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def call(self, name: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
            self.counts[name] = self.counts.get(name, 0) + 1

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def size(self, name: str, measure, value):
        """Add `measure(value)` to a work counter; skipped when tracing is off."""
        self.count(name, measure(value))


class NullTracer:
    """Tracing off: calls go straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, n):
        pass

    @staticmethod
    def size(name, measure, value):
        pass


def sentence_nodes(s) -> int:
    """Node count of a sentence term (shared subterms counted per use)."""
    total, stack = 0, [s]
    while stack:
        t = stack.pop()
        total += 1
        if hasattr(t, "items"):
            stack.extend(t.items)
        elif hasattr(t, "body"):
            stack.append(t.body)
    return total


def tree_nodes(tr) -> int:
    total, stack = 0, [tr]
    while stack:
        t = stack.pop()
        total += 1
        stack.extend(child for _, child in t.children)
    return total


def _pointed(tr, model: dict, state: str) -> PointedModel:
    return PointedModel(tr.call("kripke.model_from_dict", model_from_dict, model), state)


# ---------------------------------------------------------------------------
# Requests


def execute(req: dict, tr=NullTracer) -> dict:
    """Run one request and return its verdict data. Raises HdplError on a
    failed operation."""
    return _EXEC[req["kind"]](req, tr, FragmentConfig.parse(req["fragment"]))


def _check(req, tr, frag):
    pm = _pointed(tr, req["model"], req["state"])
    s = tr.call("syntax.parse_sentence", parse_sentence, req["formula"], pm.model.sig, frag)
    return {"verdict": tr.call("checker.satisfies", satisfies, pm, s)}


def _normalform(req, tr, frag):
    sig = Signature.from_dict(req["sig"])
    s = tr.call("syntax.parse_sentence", parse_sentence, req["formula"], sig, frag)
    nf = tr.call("games.normal_form", normal_form, s, sig, frag)
    theta = predicted_theta_size(nf.tree, NF_CAP)
    members = None
    if theta <= NF_CAP:
        members = [gs_text(g) for g in tr.call("games.enumerate", nf.enumerate_members, NF_CAP)]
        tr.count("games.theta_size", theta)
    pm = _pointed(tr, req["model"], req["state"])
    holds = nf.holds_on(pm)
    return {"holds": holds, "theta": theta, "members": None if members is None else len(members)}


def _charform(req, tr, frag):
    pm = _pointed(tr, req["model"], req["state"])
    tree = tr.call("gameboard.parse_tree", parse_tree, req["tree"], pm.model.sig, frag)
    tr.size("gameboard.tree_nodes", tree_nodes, tree)
    g = tr.call("games.char_formula", char_formula, tree, pm)
    lowered = tr.call("games.lower", lower_game_sentence, g)
    tr.size("syntax.lowered_nodes", sentence_nodes, lowered)
    text = tr.call("syntax.print_sentence", print_sentence, lowered)
    return {"game_sentence_chars": len(gs_text(g)), "lowered": text}


def _fh(req, tr, frag):
    pm = _pointed(tr, req["model"], req["state"])
    tree = tr.call("gameboard.parse_tree", parse_tree, req["tree"], pm.model.sig, frag)
    tr.size("gameboard.tree_nodes", tree_nodes, tree)
    theta = tr.call("games.enumerate", enumerate_game_sentences, tree, FH_CAP)
    tr.count("games.theta_size", len(theta))
    sat = []
    for i, g in enumerate(theta):
        lowered = tr.call("games.lower", lower_game_sentence, g)
        tr.size("syntax.lowered_nodes", sentence_nodes, lowered)
        if tr.call("checker.satisfies", satisfies, pm, lowered):
            sat.append(i)
    return {"satisfied": sat, "theta": len(theta)}


def _game(req, tr, frag):
    left = _pointed(tr, req["left"], req["left_state"])
    right = _pointed(tr, req["right"], req["right_state"])
    tree = tr.call("gameboard.parse_tree", parse_tree, req["tree"], left.model.sig, frag)
    tr.size("gameboard.tree_nodes", tree_nodes, tree)
    res = tr.call("games.ef_solve", ef_solve, tree, left, right)
    steps = len(res.trace) if res.trace else 0
    tr.count("games.ef_abelard_wins", res.winner == "abelard")
    tr.count("games.trace_steps", steps)
    return {"winner": res.winner, "trace": res.trace}


def _omega(req, tr, frag):
    left = _pointed(tr, req["left"], req["left_state"])
    right = _pointed(tr, req["right"], req["right_state"])
    res = tr.call("omega.solve", omega_solve, frag, left, right)
    rank = tr.call("omega.loss_rank", res.loss_rank) if res.winner == "abelard" else None
    tr.count("omega.solve_runs", res.runs)
    tr.count("omega.dead_positions", len(res.dead))
    tr.count("omega.safe_positions", len(res.safe or ()))
    return {"winner": res.winner, "loss_rank": rank}


def _bf(req, tr, frag):
    m = tr.call("kripke.model_from_dict", model_from_dict, req["left"])
    n = tr.call("kripke.model_from_dict", model_from_dict, req["right"])
    system = tr.call("omega.bf", max_back_and_forth, frag, m, n)
    tr.count("omega.bf_family_size", len(system))
    return {"related": system.relates(req["left_state"], req["right_state"]), "family_size": len(system)}


_EXEC = {
    "check": _check,
    "normalform": _normalform,
    "charform": _charform,
    "fh": _fh,
    "game": _game,
    "omega": _omega,
    "bf": _bf,
}


def closure_probe(req: dict, tr: Tracer):
    """Time the action-pair closure of an omega pair on its own; the omega
    solve builds the same closure, so its time is inside `omega.solve` too."""
    frag = FragmentConfig.parse(req["fragment"])
    if req["kind"] != "omega" or "diamond" not in frag.ops:
        return
    m, n = model_from_dict(req["left"]), model_from_dict(req["right"])
    try:
        pairs = tr.call("omega.closure", action_pair_closure, m, n, frag.action_ctors)
    except HdplError:
        tr.count("omega.closure_overflows", 1)
        return
    tr.count("omega.closure_entries", len(pairs))


# ---------------------------------------------------------------------------
# Verdict checks, run after the timed loop


class Checker:
    """Re-verifies one request's result against an independent route.
    `check` returns None when the result holds, else the reason."""

    def __init__(self, tr=NullTracer):
        self.tr = tr
        self.oracle = _load_oracle()

    def check(self, req: dict, out: dict) -> str | None:
        return getattr(self, "_" + req["kind"])(req, out, FragmentConfig.parse(req["fragment"]))

    def _naive(self, req, text, frag):
        m = model_from_dict(req["model"])
        s = parse_sentence(text, m.sig, frag)
        return self.oracle.naive_satisfies(PointedModel(m, req["state"]), s)

    def _check(self, req, out, frag):
        expected = self._naive(req, req["formula"], frag)
        if out["verdict"] != expected:
            return f"satisfies gave {out['verdict']}, naive evaluator {expected}"
        return None

    def _normalform(self, req, out, frag):
        expected = self._naive(req, req["formula"], frag)
        if out["holds"] != expected:
            return f"normal-form membership gave {out['holds']}, naive evaluator {expected}"
        if out["members"] is not None:
            sig = Signature.from_dict(req["sig"])
            nf = normal_form(parse_sentence(req["formula"], sig, frag), sig, frag)
            members = nf.enumerate_members(NF_CAP)
            pm = PointedModel(model_from_dict(req["model"]), req["state"])
            listed = char_formula(nf.tree, pm) in members
            if len(members) != out["members"] or listed != out["holds"]:
                return f"{len(members)} members, characteristic formula listed: {listed}"
        return None

    def _charform(self, req, out, frag):
        m = model_from_dict(req["model"])
        lowered = parse_sentence(out["lowered"], m.sig)
        if not satisfies(PointedModel(m, req["state"]), lowered):
            return "the lowered characteristic formula does not hold"
        return None

    def _fh(self, req, out, frag):
        pm = PointedModel(model_from_dict(req["model"]), req["state"])
        tree = parse_tree(req["tree"], pm.model.sig, frag)
        if len(out["satisfied"]) != 1:
            return f"{len(out['satisfied'])} game sentences satisfied"
        theta = enumerate_game_sentences(tree, FH_CAP)
        if theta[out["satisfied"][0]] != char_formula(tree, pm):
            return "the satisfied game sentence is not the characteristic formula"
        return None

    def _game(self, req, out, frag):
        left = PointedModel(model_from_dict(req["left"]), req["left_state"])
        right = PointedModel(model_from_dict(req["right"]), req["right_state"])
        tree = parse_tree(req["tree"], left.model.sig, frag)
        equal = char_formula(tree, left) == char_formula(tree, right)
        if (out["winner"] == "eloise") != equal:
            return f"winner {out['winner']} but characteristic formulas equal: {equal}"
        if out["winner"] == "abelard":
            end = replay_trace(tree, left, right, out["trace"])
            # the line ends in a property violation, or with the answer impossible
            if not (end.lost or (end.pending and not legal_moves(end, "eloise"))):
                return "the losing trace does not replay to a loss"
        return None

    def _omega(self, req, out, frag):
        left = PointedModel(model_from_dict(req["left"]), req["left_state"])
        right = PointedModel(model_from_dict(req["right"]), req["right_state"])
        depth = SEQ_DEPTH if out["winner"] == "eloise" else out["loss_rank"]
        survives = self.tr.call("seqgame.survives", seq_survives, frag, left, right, depth)
        if survives != (out["winner"] == "eloise"):
            return f"winner {out['winner']} but seqgame survives depth {depth}: {survives}"
        if out["winner"] == "eloise" and max(req["states"]) <= WITNESS_MAX_STATES:
            fam = self.tr.call("omega.witness", extract_bisim_witness, frag, left, right, WITNESS_LEVELS)
            report = validate_bisim_family(fam, frag, left.model, right.model)
            if not report.ok:
                return f"bisimulation witness rejected: {report}"
        return None

    def _bf(self, req, out, frag):
        left = PointedModel(model_from_dict(req["left"]), req["left_state"])
        right = PointedModel(model_from_dict(req["right"]), req["right_state"])
        wins = omega_solve(frag, left, right).eloise_wins
        if out["related"] and not wins:
            return "back-and-forth related but the countable game is lost"
        if back_and_forth_hypotheses(frag) and out["related"] != wins:
            return f"related {out['related']} but countable game won {wins} under the hypotheses"
        return None
