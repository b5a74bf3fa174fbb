import json

import pytest

from hdpl.cli import main
from hdpl.kripke import generate_random_model, model_to_dict
from hdpl.syntax import Signature


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestCheck:
    def test_true_verdict(self, demo_dir, capsys):
        code, out = run(
            capsys, "check", "--model", str(demo_dir / "loop.json"), "--state", "0",
            "--formula", "<l><l>p",
        )
        assert (code, out.strip()) == (0, "true")

    def test_false_verdict_exit_one(self, demo_dir, capsys):
        code, out = run(
            capsys, "check", "--model", str(demo_dir / "loop.json"), "--state", "0",
            "--formula", "p",
        )
        assert (code, out.strip()) == (1, "false")

    def test_formula_from_file(self, demo_dir, capsys):
        code, out = run(
            capsys, "check", "--model", str(demo_dir / "chain3.json"), "--state", "s0",
            "--formula", "@" + str(demo_dir / "finite_orders.txt"),
        )
        assert (code, out.strip()) == (0, "true")

    def test_fragment_violation_is_usage_error(self, demo_dir, capsys):
        code = main(
            ["check", "--model", str(demo_dir / "loop.json"), "--state", "0",
             "--formula", "exists x . p", "--fragment", "diamond"]
        )
        assert code == 2

    def test_json_schema(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "check", "--model", str(demo_dir / "loop.json"), "--state", "0",
            "--formula", "true",
        )
        assert code == 0
        assert data == {"command": "check", "verdict": True}


class TestGame:
    def test_loser_exit_code_and_trace(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "game", "--tree", "(down (dia l (dia l leaf)))",
            "--left", str(demo_dir / "loop.json") + ":0",
            "--right", str(demo_dir / "unrolled.json") + ":0", "--trace",
        )
        assert code == 1
        assert data["winner"] == "abelard"
        assert len(data["trace"]) == 3

    def test_winner_exit_zero(self, demo_dir, capsys):
        code, _ = run(
            capsys, "game", "--tree", "(dia l leaf)",
            "--left", str(demo_dir / "loop.json") + ":0",
            "--right", str(demo_dir / "loop.json") + ":0",
        )
        assert code == 0


class TestCharform:
    def test_lowered_output_parses(self, demo_dir, capsys):
        code, out = run(
            capsys, "charform", "--tree", "(dia l leaf)",
            "--model", str(demo_dir / "loop.json") + ":0", "--lower",
        )
        assert code == 0
        from hdpl import fixtures as fx
        from hdpl.syntax import parse_sentence

        parse_sentence(out.strip(), fx.SIG_P)

    def test_structured_output(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "charform", "--tree", "leaf",
            "--model", str(demo_dir / "loop.json") + ":a",
        )
        assert code == 0
        assert data["game_sentence"] == "{p}"


class TestNormalform:
    def test_member_listing(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "normalform", "--formula", "~p & <l>p",
            "--sig", str(demo_dir / "sig_p.json"),
        )
        assert code == 0
        assert data["theta_size"] == 8
        assert len(data["members"]) == 2


class TestTree:
    def test_complete_and_validate_round_trip(self, demo_dir, capsys):
        code, out = run(
            capsys, "tree", "--complete", "--height", "2", "--actions", "l,l*",
            "--sig", str(demo_dir / "sig_p.json"), "--fragment", "diamond,store,star",
        )
        assert code == 0
        code2, _ = run(
            capsys, "tree", "--validate", "--tree", out.strip(),
            "--sig", str(demo_dir / "sig_p.json"), "--fragment", "diamond,store,star",
        )
        assert code2 == 0

    def test_invalid_tree_exit_one(self, demo_dir, capsys):
        code, out = run(
            capsys, "tree", "--validate", "--tree", "(branch (idle leaf) (idle leaf))",
            "--sig", str(demo_dir / "sig_p.json"),
        )
        assert code == 1
        assert "duplicate" in out


class TestOmegaCommands:
    def test_omega_verdicts(self, demo_dir, capsys):
        left = str(demo_dir / "fork_l.json") + ":0"
        right = str(demo_dir / "fork_r.json") + ":0"
        code, _ = run(capsys, "omega", "--fragment", "diamond,store", "--left", left, "--right", right)
        assert code == 0
        code, data = run_json(
            capsys, "omega", "--fragment", "diamond,at,store,exists", "--left", left, "--right", right
        )
        assert code == 1
        assert data["winner"] == "abelard" and data["loss_rank"] == 2

    def test_omega_two_relation_constructors(self, tmp_path, capsys):
        # the action-pair closure of this pair overflows its cap; the verdict
        # needs only the base relations
        sig = Signature(relations=("l", "r"), props=("p",))
        for name, seed in (("m.json", 1), ("n.json", 101)):
            (tmp_path / name).write_text(json.dumps(model_to_dict(generate_random_model(seed, 4, 0.3, sig))))
        code, data = run_json(
            capsys, "omega", "--fragment", "diamond,union,comp,star",
            "--left", str(tmp_path / "m.json") + ":s0", "--right", str(tmp_path / "n.json") + ":s0",
        )
        assert code == 1
        assert data == {"command": "omega", "winner": "abelard", "fragment": "diamond,union,comp,star", "loss_rank": 0}

    def test_bf_pair(self, demo_dir, capsys):
        code, out = run(
            capsys, "bf", "--fragment", "diamond,store",
            "--modelL", str(demo_dir / "fork_l.json"), "--modelR", str(demo_dir / "fork_r.json"),
            "--pair", "0", "0",
        )
        assert (code, out.strip()) == (1, "unrelated")

    def test_hm_report(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "hm", "--fragment", "diamond,store",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert code == 0
        assert data["omega_equivalent"] and not data["bf_equivalent"]
        assert data["divergence_expected"]

    def test_rootediso(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "rootediso",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert code == 0
        assert data["agree"] and not data["isomorphic"]

    def test_iso_absent(self, demo_dir, capsys):
        code, out = run(
            capsys, "iso",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert (code, out.strip()) == (1, "absent")


class TestFuzz:
    @pytest.mark.parametrize("suite", ["omega", "bf", "hm", "fh"])
    def test_small_runs_pass(self, suite, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # counterexample dumps would land here
        code, out = run(capsys, "fuzz", "--suite", suite, "--cases", "15", "--seed", "3")
        assert code == 0
        assert "15/15" in out
        assert not list(tmp_path.glob("hdpl-counterexample-*"))


class TestPlay:
    def test_scripted_session_as_challenger(self, demo_dir, capsys, monkeypatch):
        answers = iter(["0", "0", "0", "0"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        code = main(
            ["play", "--tree", "(dia l leaf)",
             "--left", str(demo_dir / "loop.json") + ":0",
             "--right", str(demo_dir / "loop.json") + ":0",
             "--as", "abelard"]
        )
        out = capsys.readouterr().out
        assert "legal moves" in out
        assert code in (0, 1)

    def test_machine_challenger_wins_lost_game(self, demo_dir, capsys, monkeypatch):
        answers = iter(["0"] * 10)
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        code = main(
            ["play", "--tree", "(down (dia l (dia l leaf)))",
             "--left", str(demo_dir / "loop.json") + ":0",
             "--right", str(demo_dir / "unrolled.json") + ":0",
             "--as", "eloise"]
        )
        assert code == 1  # the human survivor cannot escape the forced loss


class TestCounterexampleDump:
    def test_dump_writes_replayable_fixture(self, tmp_path, monkeypatch):
        import json as _json

        from hdpl.cli import _dump_counterexample

        monkeypatch.chdir(tmp_path)
        path = _dump_counterexample({"suite": "omega", "left": {"states": ["s0"]}}, 9, 3)
        data = _json.loads((tmp_path / path).read_text())
        assert data["suite"] == "omega"


class TestPaperCommand:
    @pytest.mark.parametrize("example", ["loop", "pos", "quant", "finite-orders"])
    def test_examples_replay(self, example, capsys):
        code, out = run(capsys, "paper", "--example", example)
        assert code == 0
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        code, data = run_json(capsys, "paper", "--example", "pos")
        assert code == 0 and data["ok"]


class TestErrors:
    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "--model", "no-such.json", "--state", "0", "--formula", "p"]) == 2

    def test_parse_error_exit_two(self, demo_dir, capsys):
        code = main(
            ["check", "--model", str(demo_dir / "loop.json"), "--state", "0", "--formula", "p &"]
        )
        assert code == 2

    def test_unknown_state_exit_two(self, demo_dir, capsys):
        code = main(
            ["check", "--model", str(demo_dir / "loop.json"), "--state", "zz", "--formula", "p"]
        )
        assert code == 2

    @pytest.mark.parametrize("pair", [("zz", "qq"), ("0", "qq"), ("zz", "0")])
    def test_bf_unknown_pair_state_exit_two(self, demo_dir, capsys, pair):
        loop = str(demo_dir / "loop.json")
        code = main(["bf", "--fragment", "diamond", "--modelL", loop, "--modelR", loop, "--pair", *pair])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        bad = pair[0] if pair[0] == "zz" else pair[1]
        assert captured.err == f"error: state '{bad}' not in model {loop}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"states": ["0"], "relations": {"l": [["0", "0"]]', "is not valid JSON"),
            ('{"relations": {"l": []}, "props": {"p": []}}', "model has no 'states' entry"),
        ],
        ids=["malformed-json", "no-states"],
    )
    def test_bad_model_file_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["check", "--model", str(path), "--state", "0", "--formula", "p"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"props": 5}', "signature field 'props' must be a list of names"),
            ("{bad", "is not valid JSON"),
        ],
        ids=["non-list-field", "malformed-json"],
    )
    def test_bad_signature_file_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["normalform", "--formula", "p", "--sig", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_deep_nesting_exit_two(self, demo_dir, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("~" * 5000 + "p")
        code = main(
            ["check", "--model", str(demo_dir / "loop.json"), "--state", "0", "--formula", "@" + str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: input nests too deeply\n"
