import io
import json

import pytest

from hdpl.cli import main
from hdpl.kripke import generate_random_model, model_from_dict, model_to_dict
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

    @pytest.mark.parametrize("edge, expected", [("idle", 0), ("dia l", 1), ("down", 0)])
    def test_deep_chain_trees(self, demo_dir, capsys, edge, expected):
        # the solver recurses once per tree level, and 900 levels fit the
        # interpreter's default recursion limit
        code, _ = run(
            capsys, "game", "--fragment", "diamond,store", "--tree", f"({edge} " * 900 + "leaf" + ")" * 900,
            "--left", str(demo_dir / "loop.json") + ":0",
            "--right", str(demo_dir / "unrolled.json") + ":0",
        )
        assert code == expected


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

    def test_game_sentence_text_of_every_edge_kind(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "charform",
            "--tree", "(branch (idle leaf) (down (dia l leaf)) (exists leaf) (at k2 leaf) (dia l (idle leaf)))",
            "--model", str(demo_dir / "chain3.json") + ":s0",
        )
        assert code == 0
        assert data["game_sentence"] == (
            "(idle {k1,~k2} & down x0 (<l>{{~k1,~k2,~x0}}) & exists x0 {{k1,~k2,x0},{k1,~k2,~x0}}"
            " & @k2 {~k1,k2} & <l>{(idle {~k1,~k2})})"
        )


class TestNormalform:
    def test_member_listing(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "normalform", "--formula", "~p & <l>p",
            "--sig", str(demo_dir / "sig_p.json"),
        )
        assert code == 0
        assert data["theta_size"] == 8
        assert len(data["members"]) == 2

    def test_formula_starting_with_retrieve_is_text(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "normalform", "--formula", "@k1 <l>k2",
            "--sig", str(demo_dir / "sig_nom.json"),
        )
        assert code == 0
        assert data["tree"] == "(at k1 (dia l leaf))"
        assert data["theta_size"] == 16

    def test_formula_from_file(self, demo_dir, tmp_path, capsys):
        path = tmp_path / "retrieve.txt"
        path.write_text("@k1 <l>k2")
        inline = run_json(capsys, "normalform", "--formula", "@k1 <l>k2", "--sig", str(demo_dir / "sig_nom.json"))
        from_file = run_json(capsys, "normalform", "--formula", f"@{path}", "--sig", str(demo_dir / "sig_nom.json"))
        assert from_file == inline


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

    def test_complete_tree_with_repeated_actions_validates(self, demo_dir, capsys):
        sig = ("--sig", str(demo_dir / "sig_p.json"), "--fragment", "diamond")
        for actions in ("l,l", "l,(l)"):
            code, out = run(capsys, "tree", "--complete", "--height", "1", "--actions", actions, *sig)
            assert (code, out.strip()) == (0, "(branch (idle leaf) (dia l leaf))")
            code, out = run(capsys, "tree", "--validate", "--tree", out.strip(), *sig)
            assert code == 0, out

    def test_invalid_tree_exit_one(self, demo_dir, capsys):
        code, out = run(
            capsys, "tree", "--validate", "--tree", "(branch (idle leaf) (idle leaf))",
            "--sig", str(demo_dir / "sig_p.json"),
        )
        assert code == 1
        assert "duplicate" in out

    def test_validate_deep_chain_exit_zero(self, demo_dir, tmp_path, capsys):
        # the tree parser and validation loop instead of recursing
        path = tmp_path / "deep.txt"
        path.write_text("(idle " * 10000 + "leaf" + ")" * 10000)
        code, out = run(capsys, "tree", "--validate", "--tree", str(path), "--sig", str(demo_dir / "sig_p.json"))
        assert (code, out.strip()) == (0, "ok")

    def test_validate_needs_tree(self, demo_dir, capsys):
        code = main(["tree", "--validate", "--sig", str(demo_dir / "sig_p.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --validate needs --tree\n"


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

    @pytest.mark.parametrize("command", ["omega", "hm"])
    def test_empty_fragment_is_the_boolean_core(self, demo_dir, capsys, command):
        code, data = run_json(
            capsys, command, "--fragment", "",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert code == 0
        assert data["fragment"] == "(boolean core)"

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

    def test_omega_rank_of_long_chains(self, tmp_path, capsys):
        # the challenger needs 200 rounds to run the shorter chain out; ranks
        # come from an explicit stack, so the long line of play is no error
        for n in (200, 201):
            chain = {
                "states": [f"s{i}" for i in range(n)],
                "relations": {"l": [[f"s{i}", f"s{i + 1}"] for i in range(n - 1)]},
            }
            (tmp_path / f"chain{n}.json").write_text(json.dumps(chain))
        code, data = run_json(
            capsys, "omega", "--fragment", "diamond",
            "--left", str(tmp_path / "chain200.json") + ":s0", "--right", str(tmp_path / "chain201.json") + ":s0",
        )
        assert (code, data["winner"], data["loss_rank"]) == (1, "abelard", 200)

    def test_iso_long_chain(self, tmp_path, capsys):
        # the isomorphism search backtracks on an explicit stack, so a chain
        # longer than the recursion limit is no error
        n = 1100
        chain = {
            "states": [f"s{i}" for i in range(n)],
            "relations": {"l": [[f"s{i}", f"s{i + 1}"] for i in range(n - 1)]},
            "props": {"p": ["s0"]},
        }
        ref = str(tmp_path / "chain.json") + ":s0"
        (tmp_path / "chain.json").write_text(json.dumps(chain))
        code, out = run(capsys, "iso", "--left", ref, "--right", ref)
        assert (code, json.loads(out)) == (0, {f"s{i}": f"s{i}" for i in range(n)})

    def test_bf_pair(self, demo_dir, capsys):
        code, out = run(
            capsys, "bf", "--fragment", "diamond,store",
            "--modelL", str(demo_dir / "fork_l.json"), "--modelR", str(demo_dir / "fork_r.json"),
            "--pair", "0", "0",
        )
        assert (code, out.strip()) == (1, "unrelated")

    def test_bf_family_size(self, demo_dir, capsys):
        # without --pair the command reports the size of the maximal family
        argv = ("bf", "--fragment", "diamond,store",
                "--modelL", str(demo_dir / "loop.json"), "--modelR", str(demo_dir / "loop.json"))
        assert run(capsys, *argv) == (0, "maximal family size: 31\n")
        assert run_json(capsys, *argv) == (0, {"command": "bf", "family_size": 31})

    def test_hm_report(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "hm", "--fragment", "diamond,store",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert code == 0
        assert data == {
            "command": "hm",
            "fragment": "diamond,store",
            "heights": [1, 2, 3, 4, 5, 6, 7, 8],
            "char_equal_per_height": [True] * 8,
            "elementary_proxy": True,
            "omega_equivalent": True,
            "bf_equivalent": False,
            "hypotheses_met": False,
            "proxy_matches_omega": True,
            "bf_matches_omega": False,
            "divergence_expected": True,
        }

    @pytest.mark.parametrize("n", [7, 8])
    def test_hm_chains_reach_height_eight(self, n, tmp_path, capsys):
        # l-chains of n and n + 1 states, k naming the first: the countable
        # game is lost at rank n, so the height-8 finite game sees it under
        # the default fragment
        for size in (n, n + 1):
            chain = {
                "states": [f"s{i}" for i in range(size)],
                "nominals": {"k": "s0"},
                "relations": {"l": [[f"s{i}", f"s{i + 1}"] for i in range(size - 1)]},
            }
            (tmp_path / f"chain{size}.json").write_text(json.dumps(chain))
        code, data = run_json(
            capsys, "hm",
            "--left", str(tmp_path / f"chain{n}.json") + ":s0",
            "--right", str(tmp_path / f"chain{n + 1}.json") + ":s0",
        )
        assert code == 0
        assert data["fragment"] == "diamond,at,store"
        assert data["heights"] == list(range(1, 9))
        assert data["char_equal_per_height"] == [h < n for h in range(1, 9)]
        assert not data["elementary_proxy"] and not data["omega_equivalent"]

    def test_rootediso(self, demo_dir, capsys):
        code, data = run_json(
            capsys, "rootediso",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert code == 0
        assert data == {
            "command": "rootediso",
            "fragment": "diamond,at,store",
            "isomorphic": False,
            "omega_equivalent": False,
            "isomorphism": None,
            "agree": True,
        }

    def test_rootediso_self_pair(self, demo_dir, capsys):
        chain = str(demo_dir / "chain3.json") + ":s0"
        code, data = run_json(capsys, "rootediso", "--left", chain, "--right", chain)
        assert code == 0
        assert data == {
            "command": "rootediso",
            "fragment": "diamond,at,store",
            "isomorphic": True,
            "omega_equivalent": True,
            "isomorphism": [["s0", "s0"], ["s1", "s1"], ["s2", "s2"]],
            "agree": True,
        }

    def test_iso_absent(self, demo_dir, capsys):
        code, out = run(
            capsys, "iso",
            "--left", str(demo_dir / "fork_l.json") + ":0",
            "--right", str(demo_dir / "fork_r.json") + ":0",
        )
        assert (code, out.strip()) == (1, "absent")


class TestFuzz:
    @pytest.mark.parametrize("suite", ["omega", "bf", "hm", "fh", "ct"])
    def test_small_runs_pass(self, suite, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # counterexample dumps would land here
        code, out = run(capsys, "fuzz", "--suite", suite, "--cases", "15", "--seed", "3")
        assert code == 0
        assert "15/15" in out
        assert not list(tmp_path.glob("hdpl-counterexample-*"))

    def test_failing_case_dumps_replayable_counterexample(self, capsys, tmp_path, monkeypatch):
        # a sequential oracle that flips its answer fails every omega case
        from hdpl import cli

        real = cli.seq_survives
        monkeypatch.setattr(cli, "seq_survives", lambda *args: not real(*args))
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "fuzz", "--suite", "omega", "--cases", "2", "--seed", "5")
        assert code == 1
        assert "omega: 0/2 cases passed" in out
        for case in range(2):
            data = json.loads((tmp_path / f"hdpl-counterexample-5-{case}.json").read_text())
            assert (data["suite"], data["case"]) == ("omega", case)
            for side in ("left", "right"):
                assert data[f"{side}_state"] in model_from_dict(data[side]).states


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

    def test_stdin_ends_before_the_game_exit_two(self, demo_dir, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            ["play", "--tree", "(dia l leaf)",
             "--left", str(demo_dir / "loop.json") + ":0",
             "--right", str(demo_dir / "loop.json") + ":0",
             "--as", "abelard"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


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
            ('{"states": ["0", "00"], "props": {"p": "00"}}', "prop 'p' must be an array"),
            ('{"states": ["0", "1"], "relations": {"l": ["01"]}}', "each pair of relation 'l' must be an array"),
            ('{"states": "01"}', "states must be an array"),
            ('{"states": ["0", 1]}', "state names must be strings"),
            ('{"states": ["0"], "props": {"p": ["1"]}}', "prop 'p' holds at a state that is not in the model"),
            ('{"states": ["0"], "props": {"p": [], "true": []}}', "no formula can refer to: ['true']"),
        ],
        ids=["malformed-json", "no-states", "holders-string", "pair-string", "states-string", "state-number",
             "unknown-holder", "keyword-prop"],
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
            ('{"props": ["p", "a b"]}', "no formula can refer to: ['a b']"),
        ],
        ids=["non-list-field", "malformed-json", "non-identifier-prop"],
    )
    def test_bad_signature_file_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["normalform", "--formula", "p", "--sig", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["check", "--model", "{bad}", "--state", "0", "--formula", "p"], id="check-model"),
            pytest.param(["check", "--model", "{loop}", "--state", "0", "--formula", "@{bad}"], id="check-formula"),
            pytest.param(["game", "--tree", "{bad}", "--left", "{loop}:0", "--right", "{loop}:0"], id="game-tree"),
            pytest.param(["game", "--tree", "leaf", "--left", "{bad}:0", "--right", "{loop}:0"], id="game-left"),
            pytest.param(["charform", "--tree", "{bad}", "--model", "{loop}:0"], id="charform-tree"),
            pytest.param(["charform", "--tree", "leaf", "--model", "{bad}:0"], id="charform-model"),
            pytest.param(["normalform", "--formula", "@{bad}", "--sig", "{sig}"], id="normalform-formula"),
            pytest.param(["normalform", "--formula", "p", "--sig", "{bad}"], id="normalform-sig"),
            pytest.param(["tree", "--validate", "--tree", "{bad}", "--sig", "{sig}"], id="tree-tree"),
            pytest.param(["tree", "--complete", "--sig", "{bad}"], id="tree-sig"),
            pytest.param(["omega", "--left", "{bad}:0", "--right", "{loop}:0"], id="omega"),
            pytest.param(["bf", "--modelL", "{loop}", "--modelR", "{bad}"], id="bf"),
            pytest.param(["hm", "--left", "{loop}:0", "--right", "{bad}:0"], id="hm"),
            pytest.param(["rootediso", "--left", "{bad}:0", "--right", "{loop}:0"], id="rootediso"),
            pytest.param(["iso", "--left", "{loop}:0", "--right", "{bad}:0"], id="iso"),
            pytest.param(
                ["play", "--tree", "{bad}", "--left", "{loop}:0", "--right", "{loop}:0", "--as", "eloise"],
                id="play-tree",
            ),
            pytest.param(
                ["play", "--tree", "leaf", "--left", "{bad}:0", "--right", "{loop}:0", "--as", "eloise"],
                id="play-left",
            ),
        ],
    )
    def test_unreadable_input_exit_two(self, demo_dir, tmp_path, capsys, argv, kind):
        # a directory, or a file that is not text, in place of an input file
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfe\x00\x81")
        names = {"bad": str(bad), "loop": str(demo_dir / "loop.json"), "sig": str(demo_dir / "sig_p.json")}
        code = main([arg.format(**names) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_tree_text_named_like_a_directory(self, demo_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "leaf").mkdir()
        code, data = run_json(capsys, "charform", "--tree", "leaf", "--model", str(demo_dir / "loop.json") + ":a")
        assert code == 0 and data["game_sentence"] == "{p}"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["fuzz", "--suite", "omega", "--cases", "-3"], id="fuzz-cases"),
            pytest.param(["normalform", "--formula", "p", "--sig", "{sig}", "--cap", "-1"], id="normalform-cap"),
        ],
    )
    def test_negative_count_exit_two(self, demo_dir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(sig=demo_dir / "sig_p.json") for arg in argv])
        assert exc.value.code == 2
        assert "must not be negative: -" in capsys.readouterr().err

    def test_deep_nesting_exit_two(self, demo_dir, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text("~" * 5000 + "p")
        code = main(
            ["check", "--model", str(demo_dir / "loop.json"), "--state", "0", "--formula", "@" + str(path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: input nests too deeply\n"

    @pytest.mark.parametrize(
        "exc, line",
        [
            pytest.param(ValueError("boom"), "error: internal error: ValueError: boom\n", id="value-error"),
            pytest.param(KeyError("s9"), "error: internal error: KeyError: 's9'\n", id="key-error"),
        ],
    )
    def test_internal_error_exit_two(self, demo_dir, capsys, monkeypatch, exc, line):
        # a fault inside a subcommand is one error line and exit 2, never a
        # traceback and never exit 1, which would read as a negative verdict
        def broken(args):
            raise exc

        monkeypatch.setattr("hdpl.cli._cmd_check", broken)
        code = main(["check", "--model", str(demo_dir / "loop.json"), "--state", "0", "--formula", "p"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", line)
