"""The package's public surface: the pinned export list, and scans for
top-level definitions and class members in `src/hdpl` that no product code
reaches."""

import ast
from collections import Counter
from pathlib import Path

import hdpl

ROOT = Path(__file__).resolve().parent.parent

# each export is a decision: a name joins or leaves this list on purpose
EXPORTS = [
    "Action", "And", "At", "Comp", "Dia", "Edge", "Exists", "FragmentConfig", "GameSentence",
    "GameboardTree", "KINDS", "KripkeModel", "Neg", "Nom", "PointedModel", "Prop", "Rel", "Sentence",
    "Signature", "Star", "Store", "Union", "action_pair_closure", "bf_related", "char_formula", "checker",
    "complete_tree", "conj", "disj", "ef_solve", "enumerate_game_sentences", "expand", "extend_signature",
    "extract_bisim_witness", "find_isomorphism", "game_property", "game_step", "gameboard", "games",
    "generate_random_model", "hennessy_milner_check", "interpret_action", "is_rooted", "kripke",
    "legal_moves", "load_model", "load_pointed", "lower_game_sentence", "max_back_and_forth",
    "normal_form", "omega", "omega_solve", "parse_action", "parse_sentence", "parse_tree", "print_action",
    "print_sentence", "print_tree", "rooted_iso_check", "satisfies", "seq_survives", "seqgame", "start_game",
    "syntax", "validate_bisim_family", "validate_in_fragment", "validate_tree",
]


def test_exports_are_pinned():
    assert sorted(hdpl.__all__) == EXPORTS


def unreferenced_definitions(root: Path) -> list[str]:
    """The top-level functions and classes of `root/src/hdpl/*.py` that no
    other top-level statement there refers to (`__init__.py` aside, so an
    export alone does not count) and that no `root/perfbench/*.py` imports by
    name from `hdpl`."""
    defined, used = [], set()
    for path in sorted((root / "src" / "hdpl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(stmt.name)
                names.discard(stmt.name)  # a definition's references to itself
            used |= names
    for path in sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hdpl":
                used |= {alias.name for alias in node.names}
    return [name for name in defined if name not in used]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions(ROOT) == []


def unreferenced_members(root: Path) -> list[str]:
    """The methods and properties of the classes of `root/src/hdpl/*.py`,
    dunder methods aside, whose name no attribute read in `root/src/hdpl/*.py`
    or `root/perfbench/*.py` uses outside the member's own body. The scan goes
    by name, so a member named like a member read elsewhere passes."""
    reads, members = Counter(), []
    product = sorted((root / "src" / "hdpl").glob("*.py"))
    for path in product + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        if path not in product:
            continue
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("__"):
                    own = sum(isinstance(n, ast.Attribute) and n.attr == f.name for n in ast.walk(f))
                    members.append((f"{cls.name}.{f.name}", f.name, own))
    return [member for member, name, own in members if reads[name] == own]


def test_no_unreferenced_members():
    assert unreferenced_members(ROOT) == []
