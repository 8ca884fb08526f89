"""CLI behavior: golden bytes, exit codes, input handling."""

import ast
import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trihodge import cli
from trihodge.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, EXIT_PARSE, main
from trihodge.diagram import SYSTEM_NAMES, builtin, random_diagram

from helpers import diagram_from_form

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
REP_FILE = str(GOLDEN / "rep_cp2.json")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("validate_cp2.txt", ["validate", "--builtin", "CP2"]),
    ("validate_s4.txt", ["validate", "--builtin", "S4"]),
    ("homology_s4.txt", ["homology", "--builtin", "S4"]),
    ("homology_cp2.txt", ["homology", "--builtin", "CP2"]),
    ("homology_cp2bar.txt", ["homology", "--builtin", "CP2bar"]),
    ("homology_s1xs3.txt", ["homology", "--builtin", "S1xS3"]),
    ("homology_s2xs2.txt", ["homology", "--builtin", "S2xS2"]),
    ("homology_s2xs2_candidate.txt", ["homology", "--builtin", "S2xS2_candidate"]),
    ("homology_cp2_cp2bar.txt", ["homology", "--builtin", "CP2#CP2bar"]),
    ("homology_qs4_z3.txt", ["homology", "--builtin", "QS4_Z3"]),
    ("diamond_cp2.txt", ["diamond", "--builtin", "CP2"]),
    ("diamond_s1xs3.txt", ["diamond", "--builtin", "S1xS3"]),
    ("form_cp2.txt", ["form", "--builtin", "CP2"]),
    ("form_cp2_cp2bar.txt", ["form", "--builtin", "CP2#CP2bar"]),
    ("form_s2xs2.txt", ["form", "--builtin", "S2xS2"]),
    ("spin_s1xs3.txt", ["spin", "--builtin", "S1xS3"]),
    ("spin_s2xs2.txt", ["spin", "--builtin", "S2xS2"]),
    ("spinc_cp2.txt", ["spinc", "--builtin", "CP2"]),
    ("spinc_cp2_act.txt", ["spinc", "--builtin", "CP2", "--act", REP_FILE]),
    ("homology_cp2_json.txt", ["homology", "--builtin", "CP2", "--json"]),
    ("homology_random_g2_s5.txt", ["homology", "--genus", "2", "--seed", "5"]),
    # the JSON frame of every other subcommand
    ("validate_cp2_json.txt", ["validate", "--builtin", "CP2", "--json"]),
    ("diamond_s1xs3_json.txt", ["diamond", "--builtin", "S1xS3", "--json"]),
    ("form_cp2_cp2bar_json.txt", ["form", "--builtin", "CP2#CP2bar", "--json"]),
    ("spin_s2xs2_json.txt", ["spin", "--builtin", "S2xS2", "--json"]),
    ("spinc_cp2_act_json.txt", ["spinc", "--builtin", "CP2", "--act", REP_FILE, "--json"]),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(golden_name, argv):
    code, out, _ = run_cli(argv)
    assert code == EXIT_OK
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")
    code2, out2, _ = run_cli(argv)
    assert code2 == code and out2 == out


def test_homology_goldens_read_no_dual_complex(monkeypatch):
    from trihodge import complexes

    def unread(d):
        raise AssertionError("the three-way H2 check read the dual complex")

    monkeypatch.setattr(complexes, "dual_middle_homology", unread)
    for golden_name, argv in GOLDEN_CASES:
        if argv[0] == "homology":
            code, out, _ = run_cli(argv)
            assert code == EXIT_OK, argv
            assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_three_way_check_compares_the_complex_h1_torsion_with_the_curves(monkeypatch):
    from trihodge import complexes
    from trihodge.complexes import HomologyGroup

    read = complexes.homology_groups

    def wrong_h1_torsion(d):
        groups = list(read(d))
        groups[1] = HomologyGroup(groups[1].rank, (5,))
        return tuple(groups)

    monkeypatch.setattr(complexes, "homology_groups", wrong_h1_torsion)
    code, out, _ = run_cli(["homology", "--builtin", "CP2"])
    assert code == EXIT_INVALID
    assert "H_1: Z/5" in out and "three-way H2 check: fail" in out


# Runs main(argv) in a fresh interpreter (argv empty: import only) and
# prints its exit code and the modules loaded after interpreter start. The
# interpreter runs with -S, so no site hook has imported anything first,
# and the probe itself imports nothing the CLI might import.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import io
from contextlib import redirect_stdout
from trihodge.cli import main
argv = sys.argv[1:]
with redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(repr([code, sorted(set(sys.modules) - before)]))
"""


def loaded_modules(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of main(argv) in a fresh interpreter, and the modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)

NUMPY_FREE_CASES = [
    [],
    ["validate", "--builtin", "CP2"],
    ["homology", "--builtin", "QS4_Z3"],
    ["diamond", "--builtin", "S1xS3"],
    ["form", "--genus", "3", "--seed", "1"],
    ["spin", "--builtin", "S2xS2"],
    ["spinc", "--builtin", "CP2", "--act", REP_FILE],
]


# The package modules each subcommand reads, beyond the ones every call loads.
ALWAYS_LOADED = {
    "trihodge",
    "trihodge.cli",
    "trihodge.diagram",
    "trihodge.lattice",
}
READS = {
    "import": set(),
    "validate": set(),
    "homology": {"trihodge.complexes"},
    "diamond": {"trihodge.complexes"},
    "form": {"trihodge.complexes", "trihodge.pairings"},
    "spin": {"trihodge.spin"},
    "spinc": {"trihodge.complexes", "trihodge.pairings", "trihodge.spinc"},
}


@pytest.mark.parametrize("argv", NUMPY_FREE_CASES, ids=lambda a: a[0] if a else "import")
def test_cli_never_loads_numpy(argv):
    code, loaded = loaded_modules(argv)
    assert code == EXIT_OK
    assert "numpy" not in loaded
    # dataclasses pulls in inspect, ast, dis and tokenize; fractions decimal
    assert not {"dataclasses", "fractions"} & set(loaded)
    # start-up costs a site hook can hide: the package needs none of them
    assert not {"pathlib", "typing", "shutil"} & set(loaded)
    # a well-formed argv is read without argparse, which loads gettext and
    # locale; only a random diagram needs random
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    assert ("random" in loaded) == ("--genus" in argv)
    package = {m for m in loaded if m.split(".")[0] == "trihodge"}
    assert package == ALWAYS_LOADED | READS[argv[0] if argv else "import"]


def test_text_output_loads_no_json():
    # json is imported only to render --json output or to read a JSON file
    argv = ["homology", "--builtin", "CP2"]
    code, loaded = loaded_modules(argv)
    assert code == EXIT_OK and "json" not in loaded
    assert "json" in loaded_modules([*argv, "--json"])[1]


def test_every_golden_argv_is_read_without_argparse():
    parser = cli.build_parser()
    for _, argv in GOLDEN_CASES:
        read = cli._read_argv(argv)
        assert read is not None, argv
        assert vars(read) == vars(parser.parse_args(argv)), argv


OPTIONS = ("--builtin", "--genus", "--seed", "--act", "--json")
INT_TEXTS = ("0", "3", "100", " 7", "+2", "1_0", "007", "\u0663")
JUNK = ("CP2", "S2xS2#S1xS3", "diagram.json", "", "x y", "1e3", "a=b", "\u2014json")
ODD_TOKENS = (
    "-", "--", "-h", "--help", "-1", "-20", "--gen", "--b", "--se", "--js", "--ac",
    "--builtin=CP2", "--genus=3", "--json=1", "--no-such-flag", "-x", "frobnicate",
)


@st.composite
def well_formed_argvs(draw) -> list[str]:
    """A subcommand, then some of its options and a path, each at most once
    and in any order, with values that do not start with "-"."""
    command = draw(st.sampled_from(tuple(cli._HANDLERS)))
    ints = st.integers(0, 10**30).map(str) | st.sampled_from(INT_TEXTS)
    texts = st.sampled_from(JUNK + INT_TEXTS)
    parts = []
    for option in (*OPTIONS, "path"):
        if (option == "--act" and command != "spinc") or not draw(st.booleans()):
            continue
        if option == "--json":
            parts.append([option])
        elif option == "path":
            parts.append([draw(texts)])
        else:
            parts.append([option, draw(ints if option in ("--genus", "--seed") else texts)])
    return [command, *(token for part in draw(st.permutations(parts)) for token in part)]


TOKENS = st.sampled_from(ODD_TOKENS) | st.sampled_from(
    tuple(cli._HANDLERS) + OPTIONS + INT_TEXTS + JUNK
)


@st.composite
def any_argvs(draw) -> list[str]:
    """Subcommands, full, abbreviated and "=" options, ints, negative ints,
    "-", "--", "-h" and junk, in any order."""
    head = draw(st.sampled_from(tuple(cli._HANDLERS)) | TOKENS)
    return [head, *draw(st.lists(TOKENS, max_size=7))]


@st.composite
def near_miss_argvs(draw) -> list[str]:
    """A well-formed argv with one token after the subcommand inserted or replaced."""
    argv = draw(well_formed_argvs())
    at = draw(st.integers(1, len(argv)))
    argv[at : at + draw(st.integers(0, 1))] = [draw(TOKENS)]
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    case=st.tuples(well_formed_argvs(), st.just(True))
    | st.tuples(near_miss_argvs() | any_argvs(), st.just(False))
)
def test_direct_reader_agrees_with_argparse(case):
    """The reader takes every well-formed argv, and argparse parses each argv
    the reader takes to the same attributes. The reader leaves the rest to
    argparse."""
    argv, well_formed = case
    read = cli._read_argv(argv)
    assert read is not None or not well_formed, argv
    if read is not None:
        assert vars(read) == vars(cli.build_parser().parse_args(argv)), argv


PIPE_SUM = "#".join(["S1xS3"] * 12)  # 4096 listed structures, past any pipe buffer


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_141_without_traceback(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "trihodge.cli", "spin", "--builtin", PIPE_SUM, *flags],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


class TestExitCodes:
    def test_valid_diagram_file(self, tmp_path):
        path = tmp_path / "cp2.json"
        path.write_text(
            json.dumps(
                {"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]}
            )
        )
        code, out, _ = run_cli(["validate", str(path)])
        assert code == EXIT_OK
        assert "verdict: valid" in out

    def test_invalid_diagram_file(self, tmp_path):
        path = tmp_path / "twisted.json"
        path.write_text(
            json.dumps(
                {"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[2, 1]]}
            )
        )
        code, out, _ = run_cli(["validate", str(path)])
        assert code == EXIT_INVALID
        assert "check beta+gamma torsion-free: FAIL" in out
        assert "verdict: invalid" in out

    def test_short_system_named_with_declared_genus(self, tmp_path):
        path = tmp_path / "short.json"
        pair = [[0, 1, 0, 0], [0, 0, 0, 1]]
        path.write_text(
            json.dumps({"genus": 2, "alpha": [[1, 0, 0, 0]], "beta": pair, "gamma": pair})
        )
        code, _, err = run_cli(["validate", str(path)])
        assert code == EXIT_PARSE
        assert "alpha system has 1 curves, expected 2" in err

    def test_narrow_system_named_with_declared_genus(self, tmp_path):
        path = tmp_path / "narrow.json"
        pair = [[0, 1, 0, 0], [0, 0, 0, 1]]
        path.write_text(
            json.dumps({"genus": 2, "alpha": [[1, 0], [0, 1]], "beta": pair, "gamma": pair})
        )
        code, _, err = run_cli(["validate", str(path)])
        assert code == EXIT_PARSE
        assert "alpha system needs curves of length 4, got 2" in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(["validate", str(path)])
        assert code == EXIT_PARSE
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize(
        "label,message",
        [(7, "must be a string"), ("fake\nH_1: Z/7", "must be printable text on one line")],
        ids=["number", "newline"],
    )
    def test_label_must_be_one_printable_line(self, tmp_path, label, message):
        path = tmp_path / "labelled.json"
        cp2 = {"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]}
        path.write_text(json.dumps({**cp2, "label": label}))
        code, out, err = run_cli(["homology", str(path)])
        assert code == EXIT_PARSE and out == ""
        assert f"field 'label' {message}" in err

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"genus": 1, "alpha": [[1, 0]]}))
        code, _, err = run_cli(["validate", str(path)])
        assert code == EXIT_PARSE
        assert "missing fields" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["validate", str(tmp_path / "absent.json")])
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_unknown_builtin(self):
        code, _, err = run_cli(["homology", "--builtin", "K3"])
        assert code == EXIT_PARSE
        assert "K3" in err

    def test_conflicting_sources(self, tmp_path):
        path = tmp_path / "cp2.json"
        path.write_text("{}")
        code, _, err = run_cli(["homology", str(path), "--builtin", "CP2"])
        assert code == EXIT_PARSE
        assert "exactly one diagram source" in err

    def test_no_source(self):
        code, _, err = run_cli(["homology"])
        assert code == EXIT_PARSE

    def test_seed_without_genus(self):
        code, _, err = run_cli(["homology", "--seed", "3"])
        assert code == EXIT_PARSE
        assert "--genus" in err

    def test_unknown_subcommand(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == EXIT_PARSE

    def test_invalid_diagram_blocks_computation(self, tmp_path):
        path = tmp_path / "twisted.json"
        path.write_text(
            json.dumps(
                {"genus": 1, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[2, 1]]}
            )
        )
        computations = [[command, str(path)] for command in cli._HANDLERS if command != "validate"]
        # the diagram is refused before the --act file is read
        computations.append(["spinc", str(path), "--act", str(tmp_path / "absent.json")])
        for argv in computations:
            for flags in ([], ["--json"]):
                code, out, err = run_cli(argv + flags)
                assert code == EXIT_INVALID, argv + flags
                assert out == ""
                assert err == "error: invalid diagram, failing checks: beta+gamma torsion-free\n"
        code, out, err = run_cli(["validate", str(path), "--json"])
        assert code == EXIT_INVALID and err == ""
        result = json.loads(out)["result"]
        assert result["valid"] is False and result["k_values"] is None

    def test_spin_listing_bound_refusal(self):
        code, _, err = run_cli(["spin", "--builtin", "#".join(["S1xS3"] * 17)])
        assert code == EXIT_INVALID
        assert "listing bound" in err
        code, out, _ = run_cli(["spin", "--genus", "9", "--seed", "0"])
        assert code == EXIT_OK
        assert "spin structures: 0" in out

    def test_genus_above_bound_refused_before_any_diagram(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "random_diagram", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "diagram_from_curves", lambda *a, **k: built.append(a))
        big = cli.MAX_GENUS + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"genus": big, "alpha": [], "beta": [], "gamma": []}))
        for argv in (["homology", "--genus", str(big), "--seed", "0"], ["homology", str(path)]):
            code, out, err = run_cli(argv)
            assert code == EXIT_PARSE
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(cli.MAX_GENUS) in err
        assert built == []

    def test_genus_at_bound_is_accepted(self, tmp_path, monkeypatch):
        built = []

        def record(*args, **kwargs):
            built.append(args[0])
            raise ValueError("stop here")

        monkeypatch.setattr(cli, "random_diagram", record)
        monkeypatch.setattr(cli, "diagram_from_curves", record)
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps({"genus": cli.MAX_GENUS, "alpha": [], "beta": [], "gamma": []})
        )
        run_cli(["homology", "--genus", str(cli.MAX_GENUS), "--seed", "0"])
        run_cli(["homology", str(path)])
        assert built == [cli.MAX_GENUS, cli.MAX_GENUS]

    def test_builtin_sum_above_bound_refused_before_any_diagram(self, monkeypatch):
        built = []

        def record(name):
            built.append(name.count("#") + 1)
            raise ValueError("stop here")

        monkeypatch.setattr(cli, "builtin", record)
        code, out, err = run_cli(["homology", "--builtin", "#".join(["S1xS3"] * 101)])
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(cli.MAX_GENUS) in err
        assert built == []
        run_cli(["homology", "--builtin", "#".join(["S1xS3"] * cli.MAX_GENUS)])
        run_cli(["homology", "--builtin", "#".join(["QS4_Z3"] * 33 + ["CP2"])])
        assert built == [cli.MAX_GENUS, 34]
        code, _, err = run_cli(["homology", "--builtin", "#".join(["QS4_Z3"] * 34)])
        assert code == EXIT_PARSE and "102" in err

    def test_internal_error_has_its_own_code(self, monkeypatch):
        def broken(d, args):
            raise RuntimeError("broken\ninvariant")

        monkeypatch.setitem(cli._HANDLERS, "homology", broken)
        code, out, err = run_cli(["homology", "--builtin", "CP2"])
        assert EXIT_INTERNAL not in (EXIT_OK, EXIT_INVALID, EXIT_PARSE)
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "error: internal: RuntimeError('broken\\ninvariant')\n"


MALFORMED_FILES = {
    "not_utf8": b'\xff\xfe{"genus": 1}',
    "integer_over_digit_limit": b'{"genus": ' + b"9" * 5000 + b"}",
    "nested_too_deep": b"[" * 200_000,
}


@pytest.mark.parametrize("content", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
@pytest.mark.parametrize("role", ["diagram", "act"])
def test_malformed_file_is_input_error(tmp_path, content, role):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    if role == "diagram":
        argv = ["homology", str(path)]
    else:
        argv = ["spinc", "--builtin", "CP2", "--act", str(path)]
    code, out, err = run_cli(argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


class TestSpinCInput:
    def test_non_cycle_rep_rejected_with_named_condition(self, tmp_path):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"a1": [1, 0], "a2": [0, 0], "a3": [0, 0]}))
        code, _, err = run_cli(["spinc", "--builtin", "S1xS3", "--act", str(rep)])
        assert code == EXIT_INVALID
        assert "a1 - a2" in err

    def test_rep_wrong_length(self, tmp_path):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"a1": [1], "a2": [0], "a3": [0]}))
        code, _, err = run_cli(["spinc", "--builtin", "CP2", "--act", str(rep)])
        assert code == EXIT_PARSE
        assert "length 2" in err

    def test_rep_missing_field(self, tmp_path):
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"a1": [0, 0], "a2": [0, 0]}))
        code, _, err = run_cli(["spinc", "--builtin", "CP2", "--act", str(rep)])
        assert code == EXIT_PARSE
        assert "a3" in err


class TestJsonMode:
    def test_values_match_text_mode(self):
        _, text_out, _ = run_cli(["form", "--builtin", "CP2"])
        code, json_out, _ = run_cli(["form", "--builtin", "CP2", "--json"])
        assert code == EXIT_OK
        doc = json.loads(json_out)
        assert doc["command"] == "form"
        assert doc["result"]["gram"] == [[1]]
        assert doc["result"]["signature"] == [1, 0]
        assert doc["result"]["parity"] == "odd"
        assert doc["result"]["unimodular"] is True
        assert "parity: odd" in text_out

    def test_validate_json_payload(self):
        code, out, _ = run_cli(["validate", "--builtin", "S1xS3", "--json"])
        doc = json.loads(out)
        assert code == EXIT_OK
        assert doc["result"]["valid"] is True
        assert doc["result"]["k_values"] == [1, 1, 1]
        assert doc["result"]["euler_characteristic"] == 0

    def test_spinc_action_payload(self):
        code, out, _ = run_cli(
            ["spinc", "--builtin", "CP2", "--act", REP_FILE, "--json"]
        )
        doc = json.loads(out)
        assert code == EXIT_OK
        action = doc["result"]["action"]
        assert action["euler"] == [[-2], [0], [0]]
        assert action["admissible"] is True
        assert action["c1_difference"] == {"b1": [2, 0], "b2": [0, 2], "b3": [-2, -2]}


def test_torsion_rendering_uses_slash_tokens():
    # exercised through a quotient with torsion to keep the format contract visible
    from trihodge.complexes import HomologyGroup

    assert str(HomologyGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


class TestBooleanEntries:
    """JSON true/false parse to Python bools, which are ints; both must be refused."""

    def test_boolean_genus_rejected(self, tmp_path):
        path = tmp_path / "bool_genus.json"
        path.write_text(
            json.dumps({"genus": True, "alpha": [[1, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]})
        )
        code, out, err = run_cli(["validate", str(path)])
        assert code == EXIT_PARSE
        assert "field 'genus' must be an integer" in err
        assert out == ""

    def test_boolean_curve_entry_rejected(self, tmp_path):
        path = tmp_path / "bool_curve.json"
        path.write_text(
            json.dumps({"genus": 1, "alpha": [[True, 0]], "beta": [[0, 1]], "gamma": [[1, 1]]})
        )
        code, _, err = run_cli(["homology", str(path)])
        assert code == EXIT_PARSE
        assert "field 'alpha'" in err

    def test_boolean_rep_entry_rejected(self, tmp_path):
        rep = tmp_path / "bool_rep.json"
        rep.write_text(json.dumps({"a1": [True, 1], "a2": [0, 0], "a3": [0, 0]}))
        code, _, err = run_cli(["spinc", "--builtin", "CP2", "--act", str(rep)])
        assert code == EXIT_PARSE
        assert "field 'a1' must be an integer vector" in err


# ---------------------------------------------------------------- fuzzing


def diagram_doc(d) -> dict:
    """A labelled diagram as a diagram JSON object."""
    curves = {name: [list(c) for c in getattr(d, name).curves] for name in SYSTEM_NAMES}
    return {"genus": d.genus, **curves, "label": d.label}


def golden_docs() -> tuple[dict, ...]:
    """The diagram behind each golden case, once each, as a diagram JSON object."""
    docs = {}
    for _, argv in GOLDEN_CASES:
        if "--builtin" in argv:
            d = builtin(argv[argv.index("--builtin") + 1])
        else:
            genus, seed = (int(argv[argv.index(flag) + 1]) for flag in ("--genus", "--seed"))
            d = random_diagram(genus, seed)
        docs[d.label] = diagram_doc(d)
    return tuple(docs.values())


GOLDEN_DOCS = golden_docs()
# diagram_from_form of forms whose determinant is not +-1: every check but
# the gamma+alpha pair's passes, whose quotient is the cokernel of the form
NON_UNIMODULAR = {
    "<2>": ((2,),),
    "<3>": ((3,),),
    "[[2,1],[1,2]]": ((2, 1), (1, 2)),
    "[[0,2],[2,0]]": ((0, 2), (2, 0)),
}
FORM_DOCS = {name: diagram_doc(diagram_from_form(q, name)) for name, q in NON_UNIMODULAR.items()}


@pytest.mark.parametrize("name", NON_UNIMODULAR)
def test_non_unimodular_form_fails_only_the_gamma_alpha_check(tmp_path, name):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(FORM_DOCS[name]))
    code, out, err = run_cli(["validate", str(path)])
    assert (code, err) == (EXIT_INVALID, "")
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert failed == ["check gamma+alpha torsion-free: FAIL"]
    assert out.endswith("verdict: invalid\n")


@pytest.mark.parametrize("name", NON_UNIMODULAR)
def test_non_unimodular_form_is_refused_by_every_other_subcommand(tmp_path, name):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(FORM_DOCS[name]))
    for command in [c for c in cli._HANDLERS if c != "validate"]:
        for flags in ([], ["--json"]):
            code, out, err = run_cli([command, str(path), *flags])
            assert (code, out) == (EXIT_INVALID, ""), command
            assert err == "error: invalid diagram, failing checks: gamma+alpha torsion-free\n"

# written in place of the marker after json.dumps, which cannot write it
OVER_DIGIT_LIMIT = "9" * 5000
HUGE_MARK = "@over-digit-limit@"
HUGE = (2**64, -(2**200), 10**4000, HUGE_MARK)
BAD_LABELS = ("tab\there", "fake\nH_1: Z/7", "nul\x00", "escape\x1b[2J", "separator\u2028")
FIELDS = ("genus", "alpha", "beta", "gamma", "label")
MUTATIONS = ("drop", "bool", "width", "huge", "label")


@st.composite
def mutated_golden_docs(draw) -> str:
    """The JSON text of a golden-case or non-unimodular-form diagram after
    one to three mutations: a dropped field, a bool entry, a curve one entry
    too wide or too narrow, a huge integer, or a label that is not one
    printable line."""
    doc = copy.deepcopy(draw(st.sampled_from(GOLDEN_DOCS + tuple(FORM_DOCS.values()))))
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        systems = [doc[name] for name in SYSTEM_NAMES if isinstance(doc.get(name), list)]
        curves = [c for cs in systems for c in cs]
        if kind == "drop":
            doc.pop(draw(st.sampled_from(FIELDS)), None)
        elif kind == "label":
            doc["label"] = draw(st.sampled_from(BAD_LABELS))
        elif kind == "width" and curves:
            curve = draw(st.sampled_from(curves))
            if draw(st.booleans()) and curve:
                curve.pop()
            else:
                curve.append(0)
        elif kind in ("bool", "huge"):
            value = draw(st.booleans() if kind == "bool" else st.sampled_from(HUGE))
            curve = draw(st.sampled_from(curves)) if curves else []
            if curve and draw(st.booleans()):
                curve[draw(st.integers(0, len(curve) - 1))] = value
            else:
                doc["genus"] = value
    return json.dumps(doc).replace(json.dumps(HUGE_MARK), OVER_DIGIT_LIMIT)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    text=mutated_golden_docs(),
    command=st.sampled_from(tuple(cli._HANDLERS)),
    as_json=st.booleans(),
)
def test_mutated_golden_diagrams_exit_cleanly(tmp_path_factory, text, command, as_json):
    """A standing guard, not a known bug: no mutation of a good file raises
    or exits 3, and every refusal is one ``error:`` line on stderr with
    nothing on stdout. Only ``validate`` reports an invalid diagram on
    stdout, as its verdict."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([command, str(path)] + ["--json"] * as_json)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_PARSE)
    if out:
        # a report: success, or validate's verdict on an invalid diagram,
        # whose label, when given, is one printable line
        assert err == "" and (code == EXIT_OK or command == "validate"), (code, err)
        assert json.loads(text).get("label", "").isprintable()
    else:
        lines = err.splitlines()
        assert code != EXIT_OK and len(lines) == 1 and lines[0].startswith("error: "), err
