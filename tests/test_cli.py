import json
import os
import shlex
import subprocess
import sys

import pytest

from motsign.cli import main

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SUBCOMMANDS = (
    ["commute"],
    ["cocycle", "check"],
    ["cocycle", "class"],
    ["cocycle", "ratio"],
    ["classes"],
    ["eval"],
    ["transport"],
    ["realize"],
    ["sensitivity"],
    ["scan"],
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_commute_quoted_example(capsys):
    code, out, _ = run_cli(capsys, "commute", "--convention", "u=1", "--deg-a", "0,-1", "--deg-b", "3,2")
    assert code == 0
    assert out.strip() == "-1"


def test_commute_epsilon_and_mode(capsys):
    code, out, _ = run_cli(capsys, "commute", "--convention", "u=eps", "--deg-a", "0,-1", "--deg-b", "3,2")
    assert (code, out.strip()) == (0, "-eps")
    code, out, _ = run_cli(
        capsys, "commute", "--convention", "u=-1", "--mode", "-1", "--deg-a", "1,0", "--deg-b", "0,-1"
    )
    assert (code, out.strip()) == (0, "1")


def test_commute_json(capsys):
    code, out, _ = run_cli(capsys, "commute", "--convention", "u=1", "--deg-a", "0,-1", "--deg-b", "3,2", "--json")
    doc = json.loads(out)
    assert doc["unit"] == "-1"
    assert doc["deg_a"] == [0, -1]
    assert doc["mode"] == {"eps": "generic", "modulus": 0}


def test_classes_quoted_example(capsys):
    code, out, _ = run_cli(capsys, "classes", "--units", "minus-one")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(capsys, "classes", "--units", "full")
    assert out.strip() == "4"


def test_realize_quoted_example(capsys):
    code, out, _ = run_cli(capsys, "realize", "--model", "betti", "--convention", "u=1")
    assert code == 0
    assert out.strip() == "NOT_RING_HOM witness a=(0,1) b=(1,0)"


def test_realize_table(capsys):
    code, out, _ = run_cli(capsys, "realize", "--model", "geometric-fixed")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("reference") and lines[0].rstrip().endswith("RING_HOM")
    assert "NOT_RING_HOM" in lines[1]  # minus-one
    assert "NOT_RING_HOM" not in lines[2]  # epsilon


def test_realize_json(capsys):
    code, out, _ = run_cli(capsys, "realize", "--model", "betti", "--json")
    doc = json.loads(out)
    assert doc["command"] == "realize"
    flags = {row["convention"]: row["ring_hom"] for row in doc["rows"]}
    assert flags == {"reference": False, "minus-one": True, "epsilon": True, "minus-epsilon": False}
    code2, out2, _ = run_cli(capsys, "realize", "--model", "betti", "--json")
    assert out2 == out  # deterministic


def test_eval_catalog(capsys):
    code, out, _ = run_cli(capsys, "eval", "--convention", "epsilon", "(1-eps)*eta*eta")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run_cli(capsys, "eval", "--pres", "catalog-tau", "--convention", "u=1", "tau*nu")
    assert (code, out.strip()) == (0, "-nu*tau")


def test_eval_accepts_rendered_powers(capsys):
    code, out, _ = run_cli(capsys, "eval", "--pres", "catalog-tau", "--convention", "epsilon", "nu*eta_top*eta_top")
    assert (code, out.strip()) == (0, "nu*eta_top^2")
    code, out, _ = run_cli(capsys, "eval", "--pres", "catalog-tau", "--convention", "epsilon", "nu*eta_top^2")
    assert (code, out.strip()) == (0, "nu*eta_top^2")


def test_file_does_not_shadow_preset(tmp_path, monkeypatch, capsys):
    (tmp_path / "epsilon").write_text(json.dumps({"name": "file", "u": "1"}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "commute", "--convention", "epsilon", "--deg-a", "0,-1", "--deg-b", "3,2")
    assert (code, out.strip()) == (0, "-eps")
    # a path-like token still loads the file
    code, out, _ = run_cli(capsys, "commute", "--convention", "./epsilon", "--deg-a", "0,-1", "--deg-b", "3,2")
    assert (code, out.strip()) == (0, "-1")


def test_eval_json_degree(capsys):
    code, out, _ = run_cli(capsys, "eval", "--pres", "catalog-tau", "--convention", "u=eps", "tau*nu", "--json")
    doc = json.loads(out)
    assert doc["normal_form"] == "-eps*nu*tau"
    assert doc["degree"] == [3, 1]


def test_transport(capsys):
    code, out, _ = run_cli(capsys, "transport", "--pres", "catalog-tau", "--from", "u=1", "--to", "u=eps", "tau*nu")
    assert code == 0
    assert out.startswith("DISAGREE")
    assert "discrepancy=eps" in out
    code, out, _ = run_cli(capsys, "transport", "--from", "u=1", "--to", "u=eps", "rho*nu")
    assert out.startswith("AGREE")


def test_cocycle_check_and_class(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "check", "--u", "eps")
    assert (code, out.strip()) == (0, "COCYCLE")
    code, out, _ = run_cli(capsys, "cocycle", "class", "--u", "eps")
    assert (code, out.strip()) == (0, "NOT_COBOUNDARY")
    code, out, _ = run_cli(capsys, "cocycle", "class", "--u", "1")
    assert out.startswith("COBOUNDARY witness")


def test_cocycle_ratio(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "ratio", "--from", "reference", "--to", "epsilon")
    assert code == 0
    assert "m21=eps" in out and "NOT_COBOUNDARY" in out
    code, out, _ = run_cli(capsys, "cocycle", "ratio", "--from", "epsilon", "--to", "epsilon", "--json")
    doc = json.loads(out)
    assert doc["is_coboundary"] is True


def test_cocycle_file_input(tmp_path, capsys):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"m11": "1", "m12": "-1", "m21": "-1", "m22": "1"}))
    code, out, _ = run_cli(capsys, "cocycle", "class", "--file", str(path))
    assert code == 0
    assert out.startswith("COBOUNDARY")


def test_convention_file_input(tmp_path, capsys):
    path = tmp_path / "conv.json"
    path.write_text(json.dumps({"name": "mine", "u": "eps", "mode": {"eps": "generic", "modulus": 0}}))
    code, out, _ = run_cli(capsys, "commute", "--convention", str(path), "--deg-a", "0,-1", "--deg-b", "3,2")
    assert (code, out.strip()) == (0, "-eps")


def test_convention_file_mode_and_flags(tmp_path, capsys):
    # the file's mode stands unless --mode or --modulus is given; then the
    # flags' whole mode replaces it, an absent flag read as generic or 0
    path = tmp_path / "conv.json"
    path.write_text(json.dumps({"name": "mine", "u": "eps", "mode": {"eps": "-1", "modulus": 0}}))
    for flags, unit in (([], "1"), (["--mode", "generic"], "-eps"), (["--mode", "+1"], "-1"), (["--modulus", "2"], "eps")):
        code, out, _ = run_cli(capsys, "commute", "--convention", str(path), *flags, "--deg-a", "0,-1", "--deg-b", "3,2")
        assert (code, out) == (0, unit + "\n"), flags


def test_generic_flags_replace_a_convention_file_mode(tmp_path, capsys):
    # a given --mode generic or --modulus 0 is the generic mode, not an absent flag
    path = tmp_path / "conv.json"
    path.write_text(json.dumps({"name": "mine", "u": "eps", "mode": {"eps": "+1", "modulus": 3}}))
    for flags in (["--modulus", "0"], ["--mode", "generic", "--modulus", "0"]):
        code, out, _ = run_cli(capsys, "commute", "--convention", str(path), *flags, "--deg-a", "0,-1", "--deg-b", "3,2")
        assert (code, out) == (0, "-eps\n"), flags
    # both sides of a transport take the flags' mode, so they can be compared
    code, out, err = run_cli(capsys, "transport", "--pres", "catalog-tau", "--from", str(path), "--to", "epsilon", "tau*nu")
    assert code == 2 and "different coefficient modes" in err
    code, out, _ = run_cli(capsys, "transport", "--pres", "catalog-tau", "--from", str(path), "--to", "epsilon",
                           "--mode", "generic", "tau*nu")
    assert (code, out) == (0, "AGREE -eps*nu*tau\n")


def test_presentation_file_input(tmp_path, capsys):
    doc = {
        "generators": [{"name": "x", "degree": [1, 1]}, {"name": "y", "degree": [3, 2]}],
        "relations": ["(1-eps)*x"],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "eval", "--pres", str(path), "--convention", "u=eps", "(1-eps)*x")
    assert (code, out.strip()) == (0, "0")


def test_sensitivity(capsys):
    code, out, _ = run_cli(capsys, "sensitivity")
    assert code == 0
    assert len(out.strip().splitlines()) == 21
    assert "unrescued" not in out
    code, out, _ = run_cli(capsys, "sensitivity", "--with-tau")
    assert "unrescued" in out
    code, out, _ = run_cli(capsys, "sensitivity", "--with-tau", "--json")
    doc = json.loads(out)
    assert any(row["rescued"] is False for row in doc["pairs"])


def test_scan_sample_and_violations(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "scan", "--table", "sample")
    assert code == 0
    assert "no violations" in out

    bad = tmp_path / "bad.csv"
    bad.write_text("x,3,1,1,synthetic\n")
    code, out, _ = run_cli(capsys, "scan", "--table", str(bad))
    assert code == 3
    assert "VIOLATION name=x stem=3 weight=1" in out

    asjson = tmp_path / "table.json"
    asjson.write_text('[{"name": "x", "stem": 3, "weight": 1, "eps_nonzero": true, "source": "s"}]')
    code, out, _ = run_cli(capsys, "scan", "--table", str(asjson))
    assert code == 3


def test_scan_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "scan", "--table", "no/such/file.csv")
    assert code == 2
    assert "error:" in err


def test_malformed_table_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("onlytwo,columns\n")
    code, _, err = run_cli(capsys, "scan", "--table", str(path))
    assert code == 2
    assert "line 1" in err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["commute", "--deg-a", "0,0"])  # missing --deg-b
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["commute", "--deg-a", "0,0", "--deg-b", "1,1", "--frobnicate"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1


def test_bad_inputs_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "commute", "--convention", "u=7", "--deg-a", "0,0", "--deg-b", "1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "commute", "--convention", "u=1", "--deg-a", "zero", "--deg-b", "1,1")
    assert code == 2
    # not read as 10, nor an Arabic-Indic digit as 3
    for deg in ("1_0,2", "\u0663,1"):
        code, out, err = run_cli(capsys, "commute", "--convention", "u=1", "--deg-a", deg, "--deg-b", "1,1")
        assert (code, out) == (2, "") and "not a bidegree" in err
    code, out, err = run_cli(capsys, "eval", "\u0663*eta")
    assert (code, out, err) == (2, "", "error: unexpected character '\u0663' (column 1)\n")
    code, _, err = run_cli(capsys, "eval", "--pres", "catalog", "eta +")
    assert code == 2
    code, _, err = run_cli(capsys, "classes", "--units", "su2")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "(" * 3000 + "eta" + ")" * 3000)
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "eta*" + "-" * 3000 + "eta")
    assert code == 2
    # [0, 0] holds only the even class; the library still takes any grid
    code, out, err = run_cli(capsys, "realize", "--model", "betti", "--grid", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--grid must be at least 1" in err
    code, out, err = run_cli(capsys, "cocycle", "check", "--u", "eps", "--grid", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--grid must be at least 1" in err
    # evaluates, but its coefficient is past the integer-string digit limit
    code, out, err = run_cli(capsys, "eval", "--pres", "catalog", "99999^1000*eta")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot render" in err and "Traceback" not in err
    assert f"{sys.get_int_max_str_digits()}-digit" in err
    # malformed JSON documents are input errors, never a traceback or a misread
    gen = {"name": "x", "degree": [1, 0]}
    documents = (
        (("commute", "--deg-a", "0,1", "--deg-b", "1,0", "--convention"), [
            [{"u": "eps"}],
            {"u": "eps", "mode": ["generic"]},
            {"u": "eps", "mode": {"modulus": None}},
            {"u": "eps", "name": [1]},
            {"u": "eps", "name": None},
        ]),
        (("cocycle", "class", "--file"), [
            ["1", "1", "eps", "eps"],
            {"m11": 1, "m12": "1", "m21": "eps", "m22": "eps"},
        ]),
        (("eval", "x*x", "--pres"), [
            {"generators": [{"name": 5, "degree": [1, 0]}]},
            {"generators": [gen], "relations": [5]},
            {"generators": [gen], "relations": "x*x"},
            {"generators": [gen], "relations": "2"},
            {"generators": [{"name": "x", "degree": [1.5, 0]}]},
            {"generators": [{"name": "x", "degree": [True, 0]}]},
        ]),
        (("scan", "--table"), [
            [{"name": "a", "stem": 1, "weight": 1, "eps_nonzero": "0", "source": "s"}],
            [{"name": "a", "stem": 1, "weight": 1.7, "eps_nonzero": 1, "source": "s"}],
        ]),
    )
    for prefix, docs in documents:
        for doc in docs:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, *prefix, str(path))
            assert (code, out) == (2, ""), doc
            assert err.startswith("error:") and "Traceback" not in err, doc


def test_hostile_input_files_exit_2(tmp_path, capsys):
    # past the JSON decoder's recursion limit, and a CSV field past the csv module's size limit
    deep, long = tmp_path / "deep.json", tmp_path / "long.csv"
    deep.write_text("[" * 200_000)
    long.write_text("x" * 200_000 + ",1,2,0,s\n")
    for argv in (
        ("eval", "--pres", str(deep), "eta"),
        ("commute", "--convention", str(deep), "--deg-a", "0,1", "--deg-b", "1,0"),
        ("cocycle", "check", "--file", str(deep)),
        ("scan", "--table", str(deep)),
        ("scan", "--table", str(long)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert err.endswith("(line 1)\n")


def _readme_examples():
    """(argv, expected stdout) for each `$ motsign ...` line of the
    README; the output is every line up to the next prompt or the end of
    the code block."""
    examples = []
    current = None
    with open(README, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("```"):
                current = None
            elif line.startswith("$ motsign "):
                current = (shlex.split(line)[2:], [])
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    return [(argv, "".join(out + "\n" for out in lines)) for argv, lines in examples]


def test_readme_examples_and_help(capsys):
    examples = _readme_examples()
    assert len(examples) >= 15
    for argv, expected in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, ""), argv
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as info:
            main([*sub, "--help"])
        assert info.value.code == 0, sub
        assert capsys.readouterr().out.startswith(f"usage: motsign {' '.join(sub)} ")


def test_values_beginning_with_a_dash(capsys):
    # attached with "=", or after "--" for the expression
    code, out, _ = run_cli(capsys, "commute", "--deg-a=-1,-1", "--deg-b", "1,1")
    assert (code, out) == (0, "eps\n")
    code, out, _ = run_cli(capsys, "cocycle", "check", "--u=-eps")
    assert (code, out) == (0, "COCYCLE\n")
    code, out, _ = run_cli(capsys, "commute", "--convention=-eps", "--deg-a", "0,-1", "--deg-b", "3,2")
    assert (code, out) == (0, "eps\n")
    code, out, _ = run_cli(capsys, "eval", "--", "-eta")
    assert (code, out) == (0, "-eta\n")


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "motsign", "classes", "--units", "minus-one"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


# Runs main on argv in a fresh interpreter and prints, as JSON, the motsign
# submodules loaded by `import motsign` alone, main's exit code, and the
# submodules loaded once main has returned.
_MODULE_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("motsign."))
import motsign
bare = loaded()
import motsign.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = motsign.cli.main(sys.argv[1:])
print(json.dumps([bare, code, loaded()]))
"""
# the modules only some commands need: the parser itself loads realize and
# what realize imports, never these
_ON_DEMAND = {"motsign.algebra", "motsign.catalog", "motsign.scan"}
_ALGEBRA = {"motsign.algebra", "motsign.catalog"}


@pytest.mark.parametrize("argv, on_demand", [
    pytest.param(["commute", "--convention", "epsilon", "--deg-a", "0,-1", "--deg-b", "3,2"], set(), id="commute"),
    pytest.param(["cocycle", "check", "--u", "eps"], set(), id="cocycle-check"),
    pytest.param(["cocycle", "class", "--u", "eps"], set(), id="cocycle-class"),
    pytest.param(["cocycle", "ratio", "--from", "reference", "--to", "epsilon"], set(), id="cocycle-ratio"),
    pytest.param(["classes", "--units", "full"], set(), id="classes"),
    pytest.param(["realize", "--model", "betti"], set(), id="realize"),
    pytest.param(["scan", "--table", "sample"], {"motsign.scan"}, id="scan"),
    pytest.param(["eval", "--pres", "catalog-tau", "tau*nu"], _ALGEBRA, id="eval"),
    pytest.param(["transport", "--pres", "catalog-tau", "--from", "reference", "--to", "epsilon", "tau*nu"],
                 _ALGEBRA, id="transport"),
    pytest.param(["sensitivity"], _ALGEBRA, id="sensitivity"),
])
def test_a_command_loads_only_the_modules_it_runs(argv, on_demand):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    bare, code, loaded = json.loads(proc.stdout)
    assert bare == []
    assert code == 0
    assert _ON_DEMAND & set(loaded) == on_demand
