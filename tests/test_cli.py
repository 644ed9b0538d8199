import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from motsign.algebra import MAX_GENERATORS
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


def _generator_file(path, n):
    doc = {"generators": [{"name": f"g{i}", "degree": [i % 7 - 3, i % 5 - 2]} for i in range(n)]}
    path.write_text(json.dumps(doc))
    return str(path)


def test_presentation_files_up_to_the_generator_bound(tmp_path, capsys):
    # a file at the bound evaluates in about 0.2 s on one 2-vCPU core, far
    # inside the limit here; one generator more is an input error
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "--pres", _generator_file(tmp_path / "at.json", MAX_GENERATORS),
                             "--convention", "epsilon", "g0*g1")
    assert (code, out, err) == (0, "g0*g1\n", "")
    assert time.perf_counter() - start < 30
    code, out, err = run_cli(capsys, "eval", "--pres", _generator_file(tmp_path / "past.json", MAX_GENERATORS + 1),
                             "g0*g1")
    assert (code, out) == (2, "")
    assert err == f"error: a presentation has at most {MAX_GENERATORS} generators, got {MAX_GENERATORS + 1}\n"


# ---------- drawn argv and files: an exit code, never a traceback ----------

_TOKENS = ("x", "y", "eta", "nu", "tau", "eps", "0", "1", "2", "*", "*", "+", "-", "(", ")", "^", "^3", " ", "1000")
_UNIT_NAMES = ("1", "-1", "eps", "-eps")
_WORDS = _UNIT_NAMES + ("x", "x*x", "2*x", "(1-eps)*x", "x*y - y", "generic", "+1", "2", "custom")
_KEYS = ("name", "degree", "generators", "relations", "u", "twist", "mode", "eps", "modulus",
         "m11", "m12", "m21", "m22", "stem", "weight", "eps_nonzero", "source")
_ATOMS = ("x", "y", "eta", "nu", "tau", "eps", "1", "2", "x^3", "nu^2")
_expressions = st.recursive(  # well formed, over names of the catalogs and of the drawn files
    st.sampled_from(_ATOMS),
    lambda inner: st.builds("{}{}{}".format, inner, st.sampled_from(("*", " + ", "-", " * ")), inner)
    | inner.map("({})".format) | inner.map("-{}".format),
    max_leaves=6,
) | st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join)
_small = st.integers(-3, 3)
_json_values = st.recursive(
    st.none() | st.booleans() | _small | st.floats(allow_nan=False, width=16) | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=10,
)
_units = st.sampled_from(_UNIT_NAMES)
_modes = st.fixed_dictionaries({}, optional={"eps": st.sampled_from(("generic", "+1", "-1", "1")), "modulus": _small})
_cocycles = st.fixed_dictionaries({key: _units for key in ("m11", "m12", "m21", "m22")})
# documents of each kind the commands read, mostly well formed, and any JSON value
_documents = st.one_of(
    st.fixed_dictionaries({"generators": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(("x", "y", "z", "eps", "2x")), "degree": st.lists(_small, min_size=2, max_size=2),
    }), max_size=3)}, optional={"relations": st.lists(_expressions, max_size=2)}),
    st.fixed_dictionaries({"u": _units}, optional={"mode": _modes, "name": st.sampled_from(("mine", "u=1"))}),
    st.fixed_dictionaries({"twist": _cocycles}, optional={"mode": _modes}),
    _cocycles,
    st.lists(st.fixed_dictionaries({"name": st.sampled_from(("a", "b")), "stem": _small, "weight": _small,
                                    "eps_nonzero": st.sampled_from((0, 1, True, "1")), "source": st.just("s")}),
             max_size=3),
    _json_values,
)
_csv_fields = st.sampled_from(("a", "eta", "0", "1", "2", "-3", "1.5", "true", "", "src", '"', "name"))
_csv_text = st.lists(st.lists(_csv_fields, max_size=6).map(",".join), max_size=4).map("\n".join)
_CONVENTIONS = ("reference", "epsilon", "minus-one", "u=eps", "u=-1", "u=7", "DOC", "missing.json")
_FLAG_VALUES = {
    "--convention": _CONVENTIONS, "--from": _CONVENTIONS, "--to": _CONVENTIONS,
    "--mode": ("generic", "+1", "-1", "0"), "--modulus": ("0", "2", "4", "-3", "x"),
    "--deg-a": ("1,0", "0,-1", "(3,2)", "-2,5", "1_0,2"), "--deg-b": ("1,1", "0,-1", "2,0", " 3 , -4 "),
    "--u": _UNIT_NAMES + ("2",), "--file": ("DOC", "missing.json"), "--grid": ("0", "1", "2", "-1", "x"),
    "--units": ("trivial", "minus-one", "eps", "minus-eps", "full", "su2"),
    "--pres": ("catalog", "catalog-tau", "DOC", "DOC", "missing.json"),
    "--model": ("betti", "geometric-fixed", "etale", "nope"),
    "--table": ("sample", "TABLE", "TABLE", "DOC", "missing.json"), "--format": ("auto", "csv", "json", "xml"),
}
# subcommand: (required flags, optional flags); eval and transport also take an expression
_SUBCOMMANDS = {
    "commute": (("--deg-a", "--deg-b"), ("--convention", "--mode", "--modulus")),
    "cocycle check": (("--u",), ("--file", "--grid")),
    "cocycle class": (("--file",), ("--u",)),
    "cocycle ratio": (("--from", "--to"), ("--mode", "--modulus")),
    "classes": (("--units",), ()),
    "eval": ((), ("--convention", "--mode", "--modulus", "--pres")),
    "transport": (("--from", "--to"), ("--pres", "--mode", "--modulus")),
    "realize": (("--model",), ("--convention", "--grid")),
    "sensitivity": ((), ("--with-tau",)),
    "scan": (("--table",), ("--format",)),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, optional = _SUBCOMMANDS[command]
    argv = command.split()
    flags = [flag for flag in required if draw(st.integers(0, 9))]  # a required flag is sometimes left out
    flags += draw(st.lists(st.sampled_from(optional + ("--json",)), max_size=4))
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag not in ("--json", "--with-tau"):
            argv.append(draw(st.sampled_from(_FLAG_VALUES[flag]) if draw(st.integers(0, 7)) else _expressions))
    if command in ("eval", "transport"):
        argv += ["--", draw(_expressions)]
    return argv


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs(), doc=_documents, table=_csv_text)
def test_drawn_commands_end_in_an_exit_code(tmp_path, argv, doc, table):
    # in-process main on drawn argv: DOC names a drawn JSON file, TABLE a drawn CSV file
    files = {"DOC": tmp_path / "doc.json", "TABLE": tmp_path / "table.csv"}
    files["DOC"].write_text(json.dumps(doc))
    files["TABLE"].write_text(table)
    argv = [str(files[arg]) if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
