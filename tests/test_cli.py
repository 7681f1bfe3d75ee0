"""Command-line front end: exit codes, JSON output, determinism, env fuel."""

import argparse
import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "abyss.cli"]
ROOT = Path(__file__).resolve().parent.parent


def run(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def payload(r):
    doc = json.loads(r.stdout)
    assert doc["schema"] == "abyss/1"
    return doc


def test_sup_thomae():
    r = run("sup", "--fn", "thomae", "--interval", "1/4", "3/4", "--k", "10")
    assert r.returncode == 0
    doc = payload(r)
    lo, hi = F(doc["interval"]["lower"]), F(doc["interval"]["upper"])
    assert lo <= F(1, 2) <= hi and hi - lo <= F(1, 1024)


def test_sup_dispatches_limit_representation():
    r = run("sup", "--fn", "pennyk-limit", "--interval", "0", "1", "--k", "6")
    assert r.returncode == 0
    doc = payload(r)
    assert F(doc["interval"]["lower"]) <= F(1, 2) <= F(doc["interval"]["upper"])


def test_refusal_exit_code_and_statement():
    r = run("sup", "--fn", "penny", "--interval", "0", "1", "--k", "8")
    assert r.returncode == 2
    doc = payload(r)
    assert doc["refusal"]["operation"] == "sup_qc"
    assert "quasi-continuous" in doc["refusal"]["needed"]
    assert doc["refusal"]["statement"]  # quantifier-collapse statement quoted


def test_fuel_exhaustion_exit_code():
    r = run("cousin", "--fn", "const:1/8", env_extra={"ABYSS_FUEL": "2"})
    assert r.returncode == 3
    assert "fuel_exhausted" in r.stdout


def test_env_fuel_vs_default():
    ok = run("cousin", "--fn", "const:1/8")
    assert ok.returncode == 0
    doc = payload(ok)
    assert doc["cover"]["count"] == len(doc["cover"]["balls"]) > 0


def test_fuel_zero_is_honoured_and_negative_fuel_refused():
    r = run("continuity", "--fn", "penny", "--x", "member:0", "--fuel", "0")
    assert r.returncode == 0
    assert payload(r)["fuel_spent"] == 0
    for cmd in (["cousin", "--fn", "const:1/8"], ["osc", "--fn", "thomae", "--x", "1/2"],
                ["rm-code", "--open", "1/4,3/4"], ["realiser"]):
        r = run(*cmd, "--fuel", "-1")
        assert r.returncode == 1 and r.stdout == ""
        assert "--fuel" in r.stderr


def test_env_fuel_follows_the_fuel_rule(monkeypatch, capsys):
    from abyss import cli
    argv = ["continuity", "--fn", "penny", "--x", "member:0"]
    monkeypatch.setenv("ABYSS_FUEL", "0")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["fuel_spent"] == 0
    for bad in ("-3", "abc", "2.5"):
        monkeypatch.setenv("ABYSS_FUEL", bad)
        assert cli.main(argv) == 1, bad
        out, err = capsys.readouterr()
        assert out == "" and "ABYSS_FUEL" in err, bad
    assert cli.main(["separator", "--c0", "points:0", "--c1", "points:1"]) == 0


def test_points_outside_the_unit_interval_are_usage_errors():
    for args in (("separator", "--c0", "points:2", "--c1", "points:1"),
                 ("limits", "--fn", "step:1/2", "--x=-1/4"),
                 ("limits", "--fn", "penny", "--x", "3/2"),
                 ("modulus", "--fn", "penny", "--kind", "regulation", "--probe", "3/2",
                  "--k", "3"),
                 ("modulus", "--fn", "thomae", "--kind", "continuity", "--probe", "3/2",
                  "--k", "3"),
                 ("variation", "--fn", "step:1/2", "--x", "3/2")):
        r = run(*args)
        assert r.returncode == 1 and r.stdout == "", args
        assert "outside [0,1]" in r.stderr, args


def test_malformed_json_documents_are_usage_errors(capsys):
    """A point object without a or b, a sub-document that is not an object,
    a missing field and a field of the wrong JSON type each name their field
    instead of a traceback or a Python message."""
    from abyss import cli
    thomae = '{"kind":"thomae"}'
    for argv, field in (
            (["eval", "--fn", "penny", "--x", '{"a":"1/2"}'], "'b'"),
            (["modulus", "--fn", "thomae", "--probe", '{"b":"1/2"}', "--k", "3"], "'a'"),
            (["separator", "--c0", 'points:{"a":"1/2"}', "--c1", "points:1"], "'b'"),
            (["eval", "--fn", '{"kind":"sum","f":1,"g":%s}' % thomae, "--x", "1/2"], "'f'"),
            (["eval", "--fn", '{"kind":"restricted","tags":"usco","f":%s}' % thomae,
              "--x", "1/2"], "'tags'"),
            (["eval", "--fn", '{"kind":"penny","set":1}', "--x", "1/2"], "'set'"),
            (["eval", "--fn", '{"kind":"penny","set":{}}', "--x", "1/2"], "'generator'"),
            (["eval", "--fn", '{"kind":"penny","set":{"generator":"finite",'
              '"points":{"a":"1/2"}}}', "--x", "1/2"], "'points'"),
            (["eval", "--fn", '{"kind":"pennyk","set":{"generator":"sqrt2-halving"}}',
              "--x", "1/2"], "'cutoff'"),
            *((["eval", "--fn", '{"kind":"%s","set":{"generator":"sqrt2-halving"},'
                '"start":%s}' % (kind, start), "--x", "1/2"], "'start'")
              for kind in ("penny", "tilde-penny") for start in ("-1", '"2"', "1.5", "true")),
            (["eval", "--fn", '{"kind":"indicator","closed_set":[1]}', "--x", "1/2"],
             "'closed_set'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":{"rep":["finite-points"]}}',
              "--x", "1/2"], "'rep'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":{"rep":"finite-points"}}',
              "--x", "1/2"], "'points'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":'
              '{"rep":"complement-of-r2-open","intervals":"0 1"}}', "--x", "1/2"], "'intervals'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":'
              '{"rep":"complement-of-r2-open","intervals":[1]}}', "--x", "1/2"], "'intervals'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":'
              '{"rep":"complement-of-r2-open","intervals":[["0",[1]]]}}', "--x", "1/2"],
             "'intervals'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":'
              '{"rep":"complement-of-r2-open","intervals":[["0"]]}}', "--x", "1/2"],
             "'intervals'"),
            (["eval", "--fn", '{"kind":["x"]}', "--x", "1/2"], "'kind'"),
            (["eval", "--fn", '{"f":"x"}', "--x", "1/2"], "'kind'"),
            (["eval", "--fn", '{"kind":"scalar-multiple","c":[2],"f":%s}' % thomae,
              "--x", "1/2"], "'c'"),
            (["eval", "--fn", '{"kind":"piecewise","cuts":"0 1","pieces":[],"values":[]}',
              "--x", "1/2"], "'cuts'"),
            (["eval", "--fn", '{"kind":"piecewise","cuts":["0","1"],"pieces":{},"values":[]}',
              "--x", "1/2"], "'pieces'"),
            (["eval", "--fn", '{"kind":"piecewise","cuts":["0","1"],"pieces":["012"],'
              '"values":["0","2"]}', "--x", "1/2"], "'pieces'"),
            (["eval", "--fn", '{"kind":"piecewise","cuts":["0","1"],"pieces":[["0"]]}',
              "--x", "1/2"], "'values'"),
            *((["eval", "--fn", '{"kind":"piecewise","cuts":["0","1"],"pieces":[%s],'
                '"values":["0","0"]}' % piece, "--x", "1/2"], "'pieces'")
              for piece in ("[]", '["0","1","2","3"]', '[{"a":"1"}]', '["0",true]')),
            (["eval", "--fn", '{"kind":"scalar-multiple","c":true,"f":%s}' % thomae,
              "--x", "1/2"], "'c'"),
            (["eval", "--fn", "thomae", "--x", '{"a":true,"b":"0"}'], "'a'"),
            (["eval", "--fn", "thomae", "--x", '{"a":"1/2","b":false}'], "'b'"),
            (["eval", "--fn", '{"kind":"indicator","closed_set":'
              '{"rep":"complement-of-r2-open","intervals":[["0",true]]}}', "--x", "1/2"],
             "'intervals'")):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and field in err, argv


def test_negative_counts_are_usage_errors():
    from abyss import Penny, jump_enum, naive_rational_sup, sqrt2_family, staircase
    from abyss.serialize import fn_json
    steps = staircase([(F(1, 3), 1), (F(2, 3), 2)])
    with pytest.raises(ValueError):
        jump_enum(steps, limit=-1)
    with pytest.raises(ValueError):
        naive_rational_sup(Penny(sqrt2_family()), 0, 1, -3)
    for args in (("jumps", "--fn", json.dumps(fn_json(steps)), "--limit", "-1"),
                 ("demo-abyss", "--depth", "-3")):
        r = run(*args)
        assert r.returncode == 1 and r.stdout == "", args
        assert "must be >= 0" in r.stderr, args


def test_realiser_refuses_a_negative_k_in_every_family():
    """Once `--family sup` printed "negative shift count" and `cliq` and
    `regulation` answered as if k were 0."""
    for family in ("sup", "cliq", "regulation"):
        r = run("realiser", "--family", family, "--k", "-1")
        assert r.returncode == 1 and r.stdout == "", family
        assert "k must be >= 0, got -1" in r.stderr, family


def test_negative_ball_exponent_is_a_usage_error():
    r = run("modulus", "--fn", "identity", "--kind", "quasi", "--probe", "1/2", "--k", "3",
            "--ball-exp", "-1")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "error: radius exponent must be >= 0\n"


def test_golden_digests_in_process(monkeypatch, capsys):
    """The benchmark's recorded CLI outputs, reproduced through cli.main in
    this process: each stdout digest and exit code, and the selftest hash."""
    from abyss import cli, serialize
    from abyss.selftest import run_selftest
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    monkeypatch.delenv("ABYSS_FUEL", raising=False)
    assert len(golden["cli"]) == 18
    for invocation, want in golden["cli"].items():
        code = cli.main(invocation.split())
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, digest) == (want["exit"], want["sha256"]), invocation
    selftest = serialize.dumps(run_selftest()).encode()
    assert hashlib.sha256(selftest).hexdigest() == golden["selftest_sha256"]


def test_usage_errors():
    assert run("no-such-command").returncode == 1
    assert run("sup", "--fn", "mystery", "--interval", "0", "1").returncode == 1
    assert run("eval", "--fn", "thomae", "--x", "5/2").returncode == 1  # domain
    r = run("eval", "--fn", '{"kind": "scalar-multiple", "c": 0.1, "f": {"kind": "thomae"}}',
            "--x", "1/2")
    assert r.returncode == 1 and r.stdout == "" and "float 0.1 refused" in r.stderr
    r = run("eval", "--fn", "penny", "--x", "member:-1")
    assert r.returncode == 1 and r.stdout == "" and r.stderr.startswith("error: ")


def test_a_named_subcommand_is_built_alone(capsys):
    """An argv that starts with a subcommand gets a parser with that one
    subparser alone, whose usage line still lists every subcommand, so an
    argument the subcommand leaves unrecognized reads as with all built."""
    from abyss import cli

    def built(argv):
        return [name for action in cli.build_parser(argv)._actions
                if isinstance(action, argparse._SubParsersAction) for name in action.choices]

    assert built(["selftest", "extra"]) == ["selftest"]
    assert built(["-h", "selftest"]) == built([]) == list(cli.SUBCOMMANDS)
    usage = cli.build_parser([]).format_usage()
    assert all(cli.build_parser([name]).format_usage() == usage for name in cli.SUBCOMMANDS)
    assert cli.main(["selftest", "extra"]) == 1
    assert capsys.readouterr() == ("", usage + "error: unrecognized arguments: extra\n")


def test_eval_and_plot_data(tmp_path):
    csv = tmp_path / "plot.csv"
    r = run("eval", "--fn", "thomae", "--x", "1/2",
            "--plot-data", str(csv), "--plot-depth", "4")
    assert r.returncode == 0
    assert payload(r)["value"] == "1/2"
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "x,f(x)" and len(lines) == 18  # 2^4 + 1 points + header


@pytest.mark.parametrize("args", [("eval", "--fn", "thomae", "--x", "1/2", "--plot-data", "CSV",
                                   "--plot-depth"),
                                  ("jordan", "--fn", "step:1/2", "--depth")],
                         ids=("plot-depth", "jordan-depth"))
def test_sample_depth_outside_0_to_20_is_refused(tmp_path, args):
    """A sample grid has 2^depth + 1 points: a depth outside 0..20 is refused
    before the grid is built, and the plot file is never opened."""
    csv = tmp_path / "plot.csv"
    args = [str(csv) if a == "CSV" else a for a in args]
    for depth in ("-1", "21", "64"):
        r = run(*args, depth)
        assert r.returncode == 1 and r.stdout == "", depth
        assert "sample depth must be in 0..20" in r.stderr, depth
        assert not csv.exists(), depth


def test_subcommands_are_documented_and_recorded():
    """The table's subcommands are those of the README's command-line examples
    and of the benchmark's recorded invocations."""
    from abyss import cli
    readme = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    readme = readme.split("\n## ", 1)[0]
    documented = {line.split()[1] for line in readme.splitlines()
                  if line.startswith("abyss ")}
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    recorded = {invocation.split()[0] for invocation in golden["cli"]}
    assert len(cli.SUBCOMMANDS) == 17
    assert set(cli.SUBCOMMANDS) == documented == recorded


def test_eval_member_point():
    r = run("eval", "--fn", "penny", "--x", "member:2")
    assert payload(r)["value"] == "1/8"


def test_continuity_and_osc():
    r = run("continuity", "--fn", "penny", "--x", "member:0")
    assert payload(r)["continuous"] == "no"
    r2 = run("osc", "--fn", "thomae", "--x", "1/3", "--k", "8")
    doc = payload(r2)
    assert F(doc["interval"]["lower"]) <= F(1, 3) <= F(doc["interval"]["upper"])


def test_demo_abyss():
    r = run("demo-abyss", "--family", "penny", "--depth", "20")
    doc = payload(r)
    assert doc["demo"]["gap"] == "1/2"
    assert doc["demo"]["baseline_values"] == ["0/1"] * len(doc["demo"]["depths"])
    assert doc["demo"]["oracle_value"] == "1/2"


def test_realiser_command():
    r = run("realiser", "--family", "regulation", "--k", "12")
    doc = payload(r)
    assert doc["realiser"]["certified_outside_prefix"] is True


def test_inline_json_fn():
    spec = json.dumps({"kind": "penny", "set": {"generator": "sqrt2-halving"}})
    r = run("inf", "--fn", spec, "--interval", "0", "1", "--k", "6")
    assert r.returncode == 0
    doc = payload(r)
    assert F(doc["interval"]["lower"]) <= 0 <= F(doc["interval"]["upper"])


def test_fn_from_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"kind": "thomae"}))
    r = run("eval", "--fn", "@%s" % path, "--x", "2/3")
    assert payload(r)["value"] == "1/3"


def test_modulus_sampling():
    r = run("modulus", "--fn", "thomae", "--kind", "continuity",
            "--probe", "member:0", "--k", "3")
    doc = payload(r)
    assert doc["modulus"]["samples"][0]["value"] == 8


def test_jumps_and_limits():
    r = run("jumps", "--fn", "cover-psi-usco", "--limit", "3")
    assert payload(r)["jumps"] == ["1/2", "1/4", "1/8"]
    r2 = run("limits", "--fn", "step:1/2", "--x", "1/2", "--k", "6")
    doc = payload(r2)
    assert F(doc["left"]["upper"]) <= F(0) + F(1, 64)
    assert F(doc["right"]["lower"]) >= F(1) - F(1, 64)


def test_rm_code_and_separator():
    r = run("rm-code", "--open", "1/4,3/4", "--fuel", "16")
    doc = payload(r)
    assert doc["rm_code"]["prefix_of_infinite"] is True
    r2 = run("separator", "--c0", "points:0", "--c1", "points:1")
    assert payload(r2)["separator"]["kind"] == "indicator"


def test_selftest_deterministic():
    r1 = run("selftest")
    r2 = run("selftest")
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical transcripts
    doc = json.loads(r1.stdout)
    assert doc["all_pass"] is True


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


def _loaded_after(code):
    """The abyss modules and `dataclasses` loaded once a fresh interpreter
    has run `code`."""
    probe = code + ("\nimport sys\nsys.stderr.write(' '.join(m for m in sys.modules "
                    "if m.startswith('abyss') or m == 'dataclasses'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


HEAVY = {"abyss.collapse", "abyss.algorithms", "abyss.category", "abyss.covers",
         "abyss.variation", "abyss.reductions", "abyss.selftest", "dataclasses"}
FAMILIES = {"abyss.piecewise", "abyss.rational_spike", "abyss.spikes", "abyss.limits",
            "abyss.composites"}
# --fn name -> the family module it parses into, for the names these tests run
FN_FAMILY = {"const": "abyss.piecewise", "step": "abyss.piecewise",
             "thomae": "abyss.rational_spike", "penny": "abyss.spikes",
             "cover-psi-usco": "abyss.spikes"}
# what every CLI process loads: the package, the front end and the kernel
START = {"abyss", "cli", "errors", "exact", "records", "serialize", "sets", "universe"}
# golden invocation -> the abyss modules its process loads beyond START
LOADED = {
    "continuity --fn penny --x member:0": {"algorithms", "collapse", "spikes"},
    "cousin --fn const:1/8": {"collapse", "covers", "piecewise"},
    "demo-abyss --family penny --depth 20": {"category", "collapse", "reductions", "spikes",
                                             "variation"},
    "eval --fn penny --x member:0": {"spikes"},
    "inf --fn penny --interval 0 1 --k 8": {"algorithms", "collapse", "spikes"},
    "jordan --fn step:1/2 --depth 3": {"collapse", "piecewise", "variation"},
    "jumps --fn cover-psi-usco --limit 4": {"collapse", "spikes", "variation"},
    "limits --fn step:1/2 --x 1/2": {"collapse", "piecewise", "variation"},
    "modulus --fn thomae --kind continuity --probe member:0 --k 3": {"algorithms", "collapse",
                                                                     "rational_spike"},
    "osc --fn thomae --x 1/2 --k 8": {"algorithms", "collapse", "rational_spike"},
    "point-of-continuity --fn penny --method usco --k 8": {"algorithms", "category", "collapse",
                                                           "spikes"},
    "point-of-continuity --fn thomae --k 8": {"algorithms", "category", "collapse",
                                              "rational_spike"},
    "realiser --family sup --k 16": {"category", "collapse", "reductions", "spikes", "variation"},
    "rm-code --open 1/4,3/4": {"collapse", "composites", "covers", "limits", "piecewise"},
    "selftest": {"algorithms", "category", "collapse", "composites", "covers", "limits",
                 "oracle", "piecewise", "rational_spike", "reductions", "selftest", "spikes",
                 "variation"},
    "separator --c0 points:0 --c1 points:1": {"collapse", "covers", "limits"},
    "sup --fn thomae --interval 1/4 3/4 --k 10": {"algorithms", "collapse", "rational_spike"},
    "variation --fn step:1/2 --x 1 --k 8": {"collapse", "piecewise", "variation"},
}
HEAVY_INVOCATIONS = ("rm-code", "realiser", "demo-abyss", "selftest")


def _main_of(argv):
    return "from abyss import cli; cli.main(%r)" % (argv,)


def _family_of(argv):
    """The family module argv's --fn parses into; `separator` builds an
    indicator."""
    if "--fn" not in argv:
        return "abyss.limits"
    return FN_FAMILY[argv[argv.index("--fn") + 1].partition(":")[0]]


def test_start_up_loads_only_what_the_subcommand_runs():
    """`import abyss` and `import abyss.cli` load none of the modules that
    only some subcommands run, nor `dataclasses` nor a function family;
    `eval` runs without the collapse rules, any algorithm or the oracle, and
    each subcommand that needs a module loads it.  Each golden invocation
    of the benchmark loads the modules `LOADED` names and no other: a light
    one loads no μ-search engine (`abyss.oracle`), only the algorithm
    section it runs, and only the family module its --fn parses, so a
    process compiles no other family."""
    assert not _loaded_after("import abyss") & (HEAVY | FAMILIES)
    assert not _loaded_after("import abyss.cli") & (HEAVY | FAMILIES)
    for argv in (["eval", "--fn", "penny", "--x", "member:0"],
                 ["eval", "--fn", "const:1/3", "--x", "1/2"]):
        loaded = _loaded_after(_main_of(argv))
        assert not loaded & (HEAVY | {"abyss.oracle"}), argv
        assert loaded & FAMILIES == {_family_of(argv)}, argv
    assert _loaded_after(_main_of(["jumps", "--fn", "step:1/2"])) & HEAVY == \
        {"abyss.collapse", "abyss.variation"}
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert sorted(golden["cli"]) == sorted(LOADED)
    light = [inv for inv in LOADED if inv.split()[0] not in HEAVY_INVOCATIONS]
    assert len(light) == 14
    for inv in light:
        assert "oracle" not in LOADED[inv], inv
        if "--fn" in inv:
            assert {"abyss." + m for m in LOADED[inv]} & FAMILIES == {_family_of(inv.split())}
    for inv, modules in LOADED.items():
        loaded = _loaded_after(_main_of(inv.split()))
        assert loaded == {m if m == "abyss" else "abyss." + m for m in START | modules}, inv


def test_no_abyss_module_imports_dataclasses():
    loaded = _loaded_after("import abyss.cli, abyss.selftest")
    assert {"abyss." + p.stem for p in (ROOT / "src" / "abyss").glob("[!_]*.py")} <= loaded
    assert "dataclasses" not in loaded


def test_jordan_rows_stream_the_bytes_of_the_whole_payload(capsys, tmp_path):
    """The streamed `jordan` output equals `dumps` of the payload built as one
    list, on stdout and in an --out file."""
    from abyss import DyadicInterval, cli, jordan_nbv, rational_grid, staircase
    from abyss.serialize import dumps, q2_json, rat_json
    jp = jordan_nbv(staircase([(F(1, 2), 1)]))
    for depth in range(11):
        rows = [{"x": rat_json(g), "g": q2_json(jp.g(g)), "h": q2_json(jp.h(g))}
                for g in rational_grid(DyadicInterval(0, 1), depth)]
        want = dumps({"jordan": {"samples": rows}})
        argv = ["jordan", "--fn", "step:1/2", "--depth", str(depth)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want, depth
        out = tmp_path / "jordan.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == want, depth


def _jordan_peak_kib(depth, out):
    """Peak resident memory of a fresh `jordan` process at a sample depth.
    A small interpreter starts it and reads its peak: a process keeps its
    parent's peak across exec, and the test process is large."""
    waiter = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
              "_, status, usage = os.wait4(child.pid, 0); print(status, usage.ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", waiter] + CLI +
                          ["jordan", "--fn", "step:1/2", "--depth", str(depth), "--out", str(out)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    status, peak = map(int, done.stdout.split())
    assert status == 0
    return peak


def test_jordan_memory_stays_flat_in_the_depth(tmp_path):
    """Depth 14 writes 16,385 rows; the rows stream to the file, so the
    process peaks within a few MiB of depth 2 (28 MiB against 19 MiB when
    the rows and the JSON text were built whole)."""
    shallow = _jordan_peak_kib(2, tmp_path / "d2.json")
    deep = _jordan_peak_kib(14, tmp_path / "d14.json")
    assert (tmp_path / "d14.json").stat().st_size > 16385 * 30
    assert deep - shallow < 3 * 1024, (shallow, deep)


def _abyss_names_read(source: str):
    """(name, resolved object or None) for every abyss name a module's
    source reads: each name of a `from abyss... import` line, and each
    attribute chain off an imported abyss module or object, such as
    `abyss.X`, `orc.X` or `sets.CountableSet.member`."""
    tree = ast.parse(source)
    bound = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "abyss":
                    module = importlib.import_module(a.name if a.asname else "abyss")
                    bound[a.asname or "abyss"] = module
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "abyss":
            home = importlib.import_module(node.module)
            for a in node.names:
                obj = getattr(home, a.name, None)
                name = "%s.%s" % (node.module, a.name)
                if obj is None and importlib.util.find_spec(name) is not None:
                    obj = importlib.import_module(name)  # a submodule not yet loaded
                out.append((name, obj))
                bound[a.asname or a.name] = obj
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in bound:
            obj = bound[base.id]
            for attr in reversed(chain):
                obj = getattr(obj, attr, None)
            out.append((".".join([base.id] + chain[::-1]), obj))
    return out


def test_every_abyss_name_the_benchmark_reads_resolves():
    """The benchmark harness reads abyss by name; a name it reads that a
    change removes would fail only in the benchmark's set-up, so every one
    must resolve here, and a name that is gone must show."""
    gone = "from abyss import oracle as orc\ncall = orc.exists_value_anywhere\n"
    assert [name for name, obj in _abyss_names_read(gone) if obj is None] == \
        ["orc.exists_value_anywhere"]
    read = {}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name, obj in _abyss_names_read(path.read_text()):
            assert obj is not None, (path.name, name)
            read[name] = obj
    for name in ("orc.exists_value_above", "orc.exists_value_below", "abyss.build_cover_psi",
                 "abyss.thomae", "oracle.basis_at", "sets.CountableSet.member",
                 "sets.CountableSet.members_in", "ser.dumps", "abyss.errors.ClassRefusal"):
        assert name in read, name

