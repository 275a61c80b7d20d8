"""CLI: verbs, exit codes, reproducible bytes, schema-valid JSON."""

import importlib
import json
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from simplegames.cli import run
from test_graphs import LYING_ORACLE


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr().out
        return code, out

    return invoke


def validate(payload, schema_name):
    from referencing import Registry, Resource

    base = resources.files("simplegames") / "schemas"
    resources_list = []
    for f in base.iterdir():
        if f.name.endswith(".schema.json"):
            resources_list.append((f.name, Resource.from_contents(json.loads(f.read_text()))))
    registry = Registry().with_resources(resources_list)
    schema = json.loads((base / schema_name).read_text())
    validator = jsonschema.Draft202012Validator(schema, registry=registry)
    validator.validate(payload)


class TestVerbs:
    def test_alpha_cycle8(self, capture):
        code, out = capture("alpha", "--game", "cycle:8")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "2/1"
        validate(payload, "alpha_certificate.schema.json")

    def test_min_norm(self, capture):
        code, out = capture("min-norm", "--game", "cycle:4", "--tol", "1e-6")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        validate(payload, "minnorm_certificate.schema.json")
        assert '"point": ["1/2", "1/2", "1/2", "1/2"]' in out
        assert '"gap": "0/1"' in out and '"lp_value": "1/1"' in out

    def test_tightness_exit_codes(self, capture):
        code, out = capture("tightness", "--game", "cycle:4")
        assert code == 0
        validate(json.loads(out), "tightness.schema.json")
        code, out = capture("tightness", "--game", "random-game:5:4", "--seed", "2")
        payload = json.loads(out)
        assert code == (0 if payload["tight"] else 1)

    def test_graph_decide_false_exits_1(self, capture, tmp_path):
        code, out = capture("graph-decide", "--graph", "cycle:8", "--a", "1")
        assert code == 1
        payload = json.loads(out)
        assert payload["answer"] is False and payload["alpha"] == "2/1"
        validate(payload, "decision.schema.json")

    def test_graph_decide_true_exits_0(self, capture):
        code, out = capture("graph-decide", "--graph", "cycle:8", "--a", "2")
        assert code == 0
        assert json.loads(out)["answer"] is True

    def test_gadget_pipeline(self, capture, tmp_path):
        gadget_path = tmp_path / "gstar.json"
        code, _ = capture("gadget", "--graph", "cycle:5", "--out", str(gadget_path))
        assert code == 0
        payload = json.loads(gadget_path.read_text())
        validate(payload, "graph.schema.json")
        assert payload["n"] == 10 and len(payload["edges"]) == 25
        code, out = capture("graph-alpha", str(gadget_path))
        assert code == 0
        assert json.loads(out)["alpha"] == "1/1"

    def test_csg(self, capture):
        code, out = capture("csg", "--game", "wvg:6", "--seed", "3")
        assert code == 0
        validate(json.loads(out), "csg_report.schema.json")

    def test_csg_rejects_incomplete_game(self, capture, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 6, "minimal_winning": [[1, 2], [3, 4, 5, 6]]}')
        code, _ = capture("csg", "--game", str(path))
        assert code == 2

    def test_gen_game(self, capture):
        code, out = capture("gen", "cycle:4")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 4, "minimal_winning": [[1, 2], [1, 4], [2, 3], [3, 4]]}
        validate(payload, "game.schema.json")

    def test_gen_wvg(self, capture):
        code, out = capture("gen", "wvg:6", "--seed", "3")
        assert code == 0
        validate(json.loads(out), "game.schema.json")

    def test_verify_conjecture(self, capture):
        code, out = capture("verify-conjecture", "--n", "5", "--count", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_within_bound"] is True
        validate(payload, "conjecture_report.schema.json")

    def test_verify_conjecture_seed_list(self, capture):
        code, out = capture("verify-conjecture", "--n", "4", "--seeds", "3,1,2")
        assert code == 0
        assert [e["seed"] for e in json.loads(out)["entries"]] == [1, 2, 3]


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "random-graph:8:12", "--seed", "9"),
            ("gen", "random-game:7:6", "--seed", "4"),
            ("gen", "wvg:6", "--seed", "3"),
            ("alpha", "--game", "cycle:6"),
            ("min-norm", "--game", "cycle:6"),
            ("verify-conjecture", "--n", "4", "--count", "3"),
        ],
    )
    def test_identical_bytes(self, capture, argv):
        code1, out1 = capture(*argv)
        code2, out2 = capture(*argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestErrors:
    def test_missing_file_exits_2(self, capture):
        code, _ = capture("alpha", "--game", "does-not-exist.json")
        assert code == 2

    def test_bad_spec_exits_2(self, capture):
        code, _ = capture("gen", "nonsense:4")
        assert code == 2

    def test_odd_cycle_game_exits_2(self, capture):
        code, _ = capture("alpha", "--game", "cycle:5")
        assert code == 2

    def test_budget_exits_3(self, capture, tmp_path):
        path = tmp_path / "big.json"
        coalitions = [[i, i + 1] for i in range(1, 30)]
        path.write_text(json.dumps({"n": 30, "minimal_winning": coalitions}))
        code, _ = capture("alpha", "--game", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "verb, flag, payload",
        [
            ("alpha", "--game", {"n": True, "minimal_winning": [[True]]}),
            ("alpha", "--game", {"n": 3, "minimal_winning": [[1, True], [2, 3]]}),
            ("alpha", "--game", {"n": 2, "minimal_winning": [True]}),
            ("graph-alpha", None, {"n": 3, "edges": [[1, 2.7], [2, 3]]}),
            ("graph-alpha", None, {"n": 3, "edges": [["1", "3"]]}),
            ("gadget", "--graph", {"n": True, "edges": []}),
        ],
    )
    def test_non_integer_ids_exit_2(self, capture, tmp_path, verb, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out = capture(verb, *filter(None, [flag, str(path)]))
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "verb, flag, payload",
        [
            ("alpha", "--game", {"n": 3, "minimal_winning": [[1, 2], 5]}),
            ("alpha", "--game", {"n": 3, "minimal_winning": 5}),
            ("graph-alpha", None, {"n": 3, "edges": [[1, 2, 3], [2, 3]]}),
            ("graph-alpha", None, {"n": 3, "edges": [[1]]}),
            ("graph-alpha", None, {"n": 3, "edges": [1, 2]}),
        ],
    )
    def test_malformed_arrays_exit_2(self, capture, tmp_path, verb, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code, out = capture(verb, *filter(None, [flag, str(path)]))
        assert code == 2 and out == ""

    def test_budget_flag_overrides_caps(self, capture):
        # tightening the cap below the game size trips the budget exit
        code, _ = capture("alpha", "--game", "cycle:8", "--budget", "6")
        assert code == 3
        code, _ = capture("alpha", "--game", "cycle:8", "--budget", "8")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-norm", "--game", "cycle:4"],
            ["gadget", "--graph", "cycle:4"],
            ["gen", "cycle:4"],
            ["verify-conjecture", "--n", "4", "--seeds", "1"],
        ],
    )
    def test_budget_on_a_verb_that_ignores_it_exits_2(self, capture, argv):
        code, out = capture(*argv, "--budget", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-norm", "--game", "cycle:4", "--tol", "inf"],
            ["min-norm", "--game", "cycle:4", "--tol", "1e400"],
            ["graph-decide", "--graph", "cycle:5", "--a", "1/0"],
            ["verify-conjecture", "--n", "6", "--count", "0"],
            ["verify-conjecture", "--n", "6", "--seeds", ","],
        ],
    )
    def test_non_finite_numbers_and_empty_corpora_exit_2(self, argv, capsys):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_pivot_limit_exits_3(self, capture, monkeypatch):
        monkeypatch.setattr("simplegames.lp.MAX_PIVOTS", 1)
        code, out = capture("graph-decide", "--graph", "cycle:8", "--a", "3/2")
        assert code == 3 and out == ""

    def test_unknown_verb_exits_2(self, capture):
        code, _ = capture("frobnicate")
        assert code == 2

    def test_dimacs_graph_accepted(self, capture, tmp_path):
        path = tmp_path / "c4.txt"
        path.write_text("p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n")
        code, out = capture("graph-alpha", str(path))
        assert code == 0
        assert json.loads(out)["alpha"] == "1/1"

    def test_table_format(self, capture):
        code, out = capture("alpha", "--game", "cycle:4", "--format", "table")
        assert code == 0
        assert "alpha\t1/1" in out


class TestInternalErrors:
    """An unexpected exception exits 4, never 1 ("answered false"), with one stderr line."""

    FAIL = """
from simplegames import alpha
def certify_alpha(*args):
    raise AssertionError("forced certificate failure")
alpha.certify_alpha = certify_alpha
"""
    LOSING = "CertificateError: the payoff gives some maximal losing coalition more than alpha"
    # (module and name a patch replaces, the patch's source, argv, the error it causes)
    CASES = [
        ("simplegames.alpha", "certify_alpha", FAIL, ["alpha", "--game", "cycle:4"],
         "AssertionError: forced certificate failure"),
        ("simplegames.graphs", "mwis_bipartite", LYING_ORACLE, ["graph-alpha", "cycle:6"], LOSING),
    ]

    @pytest.mark.parametrize("module, name, patch, argv, message", CASES)
    def test_exits_4(self, module, name, patch, argv, message, monkeypatch, capsys):
        # monkeypatch keeps the original and puts it back after the patch replaces it
        monkeypatch.setattr(f"{module}.{name}", getattr(importlib.import_module(module), name))
        exec(patch, {})
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (4, "", f"internal error: {message}\n")

    @pytest.mark.parametrize("module, name, patch, argv, message", CASES)
    def test_exits_4_optimized(self, module, name, patch, argv, message):
        from test_lp import run_optimized

        proc = run_optimized(
            patch
            + f"""
import sys
from simplegames.cli import run
assert False, "python -O should have stripped this assert"
sys.exit(run({argv!r}))
"""
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"internal error: {message}\n")
