import hashlib
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest

from kummer.cli import InputError, JobSpec, Report, list_catalog, main, parse_argv, run
from kummer.strata import stratify
from kummer.toruslat import DEFAULT_ENUMERATION_BUDGET

ROOT = Path(__file__).resolve().parent.parent


def _run_cli(args, flags=(), timeout=120, **env_vars):
    """``python FLAGS -m kummer.cli ARGS`` in a fresh process, with
    ``env_vars`` added to its environment."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env_vars)
    return subprocess.run([sys.executable, *flags, "-m", "kummer.cli", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _assert_input_error_under_optimize(args):
    """``python -O -m kummer.cli ARGS`` exits 2 with one ``error:`` line:
    the input check does not rest on ``assert``."""
    out = _run_cli(args, flags=["-O"])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr

# SHA-256 of the stdout of `kummer ARGS --format json`, run from the
# repository root: every integral catalog entry that yields a report at its
# default d, plain and --equivariant, two --oracle runs, the analytic entry
# and both demo ledgers.  A refactor keeps these bytes; a digest changes
# only with a deliberate change of the report.
GOLDEN_REPORTS = {
    "--catalog d4_sl3":
        "0d0c7d2e4eda907a91fd89c26188a0bc395ac5f462021bdd83bc368fb038b789",
    "--catalog d4_sl3 --equivariant":
        "389276d862ceeab328e33bb72c7035eb7fcae11ada4d2f4d3bcaf37085e4a224",
    "--catalog d8_b2":
        "2affe04d5eea04ae3474dc8bc49bd0747c688f40015fbb5f37e11aa8c2774791",
    "--catalog d8_b2 --equivariant":
        "e6923300f1fccee02f3be1d4af37145f852e5003ffd082818fca7a90af6da433",
    "--catalog octahedral_s4_sl3":
        "a65deddd0f7366f7b9c02d62145440f4cf193e8c58a9cd6cce1485ee1dd95328",
    "--catalog octahedral_s4_sl3 --equivariant":
        "2090845a1a261a15245ea3c79170da3a06bca62778fba0884dc2ed76dd461b7d",
    "--catalog octahedral_s4_sl3 --oracle 6":
        "0207d9269653f4959cde262675ae7ee87ba64df77dad9cb6a20a471c14b3690a",
    "--catalog s3_standard":
        "edd144558501acba20441d81e315b75a5928ce538e8088aacc3afb1486b358de",
    "--catalog s3_standard --equivariant":
        "62324f71e412c12f5983439b10ec539d8e90b5849c6f28e5ac17650ed3d809da",
    "--catalog s3_standard_d2":
        "4c211abb646b171c0e1a9377c2bd632ab4ed7dc1438b6850131741aeaf59b854",
    "--catalog s3_standard_d2 --equivariant":
        "686555ea9eb5d00afa4996b8d08839fe324302a56763409ced23cccefe07a664",
    "--catalog s4_standard":
        "cee6a53db46abfd4bab076bade9f8a16e7a6920cee0f349e13834695d0c06ae5",
    "--catalog s4_standard --equivariant":
        "8c6fbe65e50f0a45f90c87394b34239c5591b2d8090af301c8578e38a3129535",
    "--catalog s4_standard_d2":
        "26af11f743ce379840704a1491475f925a4377720c986433a986f28be1037265",
    "--catalog s4_standard_d2 --equivariant":
        "6f1f5607852f114e53a8f0ad3bd3e54b989eb9839c4a58b356754d72c2448101",
    "--catalog standard_s4_d2":
        "e2ba2b912a15f01b5f3fa7317b7066751b468cbd2babd67a7f61c5c5fde00b3e",
    "--catalog standard_s4_d2 --equivariant":
        "3fd5c5d1f2e7d9f4de60b4d24297f7b170b2bfe4912e5b51aa0f2a90df1de3c8",
    "--catalog wreath_2_2":
        "0b960f4a8ed66dcb2da7f2884bb5f203aaadb0edfa773a3b24b40eb462102106",
    "--catalog wreath_2_2 --equivariant":
        "beb4f41afd09bc84937b306bce39c313d3a3e26a6a4838438e2daa6112268ecf",
    "--catalog z2_sl2":
        "749130779a06a469c1b0ad7b01e0c139465ae4c1935133f5855dd1dbc44c46eb",
    "--catalog z2_sl2 --equivariant":
        "f240c509603d42d567551487e009a30ee91b258f128831e2e4b4e163565b6078",
    "--catalog z3_sl2":
        "f1aa971cfa826119f16c0d21f4329995af80dca3f9d97531e02f8c9cd61adbf4",
    "--catalog z3_sl2 --equivariant":
        "ad30c7b87338136d3679434b53f323e09cab7663c976ffd95f6bb0f18e222c58",
    "--catalog z4_sl2":
        "58d34cf74ad21f78c50a7bd9c861f100ba9caf3391d66cf10aa483303d0e0a80",
    "--catalog z4_sl2 --equivariant":
        "a09d7c32ce944a3bd738af62500360b355c9f00c5358831fd039890fa03bfc32",
    "--catalog z6_sl2":
        "7c297ad1d0d76a59745ff0a72941115078056927e21b6dc8be2cf6e2c904c1fa",
    "--catalog z6_sl2 --equivariant":
        "29b3f1e8f25eaa1f12acb087994538a6e98d0f59555cb1a3854c8af29a627ab9",
    "--catalog z6_sl2 --oracle 6":
        "407b8ae171c876bf0ff49a3008bfb39ccbdd37c7162172dc9249274b9917b3ef",
    "--mode analytic --catalog binary_tetrahedral":
        "48bb24c8e236d27ed981adb464121c667ba0c890f119d32237e3c4ce6885b958",
    "--mode ledger --input demos/ledgers/dihedral6_symbolic.json":
        "5053508245f18df3d5421d121f39b82dcf1babdbadba50aa8b8e8b1554a667db",
    "--mode ledger --input demos/ledgers/dihedral8_pieces.json":
        "ce1d4bf66866b933f11ae28eb0109b0b7095a1f8f7c3a8a5c898cb0dd5245fb4",
}


@pytest.fixture(scope="module")
def z6_report():
    return run(JobSpec("integral", catalog="z6_sl2", oracle=6))


class TestJobSpec:
    def test_source_required(self):
        with pytest.raises(InputError):
            JobSpec("integral")
        with pytest.raises(InputError):
            JobSpec("integral", catalog="z6_sl2", input="x.json")
        with pytest.raises(InputError):
            JobSpec("nonsense", catalog="z6_sl2")
        with pytest.raises(InputError):
            JobSpec("integral", catalog="z6_sl2", oracle=0)

    @pytest.mark.parametrize("field, value", [
        ("oracle", True), ("d", True), ("oracle", 2.5), ("max_enumeration", 1e9),
        ("max_group_order", False)])
    def test_integer_options_take_ints_only(self, field, value):
        # oracle=True ran a check named torsion_oracle_nTrue and d=True ran at
        # d = 1, each echoing true; a float failed deep in the run
        flag = "--" + field.replace("_", "-")
        with pytest.raises(InputError, match=f"^{flag} must be a positive integer$"):
            JobSpec("integral", catalog="z6_sl2", **{field: value})

    @pytest.mark.parametrize("mode, message", [
        ("ledger", "ledger mode requires --input"),
        ("analytic", "z6_sl2 is not an analytic entry")])
    def test_source_rules_are_checked_before_the_run(self, mode, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            JobSpec(mode, catalog="z6_sl2")

    @pytest.mark.parametrize("flag", ["--max-enumeration", "--max-group-order"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_budgets_are_input_errors(self, flag, value, capsys):
        # a budget of 0 is no budget: it used to reach the first fixed
        # locus ("Fix of a subgroup of order 1 has 1 components") or the
        # group closure ("group closure exceeds cap 0")
        assert main(["--catalog", "z6_sl2", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be a positive integer\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [["--d", "7"], ["--oracle", "4"], ["--equivariant"]],
                             ids=["d", "oracle", "equivariant"])
    @pytest.mark.parametrize("source", [
        ["--mode", "ledger", "--input", str(ROOT / "demos/ledgers/dihedral8_pieces.json")],
        ["--mode", "analytic", "--catalog", "binary_tetrahedral"],
    ], ids=["ledger", "analytic"])
    def test_integral_flags_outside_integral_mode(self, source, flag, capsys):
        # they act in integral mode only: elsewhere the report would echo them
        # and the run ignore them
        assert main(source + flag) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag[0]} applies only in integral mode\n"
        assert captured.out == ""


class TestIntegralRun:
    def test_z6_values(self, z6_report):
        payload = z6_report.payload
        assert payload["quotient"] == [1, 0, 4, 0, 1]
        assert payload["resolution"] == [1, 0, 22, 0, 1]
        assert z6_report.passed

    def test_all_checks_recorded(self, z6_report):
        names = {c["name"] for c in z6_report.payload["checks"]}
        assert {"palindromic", "t1_coefficient_zero", "euler_cross_check",
                "partition_of_quotient", "torsion_oracle_n6"} <= names
        for check in z6_report.payload["checks"]:
            assert {"name", "pass", "left", "right"} <= set(check)

    def test_octahedral_run_with_oracle(self):
        report = run(JobSpec("integral", catalog="octahedral_s4_sl3",
                             oracle=6))
        assert report.payload["resolution"] == [1, 0, 20, 14, 20, 0, 1]
        assert report.passed

    def test_oracle_predicts_per_class_and_compares_per_element(self, monkeypatch):
        # one Smith frame per conjugacy class, that of the class record's
        # Hermite rows of 1 - g, which the traces share: no Smith form of
        # 1 - g itself is taken; an element off its class's count is still
        # listed on its own
        import kummer.cli as cli
        import kummer.strata as strata
        from kummer.catalog import catalog
        from kummer.exactalg import hermite_normal_form

        action = catalog("octahedral_s4_sl3")
        g = next(cls[-1] for cls in action.conjugacy_classes() if len(cls) > 1)
        oracle, frame, snf = cli.torsion_oracle, cli._frame, strata.smith_normal_form
        frames, forms = [], []
        monkeypatch.setattr(cli, "torsion_oracle", lambda action, n, budget: {
            h: count + (h == g) for h, count in oracle(action, n, budget=budget).items()})
        monkeypatch.setattr(cli, "_frame", lambda rows, r: frames.append(rows) or frame(rows, r))
        monkeypatch.setattr(strata, "smith_normal_form",
                            lambda rows: forms.append(rows) or snf(rows))
        strata._frame.cache_clear()
        report = run(JobSpec("integral", catalog="octahedral_s4_sl3", oracle=6))
        (check,) = [c for c in report.payload["checks"] if c["name"] == "torsion_oracle_n6"]
        expected = oracle(action, 6)[g]
        assert check["left"] == [[list(map(list, g)), expected + 1, expected]]
        assert not check["pass"] and not report.passed
        assert frames == [cls.rows for cls in action._classes]
        assert forms and all(hermite_normal_form(rows, action.r) == rows for rows in forms)

    @pytest.mark.parametrize("name", ["s4_standard_d2", "octahedral_s4_sl3", "d8_b2"])
    @pytest.mark.parametrize("oracle", [None, 6])
    def test_a_run_takes_one_form_of_each_class(self, name, oracle, monkeypatch):
        # the class records take the Hermite form of 1 - g, g each class's
        # representative, once in a run (the ages, the Euler number and the
        # strata of <g> read it); Smith forms are taken of Hermite row
        # lattices only, one per lattice, and --oracle adds those of the
        # records' rows that no subgroup class's representative shares; the
        # Euler number takes no Hermite form of 1 - h stacked under 1 - 1 (or
        # over it), whose lattice is that of 1 - h alone, and stacks 1 - h
        # under the Hermite rows of g's class record.  Every Hermite form
        # of stacked rows of 1 - h is taken by one function, _row_lattice,
        # which the class records call from groupcore and the rest from
        # toruslat and strata
        import kummer.groupcore as groupcore
        import kummer.strata as strata
        import kummer.toruslat as toruslat
        from kummer.catalog import catalog
        from kummer.exactalg import identity_matrix, mat_sub

        forms = {"hermite": [], "smith": [], "pairs": [], "strata": []}
        real, snf = groupcore._row_lattice, strata.smith_normal_form
        for module, kind in ((groupcore, "hermite"), (toruslat, "pairs"),
                             (strata, "strata")):
            monkeypatch.setattr(module, "_row_lattice", lambda action, sub, rows=(), _kind=kind:
                                forms[_kind].append((tuple(sub), rows))
                                or real(action, sub, rows))
        monkeypatch.setattr(strata, "smith_normal_form",
                            lambda rows: forms["smith"].append(rows) or snf(rows))
        strata._frame.cache_clear()
        report = run(JobSpec("integral", catalog=name, oracle=oracle))
        assert report.passed
        action = catalog(name)
        ident, r = identity_matrix(action.r), action.r
        diffs = [mat_sub(ident, g) for g in action.class_representatives()]

        def stacked(kind):
            return [tuple(row for h in sub for row in mat_sub(ident, h))
                    for sub, _ in forms[kind]]

        assert stacked("hermite") == diffs
        lattices = {real(action, c.representative) for c in action._lattice} - {()}
        records = {cls.rows for cls in action._classes} - {()}
        assert len(forms["smith"]) == len(set(forms["smith"]))
        assert set(forms["smith"]) == (lattices | records if oracle else lattices)
        assert not any(not any(map(any, rows[i:i + r]))
                       for rows in stacked("pairs") + stacked("strata")
                       for i in range(0, len(rows), r))
        assert all(rows in records for _, rows in forms["pairs"])
        assert not any(rows for _, rows in forms["hermite"] + forms["strata"])
        assert forms["strata"] and not set(stacked("strata")) & set(diffs)

    def test_input_file(self, tmp_path):
        doc = {"name": "z4", "matrices": [[[0, -1], [1, 0]]], "d": 1,
               "special": True}
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(doc))
        report = run(JobSpec("integral", input=str(path)))
        assert report.payload["resolution"] == [1, 0, 22, 0, 1]
        assert report.passed

    def test_d_override(self):
        report = run(JobSpec("integral", catalog="s3_standard", d=2))
        assert report.payload["group"]["d"] == 2

    def test_equivariant_detail(self):
        report = run(JobSpec("integral", catalog="z6_sl2", equivariant=True))
        assert all("orbit_detail" in s for s in report.payload["strata"])


D8_B2_INPUT = {"matrices": [[[-1, 0], [0, 1]], [[0, 1], [1, 0]]], "d": 2}

D6_ANALYTIC = {
    "name": "d6",
    "generators": [[1, 0, 2], [1, 2, 0]],
    "class_data": [
        {"representative": [0, 1, 2],
         "exponents": [[0, 1], [0, 1], [0, 1], [0, 1]]},
        {"representative": [1, 0, 2],
         "exponents": [[0, 1], [0, 1], [1, 2], [1, 2]]},
        {"representative": [1, 2, 0],
         "exponents": [[1, 3], [1, 3], [2, 3], [2, 3]]},
    ],
    "constraints": [
        {"label": "components",
         "unknowns": {"m": [1, 81]},
         "conditions": {"m": ["power_of_2", "power_of_3"]}},
    ],
}

Z2_ANALYTIC = {
    "name": "z2",
    "generators": [[1, 0]],
    "class_data": [
        {"representative": [0, 1], "exponents": [[0, 1], [0, 1]]},
        {"representative": [1, 0], "exponents": [[1, 2], [1, 2]]},
    ],
}


class TestAnalyticRun:
    def test_binary_tetrahedral(self):
        report = run(JobSpec("analytic", catalog="binary_tetrahedral"))
        payload = report.payload
        counts = {(row["order"], row["count"]) for row in payload["classes"]}
        assert (2, 256) in counts
        assert (6, 16) in counts
        assert payload["classification"] == "BinaryTetrahedral"
        assert payload["symplectic_resolution_obstructed"] is True
        assert not payload["constraints"][0]["feasible"]
        assert report.passed

    def test_analytic_input_file(self, tmp_path):
        path = tmp_path / "d6.json"
        path.write_text(json.dumps(D6_ANALYTIC))
        report = run(JobSpec("analytic", input=str(path)))
        payload = report.payload
        assert payload["classification"] == "TypeA(2)"
        assert payload["constraints"][0]["feasible"]
        count_by_order = {row["order"]: row["count"] for row in payload["classes"]}
        assert count_by_order[3] == 81

    def test_odd_dimension_is_no_match(self, tmp_path):
        # Z/2 acting by -1 on an elliptic curve: self-dual, but the
        # classification, for the shape V + V*, raised ShapeMismatch
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(dict(Z2_ANALYTIC, class_data=[
            {"representative": [0, 1], "exponents": [[0, 1]]},
            {"representative": [1, 0], "exponents": [[1, 2]]}])))
        for flags in ([], ["-O"]):
            out = _run_cli(["--mode", "analytic", "--input", str(path), "--format", "json"],
                           flags=flags, timeout=20)
            assert (out.returncode, out.stderr) == (0, "")
            assert json.loads(out.stdout)["classification"] == "NoMatch"

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError):
            run(JobSpec("analytic", catalog="z6_sl2"))
        with pytest.raises(InputError):
            run(JobSpec("integral", catalog="binary_tetrahedral"))


class TestLedgerRun:
    def test_d8_ledger_file(self, tmp_path):
        doc = {
            "entries": [
                {"base": [1, 0, 6, 0, 22, 0, 6, 0, 1],
                 "subtract": [
                     {"multiplicity": 17, "poly": [-15, 0, 6, 0, 1]},
                     {"multiplicity": 136, "poly": [1]}]},
                {"base": [17, 0, 102, 0, 17], "fiber": [1, 0, 1],
                 "subtract": [{"multiplicity": 272, "poly": [1]}]},
                {"base": [120], "fiber": [1, 0, 2, 0, 1]},
                {"base": [16], "fiber": [1, 0, 2, 0, 2]},
            ],
        }
        path = tmp_path / "d8.json"
        path.write_text(json.dumps(doc))
        report = run(JobSpec("ledger", input=str(path)))
        assert report.payload["resolution"] == [1, 0, 23, 0, 276, 0, 23, 0, 1]
        assert report.passed

    def test_demo_ledgers(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "demos" / "ledgers"
        report = run(JobSpec("ledger", input=str(root / "dihedral8_pieces.json")))
        assert report.payload["resolution"] == [1, 0, 23, 0, 276, 0, 23, 0, 1]
        report = run(JobSpec("ledger",
                             input=str(root / "dihedral6_symbolic.json")))
        assert report.payload["resolution"] == [1, 0, 7, 8, 108, 8, 7, 0, 1]
        assert report.payload["symbolic"]["linear"] == [0, 0, 1, 4, 6, 4, 1]


class TestReportSerialization:
    def test_json_roundtrip(self, z6_report):
        text = z6_report.to_json()
        parsed = Report(json.loads(text))
        assert parsed.payload == z6_report.payload
        assert parsed.to_json() == text

    def test_deterministic_bytes(self):
        a = run(JobSpec("integral", catalog="z6_sl2")).to_json()
        b = run(JobSpec("integral", catalog="z6_sl2")).to_json()
        assert a == b

    @pytest.mark.parametrize("name", ["s4_standard_d2", "d8_b2"])
    def test_bytes_do_not_depend_on_the_hash_seed(self, name):
        # set and dict iteration of str keys changes with the hash seed; the
        # report must not
        args = ["--catalog", name, "--equivariant", "--oracle", "3", "--format", "json"]
        runs = [_run_cli(args, timeout=30, PYTHONHASHSEED=seed) for seed in ("0", "12345")]
        assert [out.returncode for out in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("payload", [
        {"empty_dict": {}, "empty_list": [], "nested": {"a": {}, "b": [[], {}], "c": [{}]}},
        {"mixed": [True, 1, 0, False, None], "flags": {"t": True, "f": False, "n": None},
         "no_none": [1, True, 0, False]},
        {"ints": [-1, -(2 ** 70), 2 ** 64 + 1, 0], "big": 2 ** 100, "neg": -7},
        {"text": ['quote " back \\ nl \n ctl \x01', "Ω", "\U0001d11e"],
         "Ω key \"\\": "\U0001d11e"},
        {"input": {"path": "dir/a, [b] {c}.json", "catalog": None},
         "tuple": (1, (2, "x"), ()), "rows": [[1, 2], [3, "4"]]},
        {"subclasses": [IntEnum("Level", "ONE TWO").TWO, type("Name", (str,), {})("Ω")]},
    ])
    def test_writer_matches_json_dumps(self, payload):
        assert Report(payload).to_json() == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "int key"}])
    def test_writer_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            Report({"value": value}).to_json()
        with pytest.raises(TypeError):
            Report({"value": [1, value]}).to_json()

    def test_text_rendering(self, z6_report):
        text = z6_report.to_text()
        assert "resolution Poincare polynomial: 1 + 22*t^2 + t^4" in text
        assert "overall: pass" in text


class TestMainEntryPoint:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "s4_standard_d2: Beauville generalized Kummer, dim 6" in out
        assert "binary_tetrahedral" in out
        assert out == list_catalog()

    def test_successful_run_exit_zero(self, capsys):
        assert main(["--catalog", "z6_sl2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report_version"] == 1
        assert payload["resolution"] == [1, 0, 22, 0, 1]

    def test_unknown_catalog_exit_two(self, capsys):
        assert main(["--catalog", "no_such_entry"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_input_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--input", str(path)]) == 2
        path.write_text(json.dumps({"matrices": [[[2, 0], [0, 1]]]}))
        assert main(["--input", str(path)]) == 2

    @pytest.mark.parametrize("args, doc", [
        (["--catalog", "z6_sl2", "--d", "0"], None),
        (["--catalog", "z6_sl2", "--d", "-1"], None),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1]]], "d": 0}),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1]]], "d": "x"}),
        (["--mode", "ledger", "--input", "in.json"], {"entries": [{"base": [1, "x"]}]}),
        (["--mode", "ledger", "--input", "in.json"], {"entries": [{"base": [1.5]}]}),
        (["--mode", "ledger", "--input", "in.json"],
         {"entries": [{"base": [1], "fiber": "ab"}]}),
        (["--mode", "ledger", "--input", "in.json"],
         {"entries": [{"base": {"molien": {"generators": [[[0, -1], [1, 1]]],
                                           "d": 0}}}]}),
    ], ids=["d_zero", "d_negative", "input_d_zero", "input_d_text",
            "ledger_text_coefficient", "ledger_float_coefficient",
            "ledger_string_fiber", "ledger_molien_d_zero"])
    def test_malformed_input_exit_two(self, args, doc, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_gorenstein_exit_two(self, tmp_path, capsys):
        path = tmp_path / "flip.json"
        path.write_text(json.dumps({"matrices": [[[0, 1], [1, 0]]], "d": 1}))
        assert main(["--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_failure_exit_one(self, monkeypatch, capsys):
        import kummer.cli as cli

        failing = Report({
            "report_version": 1, "mode": "integral", "input": {},
            "checks": [{"name": "stub", "pass": False, "left": 0, "right": 1}],
        })
        monkeypatch.setattr(cli, "run", lambda job: failing)
        assert cli.main(["--catalog", "z6_sl2"]) == 1

    def test_internal_inconsistency_exit_one(self, monkeypatch, capsys):
        import kummer.strata
        from kummer.exactalg import IntPolynomial

        # strata that cannot sum to the quotient polynomial
        monkeypatch.setattr(kummer.strata, "quotient_poincare",
                            lambda action: IntPolynomial([1]))
        assert main(["--catalog", "z6_sl2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal inconsistency: strata sum to ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_integral_molien_sum_exit_one(self, monkeypatch, capsys):
        import kummer.repring
        from kummer.exactalg import IntPolynomial

        # the generator's class (a single element: z6_sl2 is abelian) is
        # off by one, so the Molien sum is not divisible by |G| = 6
        trace, generator = kummer.repring.det_one_plus_t, ((0, -1), (1, 1))
        monkeypatch.setattr(
            kummer.repring, "det_one_plus_t",
            lambda m, power: trace(m, power) + IntPolynomial([int(m == generator)]))
        assert main(["--catalog", "z6_sl2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal inconsistency: ")
        assert err.endswith(" does not average over 6 elements\n")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unpreserved_lattice_exit_one(self, monkeypatch, capsys):
        from kummer.groupcore import FiniteGroup

        # every class of subgroups is given the whole group as normalizer,
        # so the traces ask for an element's matrix on a fixed locus it
        # moves
        lattice = FiniteGroup._lattice.func

        def widened(group):
            classes = lattice(group)
            for cls in classes:
                cls.norm = (1 << group.order) - 1
            return classes

        monkeypatch.setattr(FiniteGroup, "_lattice", property(widened))
        assert main(["--catalog", "octahedral_s4_sl3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal inconsistency: matrix does not "
                              "preserve the lattice")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_natural_s3_on_abelian_surface(self, capsys):
        # Hilb^3 of an abelian surface, by Goettsche's formula: b1 = 4 on the
        # quotient and on its crepant resolution alike
        assert main(["--catalog", "natural_s3", "--d", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolution"] == [1, 4, 13, 40, 103, 196, 246, 196, 103,
                                         40, 13, 4, 1]

    def test_enumeration_budget_reaches_stratify(self, capsys):
        assert main(["--catalog", "s4_standard_d2", "--max-enumeration", "10"]) == 2
        assert "error: component enumeration exceeds budget" in capsys.readouterr().err

    def test_enumeration_budget_bounds_each_fixed_locus(self, capsys):
        # the budget bounds the components of Fix(H) for each subgroup
        # class's representative H: 256 points for the whole group here
        from kummer.catalog import catalog
        from kummer.groupcore import subgroup_class_poset
        from kummer.toruslat import fix_locus

        action = catalog("s4_standard_d2")
        largest = max(len(fix_locus(action, c.representative))
                      for c in subgroup_class_poset(action))
        assert largest == 256
        args = ["--catalog", "s4_standard_d2", "--max-enumeration"]
        assert main(args + [str(largest - 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: component enumeration exceeds budget "
                              f"{largest - 1}: ")
        assert "--max-enumeration" in err
        assert err.count("\n") == 1
        assert main(args + [str(largest), "--equivariant"]) == 0

    def test_large_d_stops_before_any_trace(self):
        # Fix(-1) on z6_sl2 has 4^(2d) components: the budget stops --d 800
        # before a trace of degree 2rd = 3200 is taken, and 4^1600 is not
        # formed since 1600 exceeds the budget's bit length
        out = _run_cli(["--catalog", "z6_sl2", "--d", "800"], timeout=20)
        assert out.returncode == 2, out.stderr
        assert out.stderr == (
            f"error: component enumeration exceeds budget {DEFAULT_ENUMERATION_BUDGET}: "
            "Fix of a subgroup of order 2 has 4^1600 components "
            "(set by --max-enumeration)\n")

    def test_large_d_with_connected_fixed_loci_stops_on_the_degree(self):
        # every Smith divisor of natural_s3 is 1, so no component budget
        # fires; the degree 2rd = 4800 of the traces does, within seconds
        out = _run_cli(["--catalog", "natural_s3", "--d", "800"], timeout=5)
        assert out.returncode == 2, out.stderr
        assert out.stderr == (
            f"error: polynomial degree 2rd = 4800 exceeds budget {DEFAULT_ENUMERATION_BUDGET}: "
            "(2rd + 1)^2 = 23049601 coefficient products (set by --max-enumeration)\n")

    @pytest.mark.parametrize("mode, doc, message", [
        # bool() would read "false" as true: a determinant -1 element in
        # an action declared special
        ("integral", dict(D8_B2_INPUT, special="false"),
         "bad integral spec: special 'false' is not a boolean"),
        ("integral", dict(D8_B2_INPUT, special=0),
         "bad integral spec: special 0 is not a boolean"),
        ("analytic", dict(D6_ANALYTIC, class_data=[
            {"representative": [0, 1, 2], "exponents": [[0, 0], [0, 1], [0, 1], [0, 1]]},
            *D6_ANALYTIC["class_data"][1:]]),
         "bad analytic spec: Fraction(0, 0)"),
        # exponents lie in [0, 1): with 1 a class fixing a curve was read
        # as fixing points, and 3/2 failed the self-duality check falsely
        ("analytic", dict(Z2_ANALYTIC, class_data=[
            Z2_ANALYTIC["class_data"][0],
            {"representative": [1, 0], "exponents": [[1, 1], [1, 2]]}]),
         "bad analytic spec: exponent 1 is not in [0, 1)"),
        ("analytic", dict(Z2_ANALYTIC, class_data=[
            Z2_ANALYTIC["class_data"][0],
            {"representative": [1, 0], "exponents": [[3, 2], [1, 2]]}]),
         "bad analytic spec: exponent 3/2 is not in [0, 1)"),
        # a second row for one class would silently replace the first
        ("analytic", dict(D6_ANALYTIC, class_data=[
            *D6_ANALYTIC["class_data"], D6_ANALYTIC["class_data"][0]]),
         "bad analytic spec: class_data must cover every conjugacy class exactly once"),
        ("analytic", dict(D6_ANALYTIC, constraints=[
            {"unknowns": {"s": [0, 5]}, "conditions": {"s": "power_of_x"}}]),
         "bad constraint: unknown condition 'power_of_x': expected power_of_<p>, p >= 2"),
        ("analytic", dict(D6_ANALYTIC, constraints=[{"unknowns": {"s": [5, 0]}}]),
         "bad constraint: empty range for 's'"),
        # the search for powers of 1 never ended
        ("analytic", dict(D6_ANALYTIC, constraints=[
            {"unknowns": {"s": [0, 5]}, "conditions": {"s": ["power_of_1"]}}]),
         "bad constraint: unknown condition 'power_of_1': expected power_of_<p>, p >= 2"),
        ("analytic", dict(D6_ANALYTIC, constraints=[
            {"unknowns": {"s": [0, 5]}, "conditions": ["power_of_2"]}]),
         "bad constraint: 'list' object has no attribute 'items'"),
        ("analytic", dict(D6_ANALYTIC, constraints={"unknowns": {"s": [0, 5]}}),
         "bad constraint: constraints {'unknowns': {'s': [0, 5]}} are not a list"),
        ("analytic", dict(D6_ANALYTIC, constraints=[
            {"unknowns": {"s": [0, 5]}, "equations": [{"coeffs": {"t": 1}}]}]),
         "bad constraint: equation names undeclared unknown 't'"),
        # 301^3 assignments: each used to be built as a dict before any test
        ("analytic", dict(D6_ANALYTIC, constraints=[
            {"unknowns": {"a": [0, 300], "b": [0, 300], "c": [0, 300]}}]),
         f"counting search of {301 ** 3} assignments exceeds budget "
         f"{DEFAULT_ENUMERATION_BUDGET} (set by --max-enumeration)"),
        # these used to report Python's type errors on indexing
        ("integral", [], "bad integral spec: the document must be a JSON object"),
        ("integral", "text", "bad integral spec: the document must be a JSON object"),
        ("analytic", [], "bad analytic spec: the document must be a JSON object"),
        ("analytic", "text", "bad analytic spec: the document must be a JSON object"),
        # every exponent list empty: the classification ended in a traceback
        ("analytic", dict(Z2_ANALYTIC, class_data=[
            {"representative": [0, 1], "exponents": []},
            {"representative": [1, 0], "exponents": []}]),
         "bad analytic spec: every exponent list is empty: dimension 0"),
        # these ran to exit 0: a substitution with no parameter to substitute,
        # a parameter 5 whose substitution key could only be the string "5",
        # and a group of order 1 at rank 0
        ("ledger", {"entries": [{"base": [1, 0, 1]}], "substitution": {"m": 5}},
         "substitution given but no parameter declared"),
        ("ledger", {"entries": [{"base": [1, 0, 1]}], "parameter": 5},
         "parameter 5 is not a string"),
        ("integral", {"matrices": [[]]},
         "bad integral spec: the matrices are 0 x 0: a torus of dimension 0"),
        # the Molien sum at degree 2rd = 20000 ran for more than 20 s
        ("ledger", {"entries": [{"base": {"molien": {
            "generators": [[[-1, 0], [0, -1]]], "d": 5000}}}]},
         f"polynomial degree 2rd = 20000 exceeds budget {DEFAULT_ENUMERATION_BUDGET}: "
         "(2rd + 1)^2 = 400040001 coefficient products (set by --max-enumeration)"),
        # infinite order, found by a power's trace beyond r, with no cap
        # reached: the closure of their powers' ever larger entries ended in
        # MemoryError
        ("integral", {"matrices": [[[10 ** 30, -1], [1, 0]]]},
         f"group is infinite: an element has trace {10 ** 30}, and |trace| > r = 2"),
        ("integral", {"matrices": [[[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 10 ** 30],
                                    [0, 0, 1, 0]]]},
         f"group is infinite: an element has trace {2 * 10 ** 30}, and |trace| > r = 4"),
        # S and ST have orders 4 and 6 but generate SL(2,Z): the bound
        # fires on a product, not on a generator's power
        ("integral", {"matrices": [[[0, -1], [1, 0]], [[0, -1], [1, 1]]]},
         "group is infinite: an element has trace 3, and |trace| > r = 2"),
        # this ran to exit 0 as a group of order 1 at rank 0
        ("ledger", {"entries": [{"base": {"molien": {"generators": [[]], "d": 1}}}]},
         "bad molien spec: the matrices are 0 x 0: a torus of dimension 0"),
    ], ids=["special_text", "special_number", "exponent_zero_denominator",
            "exponent_one", "exponent_three_halves", "duplicate_class_row", "constraint_unknown_condition", "constraint_empty_range",
            "constraint_power_of_one", "constraint_conditions_list",
            "constraints_not_a_list", "constraint_undeclared_unknown",
            "constraint_over_budget", "integral_list", "integral_string",
            "analytic_list", "analytic_string", "analytic_dimension_zero",
            "substitution_without_parameter", "parameter_not_a_string", "integral_rank_zero",
            "molien_degree_over_budget", "infinite_order_trace", "infinite_order_trace_zero",
            "infinite_order_product", "molien_rank_zero"])
    def test_bad_document_exit_two(self, mode, doc, message, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        for flags in ([], ["-O"]):
            out = _run_cli(["--mode", mode, "--input", str(path)], flags=flags, timeout=5)
            assert (out.returncode, out.stderr) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("mode, doc, message", [
        # each of these ran to exit 0 with the misspelt key ignored: "D"
        # computed at d = 1, "cnst" subtracted nothing, "fibre" left the
        # fiber at [1], "cosnt" read as 0 and "constraint" dropped the
        # constraints; the condition named an unknown that was never declared
        ("integral", {"matrices": [[[0, -1], [1, 1]]], "D": 2},
         "bad integral spec: unknown key 'D' in the document"),
        ("ledger", {"entries": [{"base": [1], "subtract": [
            {"poly": [1], "multiplicity": {"cnst": 3}}]}]},
         "unknown key 'cnst' in a multiplicity"),
        ("ledger", {"entries": [{"base": [1, 0, 22, 0, 1], "fibre": [1, 0, 1]}]},
         "unknown key 'fibre' in an entry"),
        ("ledger", {"entries": [{"base": {"cosnt": [1, 0, 22, 0, 1]}}]},
         "unknown key 'cosnt' in a polynomial"),
        ("analytic", dict(D6_ANALYTIC, constraint=[{"unknowns": {"s": [0, 3]}}]),
         "bad analytic spec: unknown key 'constraint' in the document"),
        ("analytic", dict(D6_ANALYTIC, constraints=[{
            "unknowns": {"s": [0, 3]}, "equations": [{"coeffs": {"s": 1}, "constant": -2}],
            "conditions": {"t": "power_of_2"}}]),
         "bad constraint: condition names undeclared unknown 't'"),
        # one below each remaining level of the documents
        ("analytic", dict(Z2_ANALYTIC, class_data=[
            Z2_ANALYTIC["class_data"][0],
            {"representative": [1, 0], "exponent": [[1, 2], [1, 2]]}]),
         "bad analytic spec: unknown key 'exponent' in a class_data row"),
        ("analytic", dict(D6_ANALYTIC, constraints=[{
            "unknowns": {"s": [0, 3]}, "lable": "s"}]),
         "bad constraint: unknown key 'lable' in a constraint"),
        ("analytic", dict(D6_ANALYTIC, constraints=[{
            "unknowns": {"s": [0, 3]}, "equations": [{"coeffs": {"s": 1}, "const": -2}]}]),
         "bad constraint: unknown key 'const' in an equation"),
        ("ledger", {"entries": [{"base": [1]}], "parmeter": "m"},
         "unknown key 'parmeter' in the ledger"),
        ("ledger", {"entries": [{"base": [1], "subtract": [{"poly": [1], "multiplicty": 3}]}]},
         "unknown key 'multiplicty' in a subtraction"),
        ("ledger", {"entries": [{"base": {"molien": {"generators": [[[0, -1], [1, 1]]],
                                                     "D": 2}}}]},
         "unknown key 'D' in a molien spec"),
        ("ledger", {"entries": [{"base": {"molien": {"generators": [[[0, -1], [1, 1]]]},
                                          "const": [1]}}]},
         "unknown key 'const' in a molien base"),
        # an empty mapping is neither a polynomial nor a multiplicity
        ("ledger", {"entries": [{"base": {}}]}, "cannot read polynomial from {}"),
        ("ledger", {"entries": [{"base": [1], "subtract": [{"poly": [1], "multiplicity": {}}]}]},
         "cannot read multiplicity from {}"),
        ("ledger", {"parameter": "m", "entries": [{"base": [1, 0, 1]}],
                    "substitution": {"m": 0, "n": 7}},
         "unknown key 'n' in the substitution"),
    ], ids=["integral_d_typo", "ledger_const_typo", "ledger_fiber_typo", "ledger_base_typo",
            "analytic_constraints_typo", "condition_undeclared_unknown",
            "class_row_typo", "constraint_typo", "equation_typo", "ledger_typo",
            "subtraction_typo", "molien_spec_typo", "molien_base_extra", "empty_base",
            "empty_multiplicity", "substitution_typo"])
    def test_unread_keys_exit_two(self, mode, doc, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        assert main(["--mode", mode, "--input", "in.json"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("exponents", [
        # each class k of Z5 gets (k/5, k/5, k/5): not Galois closed
        lambda k: [[k, 5]] * 3,
        # exponents of order 2 on an element of order 5
        lambda k: [[1, 5], [1, 2], [1, 2]],
    ], ids=["not_galois_closed", "wrong_order"])
    def test_bad_analytic_exponents_exit_two(self, exponents, tmp_path, capsys):
        doc = {
            "name": "z5",
            "generators": [[1, 2, 3, 4, 0]],
            "class_data": [
                {"representative": [(i + k) % 5 for i in range(5)],
                 "exponents": exponents(k) if k else [[0, 1]] * 3}
                for k in range(5)
            ],
        }
        path = tmp_path / "z5.json"
        path.write_text(json.dumps(doc))
        args = ["--mode", "analytic", "--input", str(path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")
        _assert_input_error_under_optimize(args)

    @pytest.mark.parametrize("subtract, extra", [
        ([{"poly": [1], "multiplicity": {"const": "x"}}], {}),
        (5, {}),
        ([{"poly": [1], "multiplicity": {"const": 1.5}}], {}),
        ([{"poly": [1], "multiplicity": {"param": 1}}],
         {"parameter": "m", "substitution": {"m": False}}),
    ], ids=["text_multiplicity", "subtract_not_a_list", "fractional_const",
            "boolean_substitution"])
    def test_malformed_ledger_exit_two(self, subtract, extra, tmp_path, capsys):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(
            {"entries": [{"base": [1], "subtract": subtract}], **extra}))
        args = ["--mode", "ledger", "--input", str(path)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        _assert_input_error_under_optimize(args)

    @pytest.mark.parametrize("subtract, extra", [
        ([{"poly": [1], "multiplicity": {"const": True}}], {}),
        ([{"poly": [1], "multiplicity": True}], {}),
        ([{"poly": [1], "multiplicity": {"param": 0.5}}],
         {"parameter": "m", "substitution": {"m": 2}}),
        ([{"poly": [1], "multiplicity": {"param": 1}}],
         {"parameter": "m", "substitution": {"m": 1.5}}),
        # an "entries" in extra replaces the one entry
        ([], {"entries": [{"base": [True, 0, 22, 0, True]}]}),
        ([], {"entries": [{"base": [1], "fiber": [1, 0, True]}]}),
        ([{"poly": [1, True]}], {}),
        ([], {"entries": [{"base": {"const": [1, 0, True]}}]}),
        ([], {"parameter": "m", "entries": [{"base": {"param": [0, True]}}]}),
        ([], {"entries": [{"base": [1, 0, 1.5]}]}),
        ([], {"entries": [{"base": [1, 0, 22, 0, 1], "fiber": ""}]}),
        ([], {"entries": [{"base": [1, 0, 22, 0, 1], "fiber": {}}]}),
        ([{"poly": {}, "multiplicity": 5}], {}),
        ([], {"entries": [{"base": {"const": ""}}]}),
    ], ids=["boolean_const", "boolean_multiplicity", "fractional_param",
            "fractional_substitution", "boolean_base_coefficient",
            "boolean_fiber_coefficient", "boolean_poly_coefficient",
            "boolean_const_coefficient", "boolean_param_coefficient",
            "fractional_coefficient", "string_fiber", "object_fiber", "object_poly",
            "string_const"])
    def test_non_integral_ledger_values_exit_two(self, subtract, extra, tmp_path,
                                                 capsys):
        # int() would truncate these, IntPolynomial or int() would read a
        # boolean as a number, and IntPolynomial an empty string or object
        # as the zero polynomial
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(
            {"entries": [{"base": [1], "subtract": subtract}], **extra}))
        assert main(["--mode", "ledger", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args, doc", [
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1.7]]], "d": 1.5}),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1.7]]], "d": 1}),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1]]], "d": True}),
        (["--mode", "ledger", "--input", "in.json"],
         {"entries": [{"base": {"molien": {"generators": [[[0, -1], [1, 1]]],
                                           "d": 1.5}}}]}),
        (["--mode", "ledger", "--input", "in.json"],
         {"entries": [{"base": {"molien": {"generators": [[[0, -1], [True, 1]]],
                                           "d": 1}}}]}),
        (["--mode", "analytic", "--input", "in.json"],
         dict(D6_ANALYTIC, generators=[[1, 0, 2.5], [1, 2, 0]])),
        (["--mode", "analytic", "--input", "in.json"],
         dict(D6_ANALYTIC, class_data=[
             *D6_ANALYTIC["class_data"][:2],
             {"representative": [1, 2, 0],
              "exponents": [[True, 3], [1, 3], [2, 3], [2, 3]]}])),
        (["--mode", "analytic", "--input", "in.json"],
         dict(D6_ANALYTIC, constraints=[{"label": "components",
                                         "unknowns": {"m": [1, 81.5]}}])),
        (["--input", "in.json"], {"matrices": [[["0", "-1"], ["1", "1"]]]}),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1]]], "d": "1_0"}),
        (["--input", "in.json"], {"matrices": [[[0, -1], [1, 1]]], "d": "\u0661"}),
        (["--mode", "ledger", "--input", "in.json"],
         {"entries": [{"base": [1], "subtract": [{"poly": [1],
                                                  "multiplicity": {"const": "3"}}]}]}),
        (["--mode", "analytic", "--input", "in.json"],
         dict(D6_ANALYTIC, generators=[["1", "0", "2"], [1, 2, 0]])),
    ], ids=["fractional_entry_and_d", "fractional_entry", "boolean_d",
            "molien_fractional_d", "molien_boolean_entry", "analytic_fractional_generator",
            "analytic_boolean_exponent", "constraint_fractional_bound", "string_entries",
            "underscored_string_d", "arabic_indic_string_d", "string_multiplicity",
            "analytic_string_generator"])
    def test_non_integral_input_values_exit_two(self, args, doc, tmp_path, capsys,
                                                monkeypatch):
        # int() would truncate these, read a boolean as a number or parse a
        # string ("1_0" as 10, an Arabic-Indic digit as 1): the first three
        # and the string entries would run z6_sl2
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" is not an integer\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args, doc, label", [
        (["--input", "in.json"],
         {"matrices": [[[-(i == j) for j in range(4)] for i in range(4)]], "d": 1}, "o2a"),
        (["--catalog", "quotient_s3", "--d", "2"], None, "o3a"),
    ], ids=["minus_identity_4", "quotient_s3_d2"])
    def test_stratum_without_a_junior_class_exit_one(self, args, doc, label, tmp_path,
                                                     capsys, monkeypatch):
        # a terminal quotient singularity has no crepant resolution, so no
        # resolution polynomial is reported
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: stratum {label} has no junior class: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("source, order", [
        (["--catalog", "z6_sl2"], 6),
        (["--mode", "analytic", "--catalog", "binary_tetrahedral"], 24),
        (["--input", "z6.json"], 6),
        (["--mode", "analytic", "--input", "d6.json"], 6),
        # a ledger's molien spec closes its group under the cap too
        (["--mode", "ledger", "--input", str(ROOT / "demos/ledgers/dihedral8_pieces.json")],
         8),
    ], ids=["integral_catalog", "analytic_catalog", "integral_input",
            "analytic_input", "ledger_molien"])
    def test_group_cap_in_every_mode(self, source, order, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "z6.json").write_text(json.dumps({"matrices": [[[0, -1], [1, 1]]]}))
        (tmp_path / "d6.json").write_text(json.dumps(D6_ANALYTIC))
        assert main(source + ["--max-group-order", str(order - 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: group closure exceeds cap {order - 1}\n"
        assert main(source + ["--max-group-order", str(order)]) == 0

    def test_parser_defaults(self):
        opts = parse_argv(["--catalog", "z6_sl2"])
        assert opts["mode"] == "integral"
        assert opts["format"] == "text"

    def test_one_parser_serves_every_call(self, capsys):
        # main() reads each argv afresh: a call's flags do not carry over
        # to the next, and the calls print what fresh processes print
        equivariant = ["--catalog", "z6_sl2", "--equivariant", "--format", "json"]
        plain = ["--catalog", "z6_sl2", "--format", "json"]
        outputs = []
        for args in (equivariant, plain, ["--catalog", "z2_sl2", "--oracle", "2"]):
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
            assert outputs[-1] == _run_cli(args).stdout, args
        assert "orbit_detail" in outputs[0] and "orbit_detail" not in outputs[1]
        assert not parse_argv(plain)["equivariant"]

    def test_abbreviations_and_attached_values(self, capsys):
        # a unique prefix names its option, and --opt=value reads as --opt value
        outputs = []
        for args in (["--catalog", "s3_standard", "--equivariant", "--d", "2"],
                     ["--catalog=s3_standard", "--equiv", "--d=2"]):
            assert main(args + ["--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert '"d": 2' in outputs[0] and "orbit_detail" in outputs[0]

    @pytest.mark.parametrize("args, named", [
        (["--catalog", "z6_sl2", "--bogus"], "--bogus"),
        (["--catalog"], "--catalog"),
        (["--catalog", "z6_sl2", "--max", "5"], "--max"),
        (["--catalog", "z6_sl2", "--format", "xml"], "'xml'"),
        (["--catalog", "z6_sl2", "--d", "two"], "'two'"),
        (["--catalog", "z6_sl2", "stray"], "'stray'"),
        (["--catalog", "a", "--input", "b"], "--catalog"),
        (["--catalog", "z6_sl2", "--", "--format"], "unexpected argument '--format'"),
        (["--equivariant=1"], "option --equivariant must not have an argument"),
        (["-x"], "option -x not recognized"),
        (["--mode", "ledger", "--catalog", "z6_sl2"], "ledger mode requires --input"),
    ], ids=["unknown_option", "missing_value", "ambiguous_prefix", "bad_choice",
            "bad_int", "stray_positional", "two_sources", "after_double_dash",
            "flag_with_value", "unknown_short_option", "ledger_without_input"])
    def test_argv_error_exit_two(self, args, named, capsys):
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    def test_argv_error_under_optimize(self):
        _assert_input_error_under_optimize(["--catalog", "z6_sl2", "--d", "two"])

    def test_help_names_every_flag(self, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        flag_list = readme[readme.index("\nFlags: "):]
        flags = set(re.findall(r"--[a-z-]+", flag_list[:flag_list.index("\n\n")]))
        assert {"--mode", "--catalog", "--input", "--list", "--help"} <= flags
        outputs = []
        for args in (["-h"], ["--help"]):
            assert main(args) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("usage: kummer ")
        assert all(flag in outputs[0] for flag in flags)
        assert re.search(r"[ (]-h\b", outputs[0])

    def test_a_run_builds_no_argparse_parser_and_imports_no_locale(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, kummer.cli; "
             "code = kummer.cli.main(['--catalog', 'z6_sl2', '--format', 'json']); "
             "print(code, sorted({'argparse', 'locale'} & set(sys.modules)), "
             "file=sys.stderr)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert out.stderr == "0 []\n"
        assert json.loads(out.stdout)["resolution"] == [1, 0, 22, 0, 1]

    def test_argv_is_read_without_getopt_or_gettext(self):
        # gettext costs over a millisecond of every process's set-up
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, kummer.cli; "
             "code = kummer.cli.main(['--cat=z6_sl2', '--equiv', '--format', 'json']); "
             "print(code, sorted({'getopt', 'gettext'} & set(sys.modules)), "
             "file=sys.stderr)"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert out.stderr == "0 []\n"
        assert "orbit_detail" in json.loads(out.stdout)["strata"][1]


@pytest.fixture(scope="module")
def shared_stratify():
    """Let the reports of one action (plain, --equivariant, catalog aliases)
    share one stratification, which keeps the golden tests quick."""
    import kummer.cli as cli

    memo = {}

    def memoised(action, budget=DEFAULT_ENUMERATION_BUDGET):
        key = (action.generators, action.d, budget)
        if key not in memo:
            memo[key] = stratify(action, budget=budget)
        return memo[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "stratify", memoised)
        yield


@pytest.mark.parametrize("args, digest", sorted(GOLDEN_REPORTS.items()))
def test_report_bytes_are_pinned(args, digest, shared_stratify, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(args.split() + ["--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_report_bytes_are_pinned_under_optimize():
    # no check of the run, and no byte of its report, rests on assert
    args = "--catalog z6_sl2 --oracle 6"
    out = _run_cli(args.split() + ["--format", "json"], flags=["-O"], timeout=30)
    assert (out.returncode, out.stderr) == (0, "")
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == GOLDEN_REPORTS[args]


def _larger_documents():
    """Integral input documents, by file name, for actions past the catalog's
    sizes: |G| from 64 to 720."""
    from kummer.catalog import catalog, natural_sn, standard_sn, wreath

    def one(r):
        return [[int(i == j) for j in range(r)] for i in range(r)]

    def block(a, b):
        return [[*row, *[0] * len(b)] for row in a] + [[0] * len(a) + list(row) for row in b]

    first, second = catalog("d8_b2"), catalog("wreath_2_2")
    product = ([block(g, one(second.r)) for g in first.generators]
               + [block(one(first.r), h) for h in second.generators])
    actions = {"standard_s5_d2": standard_sn(5, 2), "wreath_3_2_2": wreath(3, 2, 2),
               "natural_s4_d2": natural_sn(4, 2), "standard_s6_d2": standard_sn(6, 2),
               "wreath_4_2_2": wreath(4, 2, 2)}
    docs = {name: {"name": name, "matrices": action.generators, "d": action.d}
            for name, action in actions.items()}
    docs["d8_b2_x_wreath_2_2"] = {"name": "d8_b2_x_wreath_2_2", "matrices": product, "d": 2}
    return docs


# SHA-256 of the stdout of `kummer ARGS --format json`, run in the directory
# that holds the documents of _larger_documents: the sizes the group and
# lattice refactors change.  Their --equivariant runs on the product and on
# wreath_4_2_2, and the larger actions, cost too much for the quick suite.
LARGER_REPORTS = {
    "--input standard_s5_d2.json":
        "8941acb59393c9cfdd6cdfc5cba362c734a0ae500597422f53067c22bcad41eb",
    "--input standard_s5_d2.json --equivariant":
        "b766a20c61a9d192d4c82c8deff84279b45f002b692e0a93b0159101e29f3d5a",
    "--input standard_s5_d2.json --oracle 3":
        "95627c7ebd388619cb7f63fad961bda94667bf92684494ab0e14db77b935d0b8",
    "--input wreath_3_2_2.json":
        "71bfdd05636604860743387d914c2f454926a8239d8d95e3dd7cb885506e60c3",
    "--input wreath_3_2_2.json --equivariant":
        "ba759f004f8841ea3788e58bef4dcec535f1dcc0e8e9addc93fe1393340c039b",
    "--input wreath_3_2_2.json --oracle 3":
        "2c6e9c01552b35b0440b4de17aa055ea17607f5ba8accbfd369a72a8f48be52a",
    "--input natural_s4_d2.json":
        "b6018f37460119a2bb57a98faf89d8353534bd315f7a382f0cc52ed715efe510",
    "--input natural_s4_d2.json --equivariant":
        "ea222d55fcd9fb26596eca3166979f589fbb59e45edc25344fae12cd290e360c",
    "--input natural_s4_d2.json --oracle 3":
        "45abcd8d9ada49e8781aff345bb22a47bd219808ac82651562703eb03e5ea7e8",
    "--input d8_b2_x_wreath_2_2.json":
        "eba89c2e4fb48f1d2bae59ecba5e9bec144a0f52d8d93a7b9be36179278390aa",
    "--input d8_b2_x_wreath_2_2.json --oracle 3":
        "bf3d3502934a4861981be8f601f2a77a094855bebbf42336429ff0c07fd16178",
    "--input standard_s6_d2.json":
        "b870596752eefbab885311d936f3941077c0ebe6e3c506418947b263e818a6c1",
    "--input wreath_4_2_2.json":
        "b341508838a5503cecf1eca1a3ed42732de02b6302a5e14036b0eb24fbd0b445",
}


@pytest.fixture(scope="module")
def larger_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("larger")
    for name, doc in _larger_documents().items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("args, digest", LARGER_REPORTS.items())
def test_larger_report_bytes_are_pinned(args, digest, larger_documents, shared_stratify,
                                        capsys, monkeypatch):
    monkeypatch.chdir(larger_documents)
    assert main(args.split() + ["--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
