from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

from cadlab.bench import BenchConfig, load_problem_file, run_bench, write_csv, write_json
from cadlab.cli import main
from cadlab.probjson import emit_json
from cadlab.randgen import RandomProfile, random_problems

CORPUS = Path(__file__).parent.parent / "src" / "cadlab" / "corpus"


class TestRandGen:
    def test_determinism(self):
        profile = RandomProfile()
        a = random_problems(11, 5, profile)
        b = random_problems(11, 5, profile)
        assert [emit_json(p) for p in a] == [emit_json(p) for p in b]

    def test_profile_bounds(self):
        profile = RandomProfile(nvars=2, npolys=3, max_degree=2, max_terms=3, coeff_range=4)
        for prob in random_problems(3, 20, profile):
            polys = prob.input_polys()
            assert 1 <= len(polys) <= 3
            for p in polys:
                assert p.total_degree() <= 2
                assert len(p.terms) <= 3

    def test_count_zero(self):
        assert random_problems(1, 0, RandomProfile()) == []

    def test_negative_count_refused(self):
        with pytest.raises(ValueError, match="count must be at least 0"):
            random_problems(1, -3, RandomProfile())

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            RandomProfile(nvars=0)

    @pytest.mark.parametrize("bounds", [{"nvars": "2"}, {"npolys": True}, {"max_degree": 2.0},
                                        {"equality_fraction": "0.5"}])
    def test_mistyped_profile(self, bounds):
        with pytest.raises(ValueError):
            RandomProfile(**bounds)


class TestBench:
    def test_circle_all_orders(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "circle.json", work)
        config = BenchConfig(heuristics=(), all_orders=True)
        report = run_bench(work, config)
        cells = {(r.ordering): r.cells for r in report.rows}
        assert cells == {"x,y": 13, "y,x": 13}
        assert all(r.status == "ok" for r in report.rows)

    def test_timeout_row(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "two_circles.json", work)
        config = BenchConfig(heuristics=("sotd",), timeout_ms=0.0001)
        report = run_bench(work, config)
        (row,) = report.rows
        assert row.status == "timeout"
        assert row.cells is None

    def test_zero_timeout_is_a_zero_budget(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "two_circles.json", work)
        report = run_bench(work, BenchConfig(heuristics=("sotd",), timeout_ms=0))
        (row,) = report.rows
        assert row.status == "timeout"

    def test_nan_timeout_is_refused_instead_of_running_unbounded(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "two_circles.json", work)
        with pytest.raises(ValueError, match="non-negative"):
            run_bench(work, BenchConfig(heuristics=("sotd",), timeout_ms=float("nan")))

    def test_malformed_file_isolated(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "circle.json", work)
        (work / "broken.json").write_text("{", encoding="utf-8")
        config = BenchConfig(heuristics=("brown",))
        report = run_bench(work, config)
        by_problem = {r.problem: r.status for r in report.rows}
        assert by_problem["broken"] == "error"
        assert by_problem["circle"] == "ok"

    def test_stable_csv_deterministic_across_jobs(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        for name in ("circle.json", "two_circles.json", "blowup.json"):
            shutil.copy(CORPUS / name, work)
        config1 = BenchConfig(jobs=1, seed=42, stable=True)
        config4 = BenchConfig(jobs=4, seed=42, stable=True)
        texts = []
        for config in (config1, config1, config4):
            buf = io.StringIO()
            write_csv(run_bench(work, config), buf)
            texts.append(buf.getvalue())
        a, b, c = texts
        assert a == b == c
        assert "time_ms" in a.splitlines()[0]

    def test_a_seed_shuffles_the_run_order_only(self, tmp_path, monkeypatch):
        from cadlab import bench

        work = tmp_path / "corpus"
        work.mkdir()
        for name in ("circle.json", "two_circles.json", "blowup.json"):
            shutil.copy(CORPUS / name, work)
        order = []
        inner = bench._run_task

        def recording(problem, config, heuristic, ordering=None):
            order.append((problem.name, heuristic))
            return inner(problem, config, heuristic, ordering)

        monkeypatch.setattr(bench, "_run_task", recording)
        texts, orders = [], []
        for seed in (1, 2, None):
            order.clear()
            buf = io.StringIO()
            write_csv(run_bench(work, BenchConfig(jobs=1, seed=seed, stable=True)), buf)
            texts.append(buf.getvalue())
            orders.append(list(order))
        assert texts[0] == texts[1] == texts[2]
        assert orders[0] != orders[1]
        assert sorted(orders[0]) == sorted(orders[1]) == sorted(orders[2])
        # without a seed the tasks run in file order
        assert orders[2] == sorted(orders[2], key=lambda t: t[0])

    def test_error_rows_carry_their_cause_in_json_only(self, tmp_path):
        work = tmp_path / "corpus"
        work.mkdir()
        (work / "consts.json").write_text(json.dumps({
            "name": "consts", "vars": ["x"],
            "polys": [[{"coeff": "3", "exps": [0]}]],
        }), encoding="utf-8")
        shutil.copy(CORPUS / "circle.json", work)
        report = run_bench(work, BenchConfig(heuristics=("brown",), stable=True))
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_csv(report, csv_buf)
        write_json(report, json_buf)
        rows = {r["problem"]: r for r in json.loads(json_buf.getvalue())["rows"]}
        assert rows["consts"]["status"] == "error"
        assert rows["consts"]["error"] == "CadError: no nonconstant polynomials"
        assert "error" not in rows["circle"]
        lines = csv_buf.getvalue().splitlines()
        assert lines[0].split(",")[-1] == "status"
        assert "consts,brown,-,-,sign,,,,error" in lines

    def test_smt2_files_load(self):
        prob = load_problem_file(CORPUS / "circle.smt2")
        assert prob.var_names == ("x", "y")


class TestCli:
    def test_parse_echoes_json(self, capsys):
        assert main(["parse", str(CORPUS / "circle.json")]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["vars"] == ["x", "y"]

    def test_cad_circle(self, capsys):
        code = main(["cad", str(CORPUS / "circle.json"), "--order", "x,y", "--tree"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cell count: 13" in out
        assert "stack sizes: 1,3,5,3,1" in out

    def test_cad_evaluate(self, capsys):
        code = main(["cad", str(CORPUS / "two_circles.json"), "--order", "x,y",
                     "--evaluate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cell count: 55" in out
        assert "true leaves: 2" in out

    def test_analyze_all(self, capsys):
        assert main(["analyze", str(CORPUS / "blowup.json")]) == 0
        out = capsys.readouterr().out
        for h in ("brown", "sotd", "greedy-sotd", "ndrr", "fulldim"):
            assert f"{h}: y,x" in out

    def test_analyze_names_the_declared_variables(self, capsys):
        # every score table is keyed by data; only the command names variables
        assert main(["analyze", str(CORPUS / "blowup.json")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "brown: y,x", "  x: (1, 3, 2)", "  y: (2, 3, 2)",
            "sotd: y,x", "  x,y: 11", "  y,x: 10",
            "greedy-sotd: y,x", "  eliminate x: 4", "  eliminate y: 0",
            "ndrr: y,x", "  x,y: 2", "  y,x: 0",
            "fulldim: y,x", "  x,y: 5", "  y,x: 2",
        ]

    def test_compare(self, capsys):
        assert main(["compare", str(CORPUS / "blowup.json")]) == 0
        out = capsys.readouterr().out
        assert "x,y: 11 cells" in out
        assert "y,x: 3 cells" in out

    def test_compare_goes_on_past_a_not_well_oriented_ordering(self, tmp_path, capsys):
        # lift3d problem 18: two orderings nullify a projection polynomial
        # over a positive-dimensional cell, the other four answer
        profile = RandomProfile(nvars=3, npolys=2, max_degree=2, max_terms=4, coeff_range=5,
                                equality_fraction=0.3)
        path = tmp_path / "p.json"
        path.write_text(emit_json(random_problems(5301, 60, profile)[18]))
        assert main(["compare", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "  x,y,z: not_well_oriented",
            "  x,z,y: 13 cells (6 full-dimensional)",
            "  y,x,z: not_well_oriented",
            "  y,z,x: 7 cells (4 full-dimensional)",
            "  z,x,y: 13 cells (6 full-dimensional)",
            "  z,y,x: 13 cells (6 full-dimensional)",
        ]

    def test_compare_has_no_all_orders_option(self, capsys):
        # compare always runs every admissible ordering
        assert main(["compare", str(CORPUS / "blowup.json"), "--all-orders"]) == 1

    def test_gb_check(self, capsys):
        assert main(["gb-check", str(CORPUS / "two_circles.json")]) == 0
        out = capsys.readouterr().out
        assert "tnoi before: 4" in out
        assert "tnoi after: 2" in out
        assert "use_gb: true" in out

    def test_gen_and_bench(self, tmp_path, capsys):
        out_dir = tmp_path / "generated"
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"nvars": 2, "npolys": 1, "max_degree": 2,
                                       "max_terms": 2, "coeff_range": 3,
                                       "equality_fraction": 1.0}))
        assert main(["gen", "--seed", "7", "--count", "3", "--profile", str(profile),
                     "--out", str(out_dir)]) == 0
        assert len(list(out_dir.glob("*.json"))) == 3
        report = tmp_path / "report.csv"
        assert main(["bench", str(out_dir), "--out", str(report), "--stable",
                     "--heuristics", "brown,ndrr"]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == ("problem,heuristic,ordering,designation,mode,"
                            "cells,fulldim_cells,time_ms,status")
        assert len(lines) == 1 + 3 * 2

    @pytest.mark.parametrize("doc, message", [
        ({"nvar": 2}, "unknown profile field(s): nvar"),
        ([1, 2], "profile must be a JSON object"),
        ({"nvars": "2"}, "profile bounds must be integers"),
        ({"nvars": 0}, "profile bounds must be positive"),
    ])
    def test_gen_rejects_a_malformed_profile(self, tmp_path, capsys, doc, message):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(doc))
        out_dir = tmp_path / "generated"
        assert main(["gen", "--seed", "7", "--count", "3", "--profile", str(profile),
                     "--out", str(out_dir)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_bench_byte_identical(self, tmp_path, capsys):
        work = tmp_path / "corpus"
        work.mkdir()
        shutil.copy(CORPUS / "circle.json", work)
        shutil.copy(CORPUS / "phi1.json", work)
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        for out in (r1, r2):
            assert main(["bench", str(work), "--out", str(out), "--jobs", "1",
                         "--seed", "42", "--stable"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_exit_code_usage(self):
        assert main(["cad"]) == 1
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("timeout", ["0", "-5", "nan"])
    def test_bench_rejects_a_nonpositive_timeout(self, tmp_path, capsys, timeout):
        out = tmp_path / "r.csv"
        assert main(["bench", str(CORPUS), "--out", str(out), "--timeout", timeout]) == 1
        assert "--timeout must be a positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bench_rejects_fewer_than_one_job(self, tmp_path, capsys, jobs):
        out = tmp_path / "r.csv"
        assert main(["bench", str(CORPUS), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_rejects_a_negative_count(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["gen", "--seed", "1", "--count", "-3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "cadlab: error: --count must be at least 0"]
        assert not out.exists()

    def test_a_variable_quantified_twice_is_a_parse_error(self, tmp_path, capsys):
        doc = json.loads((CORPUS / "circle.json").read_text())
        doc["blocks"] = [{"quantifier": "exists", "vars": ["y", "y"]}]
        f = tmp_path / "twice.json"
        f.write_text(json.dumps(doc))
        assert main(["parse", str(f)]) == 2
        assert capsys.readouterr().err == \
            "parse error: /blocks/0/vars/1: variable 'y' quantified twice\n"

    def test_exit_code_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(set-logic QF_LIA)(assert true)")
        assert main(["parse", str(bad)]) == 2

    def test_exit_code_compute_error(self, tmp_path, capsys):
        doc = {"name": "c", "vars": ["x"], "polys": [[{"coeff": 1, "exps": [0]}]]}
        f = tmp_path / "const.json"
        f.write_text(json.dumps(doc))
        assert main(["cad", str(f)]) == 3

    def test_bad_order_is_usage_like_error(self, capsys):
        assert main(["cad", str(CORPUS / "circle.json"), "--order", "x,z"]) == 3

    @pytest.mark.parametrize("command", [
        ["parse", "{missing}"],
        ["gen", "--seed", "1", "--count", "1", "--profile", "{missing}", "--out", "{tmp}/g"],
        ["bench", "{missing}", "--out", "{tmp}/r.csv"],
    ])
    def test_a_missing_input_path_is_a_usage_error(self, tmp_path, capsys, command):
        missing = tmp_path / "missing"
        argv = [a.format(missing=missing, tmp=tmp_path) for a in command]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: cannot read {missing}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_unwritable_report_path_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["bench", str(CORPUS), "--heuristics", "brown", "--no-build",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_a_designation_outside_ec_mode_is_refused(self, capsys):
        assert main(["cad", str(CORPUS / "circle.json"), "--mode", "sign",
                     "--designation", "5"]) == 3
        assert capsys.readouterr().err == \
            "error: a designation applies in EC mode only, not in mode 'sign'\n"
