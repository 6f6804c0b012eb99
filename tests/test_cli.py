import pytest

from randomfacet import algorithms, cli, dumps_instance, exact, loads_instance, validate_instance


@pytest.fixture()
def errata_file(errata, tmp_path):
    path = tmp_path / "errata.instance"
    path.write_text(dumps_instance(errata))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_errata_solution(self, capsys, errata_file):
        code, out, _ = run_cli(capsys, "solve", errata_file)
        assert code == 0
        assert out == "x x0 0\ny y0 0\nz z0 0\n"

    def test_single_edge_instance(self, capsys, tmp_path):
        path = tmp_path / "one.instance"
        path.write_text("target t\nedge 0 v t 5\n")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        assert out == "v v0 5\n"

    def test_restricted_facets(self, capsys, errata_file):
        code, out, _ = run_cli(capsys, "solve", errata_file, "--facets", "x0,y1,z0,z1")
        assert code == 0
        assert "y y1 2" in out

    def test_negative_cycle_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("target t\nedge 0 v v -1\nedge 1 v t 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "negative-cost cycle" in err


class TestExact:
    def test_rf_from_001(self, capsys, errata_file):
        for tree in ("x0,y0,z1", "x0,,y0,z1,"):  # empty tokens are skipped
            code, out, _ = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", tree)
            assert (code, out) == (0, "7/3\n")

    def test_rfstar_from_111(self, capsys, errata_file):
        code, out, _ = run_cli(capsys, "exact", errata_file, "--rule", "rfstar", "--tree", "x1,y1,z1")
        assert (code, out) == (0, "43/12\n")

    def test_numeric_ids_accepted(self, capsys, errata_file):
        code, out, _ = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", "0,2,5")
        assert (code, out) == (0, "7/3\n")

    def test_tree_equals_facets_prints_zero(self, capsys, errata_file):
        code, out, _ = run_cli(
            capsys, "exact", errata_file, "--rule", "rf", "--tree", "x0,y0,z1",
            "--facets", "x0,y0,z1",
        )
        assert (code, out) == (0, "0/1\n")

    @pytest.mark.parametrize(
        "command, rule", [("exact", "rfstar"), ("comptree", "rfstar"), ("comptree", "rf")]
    )
    def test_execution_budget_exits_2(self, capsys, errata_file, monkeypatch, command, rule):
        # from 001 exact rfstar walks 8 histories, the computation trees
        # 36 and 190 executions
        monkeypatch.setattr(algorithms, "EXECUTION_BUDGET", 7)
        code, out, err = run_cli(capsys, command, errata_file, "--rule", rule, "--tree", "x0,y0,z1")
        assert (code, out) == (2, "")
        assert "more than 7 executions" in err and "Monte Carlo" in err

    def test_rf_state_budget_exits_2(self, capsys, errata_file, monkeypatch):
        # exact rf from 001 needs 18 memo states
        monkeypatch.setattr(exact, "RF_STATE_BUDGET", 17)
        code, out, err = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", "x0,y0,z1")
        assert (code, out) == (2, "")
        assert "more than 17 memo states" in err

    def test_unknown_edge_name(self, capsys, errata_file):
        code, _, err = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", "q7")
        assert code == 2
        assert "unknown edge" in err

    def test_negative_tree_id_exits_2(self, capsys, errata_file):
        code, out, err = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", "-1")
        assert (code, out) == (2, "")
        assert err == "error: unknown edge id -1\n"

    def test_out_of_range_facet_id_exits_2(self, capsys, errata_file):
        code, out, err = run_cli(
            capsys, "exact", errata_file, "--rule", "rf", "--tree", "x0,y0,z1", "--facets", "99"
        )
        assert (code, out) == (2, "")
        assert err == "error: unknown edge id 99\n"

    def test_out_of_range_tree_id_exits_2(self, capsys, errata_file):
        code, out, err = run_cli(capsys, "exact", errata_file, "--rule", "rf", "--tree", "x0,y0,99")
        assert (code, out) == (2, "")
        assert err == "error: unknown edge id 99\n"

    def test_colliding_names_leave_only_numeric_ids(self, capsys, tmp_path):
        # x's eleventh edge and x1's first are both named x10, so no name is given
        path = tmp_path / "collide.instance"
        path.write_text(
            "target t\n" + "".join(f"edge {i} x t {i}\n" for i in range(11)) + "edge 11 x1 t 0\n"
        )
        code, out, err = run_cli(capsys, "exact", str(path), "--rule", "rf", "--tree", "x0,11")
        assert (code, out, err) == (2, "", "error: unknown edge 'x0'\n")
        code, out, _ = run_cli(capsys, "exact", str(path), "--rule", "rf", "--tree", "0,11")
        assert (code, out) == (0, "0/1\n")

    def test_non_generic_instance_answers(self, capsys, tmp_path):
        # edges 1 and 2 tie, so the subset without edge 0 has two optima
        path = tmp_path / "tied.instance"
        path.write_text("target t\nedge 0 v t 9\nedge 1 v t 3\nedge 2 v t 3\n")
        for tree, value in (("1", "0/1\n"), ("0", "1/1\n")):
            for rule in ("rf", "rfstar"):
                code, out, err = run_cli(capsys, "exact", str(path), "--rule", rule, "--tree", tree)
                assert (code, out, err) == (0, value, "")


class TestSimulate:
    def test_reference_tolerance(self, capsys, errata_file):
        code, out, _ = run_cli(
            capsys, "simulate", errata_file, "--rule", "rf", "--tree", "x0,y0,z1",
            "--trials", "2000", "--seed", "7",
        )
        assert code == 0
        mean = float(out.split()[0].split("=")[1])
        assert abs(mean - 7 / 3) < 0.1

    def test_zero_trials_exit_2(self, capsys, errata_file):
        code, _, err = run_cli(
            capsys, "simulate", errata_file, "--rule", "rf", "--tree", "x0,y0,z1",
            "--trials", "0", "--seed", "1",
        )
        assert code == 2
        assert "trial" in err

    def test_same_seed_same_line(self, capsys, errata_file):
        args = ("simulate", errata_file, "--rule", "rfstar", "--tree", "x0,y0,z1",
                "--trials", "300", "--seed", "12")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert first.startswith("mean=") and "trials=300 seed=12" in first


    def test_tree_equals_facets_prints_zero(self, capsys, errata_file):
        for rule in ("rf", "rfstar"):
            code, out, _ = run_cli(
                capsys, "simulate", errata_file, "--rule", rule, "--tree", "x0,y0,z1",
                "--facets", "x0,y0,z1", "--trials", "5", "--seed", "1",
            )
            assert (code, out) == (0, "mean=0.000000 stderr=0.000000 trials=5 seed=1\n")


class TestComptree:
    def test_text_contains_the_five_eighths_annotation(self, capsys, errata_file):
        code, out, _ = run_cli(
            capsys, "comptree", errata_file, "--rule", "rfstar", "--tree", "x0,y0,z1",
        )
        assert code == 0
        assert "5/8" in out

    def test_dot_format(self, capsys, errata_file):
        code, out, _ = run_cli(
            capsys, "comptree", errata_file, "--rule", "rf", "--tree", "x0,y0,z1",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph comptree {")
        assert "1/3" in out

    def test_tree_equals_facets_single_leaf(self, capsys, errata_file):
        code, out, _ = run_cli(
            capsys, "comptree", errata_file, "--rule", "rf", "--tree", "x0,y0,z1",
            "--facets", "x0,y0,z1",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # root plus one leaf
        assert lines[1].split()[2:] == ["leaf", "-", "1/1", "0"]


class TestUsage:
    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (("exact", "--rule", "foo", "--tree", "x0,y0,z1"), "invalid choice: 'foo'"),
            (
                ("simulate", "--rule", "foo", "--tree", "x0,y0,z1", "--trials", "5", "--seed", "1"),
                "invalid choice: 'foo'",
            ),
            (("comptree", "--rule", "foo", "--tree", "x0,y0,z1"), "invalid choice: 'foo'"),
            (("solve", "--tree", "x0"), "unrecognized arguments: --tree x0"),
        ],
        ids=["exact", "simulate", "comptree", "solve"],
    )
    def test_parser_refusals_exit_2(self, capsys, errata_file, argv, complaint):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], errata_file, *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert complaint in captured.err


class TestPerms:
    def test_count_150(self, capsys):
        code, out, _ = run_cli(
            capsys, "perms", "count", "--elements", "6", "--given", "z0<x1,z0<y1,y0<x1",
        )
        assert (code, out) == (0, "150\n")

    def test_cond_two_thirds(self, capsys):
        code, out, _ = run_cli(
            capsys, "perms", "cond", "--elements", "3", "--given", "2<3", "--query", "1<3",
        )
        assert (code, out) == (0, "2/3\n")

    def test_count_unconstrained(self, capsys):
        code, out, _ = run_cli(capsys, "perms", "count", "--elements", "3")
        assert (code, out) == (0, "6\n")

    def test_malformed_constraint_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "perms", "count", "--elements", "3", "--given", "a<b<c")
        assert (code, out) == (2, "")
        assert "a<b<c" in err


# golden stdout of verify-errata: on the fixture, and on two one-cost
# perturbations; a refactor must keep every line byte-identical
_VERIFY_FIXTURE = """\
CHECK optimal_tree expected=000 got=000 PASS
CHECK rf_from_001 expected=7/3 got=7/3 PASS
CHECK rfstar_from_001 expected=29/12 got=29/12 PASS
CHECK rf_from_111 expected=11/3 got=11/3 PASS
CHECK rfstar_from_111 expected=43/12 got=43/12 PASS
CHECK rfstar_slower_from_001 expected=True got=True PASS
CHECK rfstar_faster_from_111 expected=True got=True PASS
CHECK orders_from_001_path3 expected=150 got=150 PASS
CHECK orders_from_111_path2 expected=150 got=150 PASS
CHECK path_probability expected=5/24 got=5/24 PASS
CHECK posterior_after_2_before_3 expected=2/3 got=2/3 PASS
CHECK paths_001_to_000 expected=3 got=3 PASS
CHECK paths_111_to_000 expected=3 got=3 PASS
CHECK rfstar_001_pick_y0_after_z0 expected=5/8 got=5/8 PASS
CHECK rfstar_001_pick_x1_after_z0 expected=3/8 got=3/8 PASS
CHECK rf_001_pick_y0_after_z0 expected=1/2 got=1/2 PASS
CHECK rf_001_pick_x1_after_z0 expected=1/2 got=1/2 PASS
CHECK rfstar_111_pick_x1_after_z0 expected=5/8 got=5/8 PASS
CHECK dashed_edge_rf_unchanged expected=True got=True PASS
CHECK dashed_edge_rfstar_unchanged expected=True got=True PASS
"""

_VERIFY_X1_COST_2 = """\
CHECK optimal_tree expected=000 got=000 PASS
CHECK rf_from_001 expected=7/3 got=2/1 FAIL
CHECK rfstar_from_001 expected=29/12 got=2/1 FAIL
CHECK rf_from_111 expected=11/3 got=3/1 FAIL
CHECK rfstar_from_111 expected=43/12 got=3/1 FAIL
CHECK rfstar_slower_from_001 expected=True got=False FAIL
CHECK rfstar_faster_from_111 expected=True got=False FAIL
CHECK orders_from_001_path3 expected=150 got=150 PASS
CHECK orders_from_111_path2 expected=150 got=150 PASS
CHECK path_probability expected=5/24 got=5/24 PASS
CHECK posterior_after_2_before_3 expected=2/3 got=2/3 PASS
CHECK paths_001_to_000 expected=3 got=error:NonGenericInstance FAIL
CHECK paths_111_to_000 expected=3 got=error:NonGenericInstance FAIL
CHECK rfstar_001_pick_y0_after_z0 expected=5/8 got=5/8 PASS
CHECK rfstar_001_pick_x1_after_z0 expected=3/8 got=3/8 PASS
CHECK rf_001_pick_y0_after_z0 expected=1/2 got=1/2 PASS
CHECK rf_001_pick_x1_after_z0 expected=1/2 got=1/2 PASS
CHECK rfstar_111_pick_x1_after_z0 expected=5/8 got=5/8 PASS
CHECK dashed_edge_rf_unchanged expected=True got=True PASS
CHECK dashed_edge_rfstar_unchanged expected=True got=True PASS
"""

_VERIFY_Y1_COST_0 = """\
CHECK optimal_tree expected=000 got=010 FAIL
CHECK rf_from_001 expected=7/3 got=3/2 FAIL
CHECK rfstar_from_001 expected=29/12 got=3/2 FAIL
CHECK rf_from_111 expected=11/3 got=2/1 FAIL
CHECK rfstar_from_111 expected=43/12 got=2/1 FAIL
CHECK rfstar_slower_from_001 expected=True got=False FAIL
CHECK rfstar_faster_from_111 expected=True got=False FAIL
CHECK orders_from_001_path3 expected=150 got=150 PASS
CHECK orders_from_111_path2 expected=150 got=150 PASS
CHECK path_probability expected=5/24 got=5/24 PASS
CHECK posterior_after_2_before_3 expected=2/3 got=2/3 PASS
CHECK paths_001_to_000 expected=3 got=error:NonGenericInstance FAIL
CHECK paths_111_to_000 expected=3 got=error:NonGenericInstance FAIL
CHECK rfstar_001_pick_y0_after_z0 expected=5/8 got=5/8 PASS
CHECK rfstar_001_pick_x1_after_z0 expected=3/8 got=3/8 PASS
CHECK rf_001_pick_y0_after_z0 expected=1/2 got=1/2 PASS
CHECK rf_001_pick_x1_after_z0 expected=1/2 got=1/2 PASS
CHECK rfstar_111_pick_x1_after_z0 expected=5/8 got=5/8 PASS
CHECK dashed_edge_rf_unchanged expected=True got=True PASS
CHECK dashed_edge_rfstar_unchanged expected=True got=True PASS
"""


class TestVerifyErrata:
    def _verify_perturbed(self, capsys, errata, monkeypatch, old, new):
        text = dumps_instance(errata).replace(old, new)
        assert text != dumps_instance(errata)
        bad = validate_instance(loads_instance(text))
        monkeypatch.setattr(cli, "_load_errata", lambda: bad)
        return run_cli(capsys, "verify-errata")

    def test_fresh_checkout_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-errata")
        assert (code, out, err) == (0, _VERIFY_FIXTURE, "")
        assert out.count(" PASS\n") == 20

    def test_perturbed_fixture_fails(self, capsys, errata, monkeypatch):
        code, out, _ = self._verify_perturbed(
            capsys, errata, monkeypatch, "edge 1 x z 1", "edge 1 x z 2"
        )
        assert (code, out) == (1, _VERIFY_X1_COST_2)
        assert out.count(" FAIL\n") == 8

    def test_perturbed_optimum_fails(self, capsys, errata, monkeypatch):
        code, out, _ = self._verify_perturbed(
            capsys, errata, monkeypatch, "edge 3 y t 2", "edge 3 y t 0"
        )
        assert (code, out) == (1, _VERIFY_Y1_COST_0)
        assert out.count(" FAIL\n") == 9

    def test_missing_fixture_falls_back_to_derivation(self, capsys, errata, monkeypatch):
        def missing():
            raise FileNotFoundError("gone")

        derived = []

        def fake_derive():
            derived.append(True)
            return errata

        monkeypatch.setattr(cli, "_load_errata", missing)
        monkeypatch.setattr(cli, "_derive_errata", fake_derive)
        code, out, _ = run_cli(capsys, "verify-errata")
        assert code == 0
        assert derived == [True]
        assert "deriving" in out


class TestEntryPoint:
    def test_console_script_runs(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # the child imports the package from where this process found it,
        # installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "randomfacet.cli"],
            capture_output=True,
            text=True,
            env=env,
        )
        # bare invocation is a usage error
        assert proc.returncode == 2
