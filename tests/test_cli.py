import gc
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import versal
from conftest import EIGENVALUE_POOL, structures_of_size
from versal import SegreStructure, build_jcf, codimension, deformation, files
from versal.cli import _format_complex, main
from versal.jordan import jordan_block

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def write_segre(tmp_path, blocks, name="s.json"):
    path = tmp_path / name
    files.save_document(path, files.segre_document(SegreStructure(blocks)))
    return str(path)


def write_matrix(tmp_path, m, name="m.json"):
    path = tmp_path / name
    files.save_document(path, files.matrix_document(m))
    return str(path)


def run_fresh(code, *args):
    # stdout of a fresh interpreter that imports versal from this checkout
    src = str(Path(versal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_import_pulls_in_no_scipy():
    # every versal command pays its imports at start-up, and scipy.linalg
    # alone would be most of that time
    code = ("import sys, versal, versal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


def test_import_pulls_in_no_dataclasses():
    # dataclasses imports inspect, and with it ast, dis and tokenize: most
    # of what versal's own modules added to every command's start-up
    code = ("import sys, versal, versal.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))")
    assert run_fresh(code).strip() == "[]"


# runs main on each argv list given as JSON, then prints the numpy modules
# loaded; it reads sys.modules keys only, since any attribute of versal's
# numpy stand-in would import numpy
RUN_COMMANDS = """
import json, sys, versal, versal.cli
for argv in json.loads(sys.argv[1]):
    assert versal.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))
"""


def numpy_modules_after(argvs):
    return json.loads(run_fresh(RUN_COMMANDS, json.dumps(argvs)).splitlines()[-1])


def test_combinatorial_commands_leave_numpy_unloaded(tmp_path):
    # codimensions, star patterns and the Jordan matrix's rows need no
    # floating point, so these commands start without numpy's import time
    path = write_segre(tmp_path, [(0.0, [2, 1]), (1.5, [1])])
    pure = [["pattern", path, "--out", str(tmp_path / "p.json")],
            ["codim", path], ["codim", path, "--mode", "bundle"], ["jcf", path]]
    assert numpy_modules_after(pure) == []


@pytest.mark.parametrize("command", [
    ["codim", "{s}", "--oracle"], ["jcf", "{s}", "--out", "{dir}/j.json"],
    ["experiment", "{s}", "--set", "1=1e-3"]])
def test_numeric_commands_load_numpy(tmp_path, command):
    path = write_segre(tmp_path, [(0.0, [2, 1]), (1.5, [1])])
    argv = [arg.format(s=path, dir=tmp_path) for arg in command]
    assert "numpy" in numpy_modules_after([argv])


# runs a command through main() as a program does, with sys.argv set, and
# counts the collections that start from then on; the counts follow the
# command's own output on one last line
PROGRAM_MODE = """
import gc, json, sys
from versal import cli
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
sys.argv = ["versal", *sys.argv[1:]]
code = cli.main()
print(json.dumps({"code": code, "collections": len(starts),
                  "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def test_program_mode_runs_no_collection(tmp_path, capsys):
    # a command run as the process's program pays for no collection during
    # numpy's import, and freezes what it loaded so that the interpreter's
    # shutdown collections skip it; its output is that of main(argv)
    path = write_segre(tmp_path, [(0.0, [2, 1]), (1.5, [1])])
    argv = ["experiment", path, "--set", "1=1e-3", "--set", "4=2e-3"]
    *output, last = run_fresh(PROGRAM_MODE, *argv).splitlines(keepends=True)
    counts = json.loads(last)
    assert counts["code"] == 0
    assert counts["collections"] == 0
    assert not counts["enabled"] and counts["frozen"] > 0
    assert main(argv) == 0
    assert "".join(output) == capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("command, code", [
    (["codim", "{s}"], 0),
    (["experiment", "{merging}"], 1),
    (["codim", "{missing}"], 2),
    (["jcf", "--help"], SystemExit),
    (["jcf"], SystemExit)])
def test_argv_calls_leave_the_collector_alone(tmp_path, capsys, enabled, command, code):
    merging = write_segre(tmp_path, [(0, [1]), (1e-7, [1])], name="merging.json")
    argv = [arg.format(s=write_segre(tmp_path, [(0.0, [2, 1])]), merging=merging,
                       missing=tmp_path / "missing.json") for arg in command]
    was_enabled = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_first_numeric_calls_from_threads():
    # eight threads, more than the cores, make the first numeric call at
    # once under a short switch interval: each sees numpy fully imported, and
    # afterwards every module's np is numpy itself; versal.cli brings in the
    # one module that versal does not, files
    code = """
import json, sys, threading, versal, versal.cli
assert "numpy" not in sys.modules
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
results, errors = [], []
def first_call():
    barrier.wait(timeout=60)
    try:
        results.append(repr(versal.recover_structure([[1, 1], [0, 1]])))
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_call) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
import numpy
holders = {key: vars(module)["np"] is numpy for key, module in sys.modules.items()
           if key.split(".")[0] == "versal" and "np" in vars(module)}
print(json.dumps({"results": results, "errors": errors, "holders": holders,
                  "alive": sum(thread.is_alive() for thread in threads)}))
"""
    out = json.loads(run_fresh(code))
    assert out["alive"] == 0
    assert out["errors"] == []
    assert out["results"] == [repr(SegreStructure([(1.0, [2])]))] * 8
    assert out["holders"] == dict.fromkeys(
        ["versal._numpy", "versal.cli", "versal.codimension", "versal.deformation",
         "versal.files", "versal.jordan", "versal.linalg", "versal.linearization"],
        True)


def test_numpy_imported_first_is_bound_at_import():
    code = "import numpy, versal; print(versal.linalg.np is numpy)"
    assert run_fresh(code).strip() == "True"


class TestCodimCommand:
    def test_orbit(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["codim", path]) == 0
        out = capsys.readouterr().out
        assert "codim=9" in out and "dimension=16" in out

    def test_bundle_three_simple_plus_chain(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3]), (1.0, [1]), (2.0, [1])])
        assert main(["codim", path, "--mode", "bundle"]) == 0
        assert "codim=2" in capsys.readouterr().out

    def test_bundle_simple(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [1])])
        assert main(["codim", path, "--mode", "bundle"]) == 0
        assert "codim=0" in capsys.readouterr().out

    def test_oracle_agreement(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2, 1]), (1.0, [1])])
        assert main(["codim", path, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle=6" in out and "oracle_agrees=yes" in out

    def test_oracle_disagreement_exit_1(self, tmp_path, capsys, monkeypatch):
        path = write_segre(tmp_path, [(0.0, [2, 1]), (1.0, [1])])
        monkeypatch.setattr(codimension, "orbit_codim_oracle",
                            lambda s: codimension.orbit_codim(s) + 1)
        assert main(["codim", path, "--oracle"]) == 1
        captured = capsys.readouterr()
        assert "oracle=7" in captured.out and "oracle_agrees=no" in captured.out
        assert "commutator nullity disagrees" in captured.err

    def test_oracle_overflow_exit_2(self, tmp_path, capsys):
        # the difference of the two eigenvalues overflows; the oracle raises
        # instead of returning a nullity that disagrees with the pattern count
        path = write_segre(tmp_path, [(1e308, [1]), (-1e308, [1])])
        assert main(["codim", path, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert "oracle=" not in captured.out
        assert "overflows" in captured.err
        assert "disagrees" not in captured.err

    def test_oracle_close_eigenvalues_exit_2(self, tmp_path, capsys):
        # the cross piece's singular values are about 1 and 1e-10, under the
        # cutoff: the oracle read 5 against the formula's 3 and the command
        # exited 1 on a correct count; it now refuses to count
        path = write_segre(tmp_path, [(0.0, [2]), (1e-5, [1])])
        assert main(["codim", path, "--oracle"]) == 2
        captured = capsys.readouterr()
        assert "codim=3" in captured.out and "oracle=" not in captured.out
        assert "1.000e-05 apart" in captured.err
        assert "disagrees" not in captured.err

    @pytest.mark.parametrize("gap", [1e11, 1e13])
    def test_oracle_far_apart_eigenvalues_agree(self, tmp_path, capsys, gap):
        # the piece of two groups this far apart has singular values of about
        # the gap; ranked against the whole map's largest, the 2-block's own
        # piece fell below the cutoff and the oracle read 5
        path = write_segre(tmp_path, [(0.0, [2]), (gap, [1])])
        assert main(["codim", path, "--oracle"]) == 0
        captured = capsys.readouterr()
        assert "oracle=3" in captured.out and "oracle_agrees=yes" in captured.out
        assert captured.err == ""

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["codim", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestPatternCommand:
    def test_arnold_two_block(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2])])
        assert main(["pattern", path]) == 0
        out = capsys.readouterr().out
        assert "parameters=2" in out
        assert "star 2 1 1" in out and "star 2 2 2" in out

    def test_alternate_three_block(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3])])
        assert main(["pattern", path, "--shape", "alternate"]) == 0
        out = capsys.readouterr().out
        assert "parameters=3" in out and "stars=6" in out

    def test_scalar_either_shape(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [1])])
        for shape in ("arnold", "alternate"):
            assert main(["pattern", path, "--shape", shape]) == 0
            assert "stars=1" in capsys.readouterr().out

    def test_output_file_deterministic(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert main(["pattern", path, "--out", str(out1)]) == 0
        assert main(["pattern", path, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert files.load_document(out1)["parameters"] == 9


class TestExperimentCommand:
    def test_superdiagonal_bridge(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["experiment", path, "--set", "4=0.01"]) == 0
        out = capsys.readouterr().out
        assert "[5]" in out
        assert "orbit_codim: 9 -> 5" in out

    def test_no_values_unchanged(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["experiment", path]) == 0
        out = capsys.readouterr().out
        assert "recovered={0: [3, 2]}" in out

    def test_bottom_left_split(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["experiment", path, "--set", "1=0.01"]) == 0
        out = capsys.readouterr().out
        assert out.count("[1]") == 3 and "[2]" in out

    def test_signed_zero_prints_as_zero(self, tmp_path, capsys):
        # -1j is stored as [-0.0, -1.0]; input and recovered lines must name
        # the same eigenvalue the same way
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"kind": "segre", "blocks": [
            {"eigenvalue": [0.0, 0.0], "sizes": [2]},
            {"eigenvalue": [-0.0, -1.0], "sizes": [1]}]}))
        assert main(["experiment", str(path), "--set", "1=1e-3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "(0-1j): [1]" in lines[0] and "(0-1j): [1]" in lines[1]

    def test_bad_parameter_index(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2])])
        assert main(["experiment", path, "--set", "9=0.01"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_repeated_index_exit_2(self, tmp_path, capsys):
        # which of the two values should apply is ambiguous
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["experiment", path, "--set", "4=0.01", "--set", "4=0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --set gives parameter 4 more than once\n"

    @pytest.mark.parametrize("flag, value", [
        ("--tol-rank", "2"), ("--tol-rank", "1"), ("--tol-rank", "nan"),
        ("--tol-rank", "inf"), ("--tol-cluster", "-1"),
        ("--tol-cluster", "nan"), ("--tol-cluster", "inf"),
    ])
    def test_out_of_range_tolerance_exit_2(self, tmp_path, capsys, flag, value):
        # a rank cutoff of 2 * ||B||_2 would read five 1-blocks
        path = write_segre(tmp_path, [(0.0, [3, 2])])
        assert main(["experiment", path, "--set", "4=0.01", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must")
        assert captured.err.count("\n") == 1

    def test_merging_groups_exit_1(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2]), (1e-9, [1]), (2.0, [1])])
        assert main(["experiment", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "perturbed eigenvalue groups 1 and 2" in captured.err

    def test_cluster_tolerance_flag_merges_groups(self, tmp_path, capsys):
        # a radius of 10 * ||A||_F covers the gap between 0 and 1
        path = write_segre(tmp_path, [(0.0, [2]), (1.0, [1])])
        assert main(["experiment", path, "--set", "1=0.01",
                     "--tol-cluster", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "perturbed eigenvalue groups 1 and 2" in captured.err

    def test_overflowing_value_exit_2(self, tmp_path, capsys):
        # ||A||_F and the rank cutoffs overflow; one error line, no traceback
        path = write_segre(tmp_path, [(0.0, [3])])
        assert main(["experiment", path, "--set", "1=1e160"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestRecoverCommand:
    def test_zero_perturbation_file(self, tmp_path, capsys):
        poly = str(FIXTURES / "poly_d2n2.json")
        pert = write_matrix(tmp_path, np.zeros((4, 4)))
        out_poly = tmp_path / "rec.json"
        out_s = tmp_path / "s.json"
        assert main(["recover", poly, pert,
                     "--out-poly", str(out_poly),
                     "--out-transform", str(out_s)]) == 0
        out = capsys.readouterr().out
        assert "iterations=0" in out
        transform = files.load_matrix(out_s)
        assert np.array_equal(transform, np.eye(4))
        recovered = files.load_polynomial(out_poly)
        original = files.load_polynomial(poly)
        for got, want in zip(recovered.coefficients, original.coefficients):
            assert np.array_equal(got, want)

    def test_structured_perturbation_direct_read_off(self, tmp_path, capsys):
        poly = str(FIXTURES / "poly_d2n2.json")
        e1 = np.zeros((4, 4), dtype=complex)
        e1[0, 0] = 1e-3
        e1[1, 3] = -2e-3
        pert = write_matrix(tmp_path, e1)
        out_poly = tmp_path / "rec.json"
        assert main(["recover", poly, pert, "--out-poly", str(out_poly),
                     "--out-transform", str(tmp_path / "s.json")]) == 0
        assert "iterations=0" in capsys.readouterr().out
        recovered = files.load_polynomial(out_poly)
        original = files.load_polynomial(poly)
        assert np.allclose(recovered.coefficients[1][0, 0],
                           original.coefficients[1][0, 0] - 1e-3)
        assert np.allclose(recovered.coefficients[0][1, 1],
                           original.coefficients[0][1, 1] + 2e-3)

    def test_seeded_random_perturbation(self, tmp_path, capsys):
        poly = str(FIXTURES / "poly_d2n2.json")
        assert main(["recover", poly, "--random-seed", "42", "--norm", "1e-4",
                     "--out-poly", str(tmp_path / "rec.json"),
                     "--out-transform", str(tmp_path / "s.json")]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue_match" in out and "FAIL" not in out
        residuals = [float(line.split("=")[1]) for line in out.splitlines()
                     if line.startswith("residual[")]
        assert residuals == sorted(residuals, reverse=True)

    def test_iteration_budget_exhausted_exit_1(self, tmp_path, capsys):
        poly = str(FIXTURES / "poly_d2n2.json")
        assert main(["recover", poly, "--random-seed", "1", "--norm", "1e-4",
                     "--max-iter", "0",
                     "--out-poly", str(tmp_path / "rec.json"),
                     "--out-transform", str(tmp_path / "s.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "residual[1]=8.399025e-05",
            "error: unstructured norm 8.399e-05 > 1e-12 after 0 sweeps"]
        assert not (tmp_path / "rec.json").exists()

    def test_loose_tolerance_fails_the_checks(self, tmp_path, capsys):
        # tol 1e-3 accepts the unreduced input, which the similarity check
        # then rejects
        poly = str(FIXTURES / "poly_d2n2.json")
        assert main(["recover", poly, "--random-seed", "1", "--norm", "1e-4",
                     "--tol", "1e-3",
                     "--out-poly", str(tmp_path / "rec.json"),
                     "--out-transform", str(tmp_path / "s.json")]) == 1
        captured = capsys.readouterr()
        assert "iterations=0" in captured.out
        assert "similarity_residual=8.399025e-05 (FAIL)" in captured.out
        assert captured.err == "error: recovery checks failed\n"

    @pytest.mark.parametrize("flag, value", [
        ("--max-iter", "-3"), ("--tol", "nan"), ("--tol", "-1e-12"),
    ])
    def test_invalid_stopping_rule_exit_2(self, tmp_path, capsys, flag, value):
        poly = str(FIXTURES / "poly_d2n2.json")
        out_poly = tmp_path / "rec.json"
        assert main(["recover", poly, "--random-seed", "1", f"{flag}={value}",
                     "--out-poly", str(out_poly),
                     "--out-transform", str(tmp_path / "s.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must")
        assert captured.err.count("\n") == 1
        assert not out_poly.exists()

    def test_order_cap(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(poly_doc(degree=17,
                                            coefficients=[[[0.5, 0.0]]] * 17)))
        assert main(["recover", str(path), "--random-seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix order 17 exceeds cap 16\n"

    def test_overflowing_input_exit_1(self, tmp_path, capsys):
        # C + E overflows before the first sweep; one error line, no traceback
        path = tmp_path / "p.json"
        path.write_text(json.dumps(poly_doc(coefficients=[[[1e308, 0.0]]])))
        pert = write_matrix(tmp_path, [[-1e308]])
        assert main(["recover", str(path), pert,
                     "--out-poly", str(tmp_path / "rec.json"),
                     "--out-transform", str(tmp_path / "s.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the iteration overflowed after 0 sweeps")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "rec.json").exists()

    def test_missing_perturbation_source(self, tmp_path, capsys):
        poly = str(FIXTURES / "poly_d2n2.json")
        assert main(["recover", poly]) == 2
        assert "random-seed" in capsys.readouterr().err


class TestReduceBlockCommand:
    def test_two_by_two_det_trace(self, tmp_path, capsys):
        e = np.array([[3e-3, -2e-3], [1e-3, 4e-3]], dtype=complex)
        path = write_matrix(tmp_path, jordan_block(2, 0.0) + e)
        assert main(["reduce-block", path,
                     "--out-deformed", str(tmp_path / "d.json"),
                     "--out-transform", str(tmp_path / "t.json")]) == 0
        out = capsys.readouterr().out
        assert "charpoly_check" in out and "PASS" in out

    def test_zero_perturbation(self, tmp_path, capsys):
        lam = 1.0
        path = write_matrix(tmp_path, jordan_block(3, lam))
        assert main(["reduce-block", path, "--lambda", "1,0",
                     "--out-deformed", str(tmp_path / "d.json"),
                     "--out-transform", str(tmp_path / "t.json")]) == 0
        capsys.readouterr()
        deformed = files.load_matrix(tmp_path / "d.json")
        assert np.array_equal(deformed, jordan_block(3, lam))

    @pytest.mark.parametrize("option, text, lam", [
        ("--lambda", "-1.0,0.0", -1.0), ("--lambda", "-1e-3", -1e-3),
        ("--lam", "-.5+2j", -0.5 + 2j)])
    def test_negative_lambda_spaced_like_attached(self, tmp_path, capsys,
                                                  option, text, lam):
        e = np.array([[3e-3, -2e-3], [1e-3, 4e-3]], dtype=complex)
        path = write_matrix(tmp_path, jordan_block(2, lam) + e)
        outs = ["--out-deformed", str(tmp_path / "d.json"),
                "--out-transform", str(tmp_path / "t.json")]
        runs = []
        for lam_args in ([option, text], [f"--lambda={text}"]):
            assert main(["reduce-block", path, *lam_args, *outs]) == 0
            runs.append((capsys.readouterr().out,
                         (tmp_path / "d.json").read_bytes(),
                         (tmp_path / "t.json").read_bytes()))
        assert runs[0] == runs[1]
        assert "PASS" in runs[0][0]

    def test_random_small_perturbation(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        e = rng.standard_normal((3, 3)) * 1e-4
        path = write_matrix(tmp_path, jordan_block(3, 0.0) + e)
        assert main(["reduce-block", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_pivot_breakdown_exit_code(self, tmp_path, capsys):
        path = write_matrix(tmp_path, np.zeros((3, 3)))
        assert main(["reduce-block", path]) == 1
        assert "pivot" in capsys.readouterr().err

    def test_overflow_exit_2_before_any_report(self, tmp_path, capsys):
        # the overflow is the error, reported before any report line or file
        path = write_matrix(tmp_path, np.full((3, 3), 1e300))
        assert main(["reduce-block", path,
                     "--out-deformed", str(tmp_path / "d.json"),
                     "--out-transform", str(tmp_path / "t.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: matrix entries overflow the single-block "
                                "reduction: overflow encountered in matmul\n")
        assert not (tmp_path / "d.json").exists() and not (tmp_path / "t.json").exists()

    @staticmethod
    def charpoly_check(tmp_path, capsys, m, *options):
        # exit code and the printed check value of reduce-block on m
        path = write_matrix(tmp_path, np.asarray(m))
        code = main(["reduce-block", path, *options,
                     "--out-deformed", str(tmp_path / "d.json"),
                     "--out-transform", str(tmp_path / "t.json")])
        line = re.search(r"^charpoly_check=(\S+) \((PASS|FAIL)\)$",
                         capsys.readouterr().out, re.M)
        return code, float(line.group(1)), line.group(2)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 100.0, 1e20])
    def test_charpoly_check_passes_off_unit_scale(self, tmp_path, capsys, scale):
        # coefficient j is read relative to ||a - lam*I||_2**(k - j): the
        # absolute error printed 6.3e-07 (FAIL) at scale 100 and 2.6e65 at
        # 1e20 for correct reductions
        m = np.random.default_rng(1).standard_normal((4, 4)) * scale
        code, error, verdict = self.charpoly_check(tmp_path, capsys, m)
        assert (code, verdict) == (0, "PASS")
        assert error < 1e-14

    def test_charpoly_check_of_a_zero_shift(self, tmp_path, capsys):
        # a - lam*I = 0 leaves no scale to read the errors against
        assert self.charpoly_check(tmp_path, capsys, [[2.0]], "--lambda", "2") == (
            0, 0.0, "PASS")

    @pytest.mark.parametrize("scale", [0.1, 1.0, 100.0, 1e20])
    def test_charpoly_check_catches_a_corrupted_coefficient(self, tmp_path, capsys,
                                                            monkeypatch, scale):
        # the constant coefficient off by 1e-8 relative reads 4.26e-10 at
        # every scale; the absolute error passed it at scale 0.1 (5.1e-13)
        reduce = deformation.reduce_single_block

        def corrupted(a, eigenvalue):
            result = reduce(a, eigenvalue)
            result.deformed[-1, 0] *= 1 + 1e-8
            return result

        monkeypatch.setattr(deformation, "reduce_single_block", corrupted)
        m = np.random.default_rng(1).standard_normal((4, 4)) * scale
        code, error, verdict = self.charpoly_check(tmp_path, capsys, m)
        assert (code, verdict) == (1, "FAIL")
        assert 4.2e-10 < error < 4.3e-10


# the literals -0.0 and -2j have real part -0.0; 0.1-0j would add +0.0 to
# the imaginary part, so that value is written out
SIGNED_ZERO_POOL = (-0.0, -2j, complex(0.1, -0.0))


class TestJcfCommand:
    def test_print_and_write(self, tmp_path, capsys):
        # every structure of size <= 6 with 1-3 eigenvalue groups: the rows,
        # printed without building the matrix unless --out asks for it, are
        # those of build_jcf, and --out writes build_jcf
        out = tmp_path / "jcf.json"
        for pool, n in itertools.product([EIGENVALUE_POOL, SIGNED_ZERO_POOL], range(1, 7)):
            for structure in structures_of_size(n, pool):
                path = write_segre(tmp_path, structure.blocks)
                matrix = build_jcf(structure)
                rows = "".join(" ".join(map(_format_complex, row)) + "\n"
                               for row in matrix)
                assert main(["jcf", path]) == 0
                assert capsys.readouterr().out == rows
                assert main(["jcf", path, "--out", str(out)]) == 0
                assert capsys.readouterr().out == rows + f"wrote {out}\n"
                assert np.array_equal(files.load_matrix(out), matrix)

    def test_no_negative_zeros(self, tmp_path, capsys):
        # the literal -2j has real part -0.0, which the segre file keeps
        path = write_segre(tmp_path, [(-1.0, [3]), (-2j, [2])])
        out = tmp_path / "jcf.json"
        assert main(["jcf", path, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # only the matrix rows are scanned: the last line names the output
        # file, and a path such as .../pytest-0/... holds "-0" legitimately
        assert lines[-1] == f"wrote {out}"
        printed = "\n".join(lines[:-1])
        assert "-2j" in printed
        assert re.search(r"-0(?![.\d])", printed) is None
        assert "-0.0" not in out.read_text()

    def test_order_cap(self, tmp_path, capsys):
        # the one subcommand that builds a matrix without an eigensolve
        # meets the same cap before the matrix is built
        path = write_segre(tmp_path, [(0.0, [17])])
        assert main(["jcf", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix order 17 exceeds cap 16\n"

    def test_order_at_cap_prints(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [16])])
        assert main(["jcf", path]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 16 and all(len(row.split()) == 16 for row in rows)


def segre_doc(eigenvalue=(0.0, 0.0), sizes=(2,)):
    return {"kind": "segre",
            "blocks": [{"eigenvalue": eigenvalue, "sizes": sizes}]}


def matrix_doc(rows=1, cols=1, entries=((0.5, 0.0),)):
    return {"kind": "matrix", "rows": rows, "cols": cols, "entries": entries}


def poly_doc(degree=1, size=1, coefficients=(((0.5, 0.0),),)):
    return {"kind": "polynomial", "degree": degree, "size": size,
            "coefficients": coefficients}


MALFORMED = [
    ("jcf", {"kind": "segre", "blocks": 5}, "blocks"),
    ("jcf", {"kind": "segre", "blocks": [5]}, "block 0"),
    ("jcf", segre_doc(sizes=2), "sizes"),
    ("jcf", segre_doc(sizes=[2.7]), "integers"),
    ("jcf", segre_doc(sizes=[True]), "integers"),
    ("jcf", segre_doc(eigenvalue=[float("nan"), 0.0]), "finite"),
    ("reduce-block", matrix_doc(rows=None), "rows"),
    ("reduce-block", matrix_doc(rows=1.9), "rows"),
    ("reduce-block", matrix_doc(cols=1.0), "cols"),
    ("reduce-block", matrix_doc(entries=5), "entries"),
    ("recover", poly_doc(degree=1.5), "degree"),
    ("recover", poly_doc(size=True), "size"),
    ("recover", poly_doc(size=-1), "size"),
    ("recover", poly_doc(coefficients=5), "coefficients"),
    ("recover", poly_doc(coefficients=[5]), "coefficient 0"),
]


def run_document(tmp_path, command, doc):
    # json.dumps writes NaN, which Python's json module also reads back
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    extra = ["--random-seed", "1"] if command == "recover" else []
    return main([command, str(path), *extra])


class TestMalformedDocuments:
    @pytest.mark.parametrize("command, doc, field", MALFORMED)
    def test_wrong_type_exits_2(self, tmp_path, capsys, command, doc, field):
        assert run_document(tmp_path, command, doc) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, doc", [
        ("jcf", segre_doc()), ("reduce-block", matrix_doc()),
        ("recover", poly_doc())])
    def test_well_formed_documents_load(self, tmp_path, capsys, command, doc):
        assert run_document(tmp_path, command, doc) == 0
