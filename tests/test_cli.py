import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import versal
from versal import SegreStructure, build_jcf, files
from versal.cli import main
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


def test_import_pulls_in_no_scipy():
    # every versal command pays its imports at start-up, and scipy.linalg
    # alone would be most of that time
    src = str(Path(versal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, versal, versal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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

    def test_bad_parameter_index(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2])])
        assert main(["experiment", path, "--set", "9=0.01"]) == 2
        assert "outside" in capsys.readouterr().err


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


class TestJcfCommand:
    def test_print_and_write(self, tmp_path, capsys):
        path = write_segre(tmp_path, [(0.0, [2]), (1.0, [1])])
        out = tmp_path / "jcf.json"
        assert main(["jcf", path, "--out", str(out)]) == 0
        capsys.readouterr()
        matrix = files.load_matrix(out)
        assert np.array_equal(matrix,
                              build_jcf(SegreStructure([(0.0, [2]), (1.0, [1])])))

    def test_no_negative_zeros(self, tmp_path, capsys):
        # the literal -2j has real part -0.0, which the segre file keeps
        path = write_segre(tmp_path, [(-1.0, [3]), (-2j, [2])])
        out = tmp_path / "jcf.json"
        assert main(["jcf", path, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "-2j" in printed
        assert re.search(r"-0(?![.\d])", printed) is None
        assert "-0.0" not in out.read_text()


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
