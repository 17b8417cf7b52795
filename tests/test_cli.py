import json
import subprocess
import sys

import pytest

from skewbidisc import jsonio
from skewbidisc.cli import run
from skewbidisc.colligation import Colligation, SubspaceSplit, random_colligation
from skewbidisc.domains import in_rG


@pytest.fixture
def colligation_file(tmp_path):
    c = random_colligation(SubspaceSplit(1, 2), 0.5, seed=0)
    path = tmp_path / "colligation.json"
    jsonio.dump_json(jsonio.colligation_to_json(c), path)
    return path


@pytest.fixture
def spec_file(tmp_path, lambda12_spec):
    path = tmp_path / "spec.json"
    jsonio.dump_json(jsonio.model_spec_to_json(lambda12_spec()), path)
    return path


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_command(capsys, colligation_file):
    code, report = _run_json(capsys, ["validate", "--input", str(colligation_file)])
    assert code == 0
    assert report["command"] == "validate"
    assert report["passed"] is True
    names = [chk[0] for chk in report["checks"]]
    assert "l_unitary_left" in names and "d_contraction" in names


def test_validate_fails_on_defective_colligation(capsys, tmp_path):
    c = random_colligation(SubspaceSplit(1, 1), 0.5, seed=1)
    bad = Colligation(
        r=c.r, split=c.split, a=c.a, beta=c.beta, gamma=c.gamma, D=1.2 * c.D, U=c.U
    )
    path = tmp_path / "bad.json"
    jsonio.dump_json(jsonio.colligation_to_json(bad), path)
    code, report = _run_json(capsys, ["validate", "--input", str(path)])
    assert code == 1
    assert report["passed"] is False
    assert report["max_residual"] > 1e-3


def test_certify_command_and_determinism(capsys, colligation_file):
    argv = ["certify", "--input", str(colligation_file), "--samples", "60", "--seed", "5"]
    code1, rep1 = _run_json(capsys, argv)
    code2, rep2 = _run_json(capsys, argv)
    assert code1 == code2 == 0
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    assert rep1 == rep2
    names = [chk[0] for chk in rep1["checks"]]
    assert names == ["schur_bound", "diag_model_residual", "pair_model_residual"]
    assert rep1["checks"][0][2] == 1e-12  # certify's own --tol default


def test_synthesize_command_writes_colligation(capsys, spec_file, tmp_path):
    out_path = tmp_path / "extracted.json"
    code, report = _run_json(
        capsys,
        ["synthesize", "--input", str(spec_file), "--output", str(out_path)],
    )
    assert code == 0
    names = [chk[0] for chk in report["checks"]]
    assert "kernel_z_identity" in names and "roundtrip_f" in names
    assert report["sample_count"] == 4 * 2 + 4  # synthesize's own points, dim 2
    # The extracted colligation must itself pass validation end to end.
    code2, report2 = _run_json(capsys, ["validate", "--input", str(out_path), "--tol", "1e-8"])
    assert code2 == 0, report2


def test_synthesize_rejects_asymmetric_spec(capsys, tmp_path, lambda12_spec):
    spec = lambda12_spec()
    obj = jsonio.model_spec_to_json(spec)
    obj["F"] = [{"j": 1, "k": 0, "coeff": {"re": 1.0, "im": 0.0}}]  # F = lam1
    path = tmp_path / "asym.json"
    jsonio.dump_json(obj, path)
    code, report = _run_json(capsys, ["synthesize", "--input", str(path)])
    assert code == 1
    assert report["checks"][0][0] == "sigma_symmetry"
    assert report["checks"][0][1] > 0.1


def test_kernel_check_command(capsys):
    code, report = _run_json(
        capsys, ["kernel-check", "--samples", "30", "--dims", "1,2", "--r", "0.25"]
    )
    assert code == 0
    names = [chk[0] for chk in report["checks"]]
    assert names == ["factorization", "substitution", "hermitian_symmetry"]
    assert report["max_residual"] < 1e-10
    assert all(chk[2] == 1e-10 for chk in report["checks"])


@pytest.mark.parametrize("samples, pairs", [(0, 0), (1, 3), (30, 30), (301, 300)])
def test_kernel_check_reports_the_pairs_it_checks(capsys, samples, pairs):
    # Each of the three unitaries gets samples // 3 pairs, at least one.
    code, report = _run_json(
        capsys, ["kernel-check", "--samples", str(samples), "--dims", "1,2"]
    )
    assert code == 0
    assert report["sample_count"] == pairs


@pytest.mark.parametrize("name", ["upsilon", "magic", "blend", "rank-one"])
def test_catalog_command(capsys, name):
    code, report = _run_json(
        capsys, ["catalog", "--name", name, "--samples", "50", "--seed", "2"]
    )
    assert code == 0, report
    names = [chk[0] for chk in report["checks"]]
    assert "crosscheck_gap" in names
    if name == "upsilon":
        assert "upsilon_identity" in names


@pytest.mark.parametrize("name", ["upsilon", "rank-one"])
def test_catalog_with_no_samples_passes_vacuously(capsys, name):
    code, report = _run_json(capsys, ["catalog", "--name", name, "--samples", "0"])
    assert code == 0, report
    assert report["passed"] is True and report["max_residual"] == 0.0


def test_sample_command_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "points.json"
    code, report = _run_json(
        capsys,
        ["sample", "--samples", "40", "--r", "0.9", "--output", str(out_path)],
    )
    assert code == 0
    assert report["sample_count"] == 40
    pts = jsonio.points_from_json(jsonio.load_json(out_path))
    assert len(pts) == 40
    assert all(in_rG(p, 0.9, margin=0.0) for p in pts)


def test_exit_code_2_on_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run(["validate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_code_2_on_config_errors(capsys, colligation_file):
    assert run(["catalog", "--name", "no-such-entry"]) == 2
    assert run(["certify", "--input", str(colligation_file), "--r", "1.5"]) == 2
    assert run(["kernel-check", "--dims", "2"]) == 2
    assert run(["validate"]) == 2  # missing --input
    assert run(["sample", "--seed", "-1"]) == 2
    assert run(["catalog", "--name", "rank-one", "--seed", "-1"]) == 2
    assert run(["kernel-check", "--seed", "-1"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "skewbidisc", "sample", "--samples", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "sample"
    assert report["passed"] is True
