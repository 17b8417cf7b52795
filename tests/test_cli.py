import json
import subprocess
import sys

import numpy as np
import pytest

from skewbidisc import domains, jsonio
from skewbidisc.cli import run
from skewbidisc.colligation import Colligation, SubspaceSplit, random_colligation
from skewbidisc.domains import in_rG
from skewbidisc.synthesis import BidiscModelSpec, PolyVectorMap, ScalarPoly


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


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [8, 10, 12])
def test_synthesize_meets_its_thresholds_up_to_dim_24(capsys, tmp_path, k, seed):
    # The (l1 l2)^k spec: u1 = [(l1 l2)^j], u2 = [l1 (l1 l2)^j] for j < k and
    # F = (l1 l2)^k.  With x = conj(m1) l1, y = conj(m2) l2 and S = sum (xy)^j,
    # (1 - x) S + (1 - y) x S = 1 - (xy)^k, the two-disc model identity.  The
    # sampled families grow worse conditioned with the dimension 2k, and the
    # extraction must not lose accuracy with them.
    eye = np.eye(k, dtype=complex)
    spec = BidiscModelSpec(
        r=0.5,
        d1=k,
        d2=k,
        u1=PolyVectorMap(dim=k, terms=tuple(((j, j), eye[j]) for j in range(k))),
        u2=PolyVectorMap(dim=k, terms=tuple(((j + 1, j), eye[j]) for j in range(k))),
        F=ScalarPoly(terms=(((k, k), 1.0 + 0.0j),)),
    )
    path = tmp_path / "spec.json"
    jsonio.dump_json(jsonio.model_spec_to_json(spec), path)
    code, report = _run_json(capsys, ["synthesize", "--input", str(path), "--seed", str(seed)])
    assert code == 0, report
    residuals = {name: residual for name, residual, _ in report["checks"]}
    assert residuals["isometry_agreement"] <= 1e-13
    assert residuals["roundtrip_f"] <= 1e-12


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
    pts = [tuple(complex(z["re"], z["im"]) for z in pair) for pair in jsonio.load_json(out_path)]
    assert len(pts) == 40
    assert all(in_rG(p, 0.9) for p in pts)


def test_sample_counts_every_point_outside(capsys, monkeypatch):
    from skewbidisc import cli

    inside = domains.sample_rG(5, 0.5, seed=0)
    pts = np.vstack([inside[:2], [(0.99, 0.0)], inside[2:], [(0.0, 0.3)]])  # two outside r.G
    monkeypatch.setattr(cli, "sample_rG", lambda n, r, seed: pts)
    code, report = _run_json(capsys, ["sample", "--samples", "7"])
    assert code == 1
    assert report["checks"] == [["membership", 2.0, 0.0]]


def test_synthesize_exits_2_on_an_exponent_too_large(capsys, spec_file, tmp_path):
    obj = json.loads(spec_file.read_text())
    obj["F"][0]["j"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert run(["synthesize", "--input", str(path)]) == 2
    assert "int64" in capsys.readouterr().err


def test_exit_code_2_on_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run(["validate", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_exit_code_2_on_config_errors(capsys, colligation_file):
    assert run(["catalog", "--name", "no-such-entry"]) == 2
    assert run(["kernel-check", "--dims", "2"]) == 2
    assert run(["validate"]) == 2  # missing --input
    assert run(["sample", "--seed", "-1"]) == 2
    assert run(["catalog", "--name", "rank-one", "--seed", "-1"]) == 2
    assert run(["kernel-check", "--seed", "-1"]) == 2
    capsys.readouterr()


def _assert_refused(capsys, argv, *texts):
    """``argv`` exits 2, prints no report and names each of ``texts`` on stderr."""
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, ""), captured.err
    assert [t for t in texts if t not in captured.err] == [], captured.err


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("d1", ["0", "n", "n + 1"])
def test_a_file_whose_split_has_an_empty_side_is_a_parse_error(capsys, tmp_path, colligation_file,
                                                                command, d1):
    # With blocks on C^n, d1 = 0 or n leaves a side empty and d1 = n + 1 a negative one.
    obj = json.loads(colligation_file.read_text())
    n = len(obj["beta"])
    d1 = {"0": 0, "n": n, "n + 1": n + 1}[d1]
    path = tmp_path / "empty-side.json"
    path.write_text(json.dumps({**obj, "d1": d1}))
    _assert_refused(capsys, [command, "--input", str(path)],
                    f"colligation: split ({d1}, {n - d1}) must have both parts >= 1")


@pytest.mark.parametrize("dims", ["0,2", "2,0"])
def test_kernel_check_refuses_dims_with_an_empty_side(capsys, dims):
    d1, d2 = dims.split(",")
    _assert_refused(capsys, ["kernel-check", "--dims", dims, "--samples", "3"],
                    f"split ({d1}, {d2}) must have both parts >= 1")


@pytest.mark.parametrize("r", ["0", "1", "1.5", "nan"])
@pytest.mark.parametrize("argv", [["kernel-check", "--dims", "1,1"], ["catalog", "--name", "magic"], ["sample"]],
                         ids=["kernel-check", "catalog", "sample"])
def test_commands_refuse_an_r_outside_the_unit_interval(capsys, argv, r):
    _assert_refused(capsys, argv + ["--r", r, "--samples", "3"], "0 < r < 1")


@pytest.mark.parametrize("command", ["validate", "certify"])
@pytest.mark.parametrize("block, cut, text", [
    pytest.param("gamma", lambda v: v[:-1], "gamma (2,)", id="short-gamma"),
    pytest.param("U", lambda m: [row[:-1] for row in m], "U must be square, got shape (3, 2)", id="non-square-U"),
])
def test_a_misshapen_block_is_a_parse_error(capsys, tmp_path, colligation_file, command, block, cut, text):
    obj = json.loads(colligation_file.read_text())
    path = tmp_path / "misshapen.json"
    path.write_text(json.dumps({**obj, block: cut(obj[block])}))
    _assert_refused(capsys, [command, "--input", str(path)], "colligation: ", text)


@pytest.mark.parametrize("tol", ["inf", "1e309", "nan"])
def test_commands_refuse_a_non_finite_tol(capsys, tmp_path, spec_file, tol):
    # |f| = 5 everywhere: an infinite --tol would pass certify's schur_bound.
    c = random_colligation(SubspaceSplit(1, 1), 0.5, seed=2)
    path = tmp_path / "five.json"
    jsonio.dump_json(jsonio.colligation_to_json(
        Colligation(r=c.r, split=c.split, a=5.0, beta=0 * c.beta, gamma=c.gamma, D=c.D, U=c.U)
    ), path)
    for argv in (
        ["validate", "--input", str(path)],
        ["certify", "--input", str(path), "--samples", "5"],
        ["synthesize", "--input", str(spec_file)],
        ["kernel-check", "--dims", "1,1", "--samples", "3"],
        ["catalog", "--name", "magic", "--samples", "3"],
    ):
        assert run(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be positive and finite" in captured.err


@pytest.mark.parametrize("command", ["sample", "synthesize"])
def test_unwritable_output_exits_2_naming_the_path(capsys, spec_file, tmp_path, command):
    target = tmp_path / "missing" / "out.json"
    argv = {
        "sample": ["sample", "--samples", "3"],
        "synthesize": ["synthesize", "--input", str(spec_file)],
    }[command]
    assert run(argv + ["--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"cannot write {target}" in captured.err
    assert not target.parent.exists()


def test_commands_refuse_flags_they_do_not_read(capsys, colligation_file):
    for argv in (
        ["validate", "--input", str(colligation_file), "--samples", "5"],
        ["synthesize", "--input", str(colligation_file), "--r", "0.5"],
        ["certify", "--input", str(colligation_file), "--r", "1.5"],
        ["sample", "--tol", "1e-3"],
        ["catalog", "--name", "magic", "--dims", "1,1"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_accepts_the_benchmark_campaigns_and_is_built_once(capsys, monkeypatch):
    from skewbidisc import cli

    argvs = (
        ["certify", "--input", "c.json", "--samples", "300", "--seed", "7"],
        ["kernel-check", "--r", "0.5", "--dims", "8,8", "--samples", "300", "--seed", "7"],
        ["synthesize", "--input", "s.json", "--output", "o.json", "--seed", "7"],
        ["catalog", "--name", "blend", "--samples", "1000", "--seed", "7"],
    )
    for argv in argvs:
        args = vars(cli.build_parser().parse_args(argv))
        assert args["command"] == argv[0] and args["seed"] == 7
    assert cli.build_parser().parse_args(["certify"]).tol == 1e-12
    assert not hasattr(cli.build_parser().parse_args(["sample"]), "tol")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert [run(["sample", "--samples", "3"]) for _ in range(3)] == [0, 0, 0]
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    capsys.readouterr()


def test_exit_code_2_on_an_integer_too_large_for_a_float(capsys, tmp_path, colligation_file):
    obj = json.loads(colligation_file.read_text())
    obj["a"]["re"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert run(["validate", "--input", str(path)]) == 2
    assert "colligation.a.re" in capsys.readouterr().err


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
