import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prchannels import QuantumChannel, fixture, orthogonal_projection_channel, random_generic_frame
from prchannels.frames import _measurement_channel
from prchannels.serialize import channel_to_json, dumps, frame_to_json

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "prchannels.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


@pytest.fixture(scope="module", autouse=True)
def ensure_fixtures(tmp_path_factory):
    if not FIXTURES.exists():
        out = run_cli("fixtures", "--out", str(FIXTURES))
        assert out.returncode == 0
    yield


def test_check_exit_codes():
    assert run_cli("check", str(FIXTURES / "identity2.json")).returncode == 0
    assert run_cli("check", str(FIXTURES / "dephasing.json")).returncode == 1
    res = run_cli("check", str(FIXTURES / "example_2_11.json"))
    assert res.returncode == 1
    assert "RANK2_EXACT" in res.stdout


def test_check_json_output():
    res = run_cli("check", str(FIXTURES / "dephasing.json"), "--output", "json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["verdict"]["status"] == "NOT_PR"
    assert payload["validation"]["choi_rank"] == 2
    assert payload["verdict"]["state_witness"] is not None


def test_check_method_restrictions():
    res = run_cli("check", str(FIXTURES / "example_2_11.json"), "--method", "necessary")
    assert res.returncode == 1
    assert "NECESSARY_VIOLATION" in res.stdout
    res = run_cli("check", str(FIXTURES / "identity2.json"), "--method", "exact")
    assert res.returncode == 0
    res = run_cli("check", str(FIXTURES / "example_2_6.json"), "--method", "exact")
    assert res.returncode == 3  # rank 3 cannot be decided exactly
    res = run_cli("check", str(FIXTURES / "example_2_6.json"), "--method", "oracle", "--restarts", "16")
    assert res.returncode == 1


@pytest.mark.parametrize("k", [-5, 5])
def test_check_method_exact_scaled_example_2_11(tmp_path, k):
    # A real orthogonal copy whose Choi matrix, scaled by 1e5, has a
    # smallest eigenvalue near -2e-6 from rounding.
    ex = fixture("example_2_11")
    U = np.array([[0.6, -0.8], [0.8, 0.6]])
    W = np.array([[0.6, 0.8], [0.8, -0.6]])
    ch = QuantumChannel(2, 2, [10.0**k * U @ A @ W for A in ex.kraus], ex.field)
    path = tmp_path / "scaled.json"
    path.write_text(dumps(channel_to_json(ch)))
    res = run_cli("check", str(path), "--method", "exact", "--output", "json")
    assert res.returncode == 1, res.stderr
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["status"] == "NOT_PR" and verdict["method"] == "RANK2_EXACT"


def test_check_method_necessary_pass_has_its_own_label():
    res = run_cli("check", str(FIXTURES / "identity2.json"), "--method", "necessary", "--output", "json")
    assert res.returncode == 2
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["status"] == "LIKELY_PR" and verdict["method"] == "NECESSARY_PASS"


def test_check_method_oracle_runs_kernel_stage():
    res = run_cli("check", str(FIXTURES / "identity2.json"), "--method", "oracle", "--output", "json")
    assert res.returncode == 0
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["status"] == "PR" and verdict["floor"] == pytest.approx(1.0)


def test_check_method_oracle_reports_residuals(tmp_path):
    # The (1,1,1) pinching has a six-dimensional Hermitian kernel on Herm(3)
    # whose first two spanning matrices have rank 2 throughout their span:
    # the kernel cubic vanishes, and the first spanning matrix is the witness.
    path = tmp_path / "pinching.json"
    path.write_text(dumps(channel_to_json(orthogonal_projection_channel([1, 1, 1]).channel)))
    res = run_cli("check", str(path), "--method", "oracle", "--restarts", "16", "--output", "json")
    assert res.returncode == 1
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["status"] == "NOT_PR" and verdict["method"] == "HERMITIAN_KERNEL"
    assert verdict["residuals"]["tensor"] <= 1e-7
    # Six vectors in C^4 leave a ten-dimensional kernel on Herm(4), past
    # every exact step: the witness search on that kernel finds the witness.
    path = tmp_path / "short_frame.json"
    ch = _measurement_channel(random_generic_frame(4, 6, "complex", seed=1))
    path.write_text(dumps(channel_to_json(ch)))
    res = run_cli("check", str(path), "--method", "oracle", "--restarts", "16", "--output", "json")
    assert res.returncode == 1
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["method"] == "ORACLE_WITNESS"
    assert len(verdict["residuals"]) > 0
    assert verdict["residuals"]["tensor"] <= 1e-7
    # example_2_6 has a one-dimensional kernel, and dephasing a two-dimensional
    # one on C^2: the kernel stage settles both.
    for name in ("example_2_6", "dephasing"):
        res = run_cli("check", str(FIXTURES / f"{name}.json"), "--method", "oracle", "--output", "json")
        assert res.returncode == 1
        verdict = json.loads(res.stdout)["verdict"]
        assert verdict["status"] == "NOT_PR" and verdict["method"] == "HERMITIAN_KERNEL", name


def test_check_method_oracle_settles_a_real_pinching_by_the_complement_property(tmp_path):
    # On the real field the (1,1,1) pinching's Kraus operators have rank one,
    # so the kernel stage reads the rank-one points off them, and their
    # failing bipartition gives the pair ahead of the witness search.
    ch = orthogonal_projection_channel([1, 1, 1]).channel
    path = tmp_path / "pinching_real.json"
    path.write_text(dumps(channel_to_json(QuantumChannel(ch.dim_in, ch.dim_out, ch.kraus, "real"))))
    res = run_cli("check", str(path), "--method", "oracle", "--output", "json")
    assert res.returncode == 1
    verdict = json.loads(res.stdout)["verdict"]
    assert verdict["status"] == "NOT_PR" and verdict["method"] == "COMPLEMENT_PROPERTY"
    assert verdict["residuals"]["tensor"] <= 1e-7


def test_check_labels_a_proved_floor():
    # The kernel stage proves PR with floor sigma_min; no oracle runs.
    res = run_cli("check", str(FIXTURES / "identity2.json"), "--method", "oracle")
    assert res.returncode == 0
    assert "verdict: PR (method HERMITIAN_KERNEL)" in res.stdout
    assert "proved floor: 1" in res.stdout
    assert "oracle floor" not in res.stdout


def _frame_channel_file(tmp_path, n, N, field="real"):
    path = tmp_path / "frame_channel.json"
    path.write_text(dumps(channel_to_json(_measurement_channel(random_generic_frame(n, N, field, seed=1)))))
    return path


def test_check_labels_an_oracle_floor(tmp_path):
    # A complex frame of 16 vectors in C^5: its measurement channel has a
    # nine-dimensional kernel on Herm(5), and no Macaulay matrix of it or of
    # a compression fits under the cap, so only the oracle speaks.
    res = run_cli("check", str(_frame_channel_file(tmp_path, 5, 16, "complex")))
    assert res.returncode == 2
    assert "verdict: LIKELY_PR (method ORACLE_NO_WITNESS)" in res.stdout
    assert "oracle floor: " in res.stdout
    assert "proved floor" not in res.stdout


def test_check_proves_a_real_frame_channel_by_the_complement_property(tmp_path):
    # A real frame of 9 vectors in R^5: its measurement channel has a
    # six-dimensional kernel on Sym(5).  The nine rank-one points of the
    # kernel's complement have the complement property: PR, with no floor.
    res = run_cli("check", str(_frame_channel_file(tmp_path, 5, 9)))
    assert res.returncode == 0
    assert "verdict: PR (method COMPLEMENT_PROPERTY)" in res.stdout
    assert "floor" not in res.stdout


def test_check_proves_a_three_dimensional_kernel(tmp_path):
    # A complex frame of 13 vectors in C^4 has a three-dimensional kernel on
    # Herm(4), below the codimension 4 of the rank-2 matrices: the Macaulay
    # matrix of its 3x3 minors has full column rank at degree 3, which
    # proves PR before the witness search runs.  The report names the degree
    # and the sigma ratio, and gives no floor.
    res = run_cli("check", str(_frame_channel_file(tmp_path, 4, 13, "complex")))
    assert res.returncode == 0
    assert "verdict: PR (method MACAULAY)" in res.stdout
    assert "Macaulay degree: 3, sigma ratio: " in res.stdout
    assert "floor" not in res.stdout
    res = run_cli("check", str(_frame_channel_file(tmp_path, 4, 13, "complex")), "--output", "json")
    cert = json.loads(res.stdout)["verdict"]["certificate"]
    assert cert["kind"] == "macaulay" and cert["degree"] == 3 and 1e-10 < cert["sigma_ratio"] <= 1.0


def test_malformed_json_is_input_error():
    bad = FIXTURES / ".." / "fixtures" / "does_not_exist.json"
    assert run_cli("check", str(bad)).returncode == 3

    res = run_cli("frame", str(FIXTURES / "dephasing.json"))
    assert res.returncode == 3  # channel schema is not a frame schema


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim_in": 2,\n  "oops"')
    res = run_cli("check", str(path))
    assert res.returncode == 3
    assert "line 2" in res.stderr


def test_frame_subcommand():
    res = run_cli("frame", str(FIXTURES / "f3_real.json"))
    assert res.returncode == 0
    assert "complement property: True" in res.stdout
    assert "phase retrievable: YES" in res.stdout


def test_frame_too_long_for_the_bipartition_cap_is_an_input_error(tmp_path):
    # 25 real vectors in R^3 pass the bipartition cap of 24.
    path = tmp_path / "long.json"
    path.write_text(dumps(frame_to_json(random_generic_frame(3, 25, "real", seed=0))))
    res = run_cli("frame", str(path))
    assert res.returncode == 3
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert "bipartition" in res.stderr


def test_spectrum_subcommand():
    res = run_cli("spectrum", str(FIXTURES / "example_2_11.json"), "--j", "1")
    assert res.returncode == 1
    assert "VIOLATION" in res.stdout
    payload = run_cli(
        "spectrum", str(FIXTURES / "example_2_11.json"), "--j", "1", "--output", "json"
    )
    data = json.loads(payload.stdout)
    assert len(data["points"]) == 2
    assert any(p["violation"] for p in data["pairs"])


def test_construct_projection(tmp_path):
    out = tmp_path / "proj"
    res = run_cli("construct", "--recipe", "projection", "--n", "2", "--dims", "1,1", "--out", str(out))
    assert res.returncode == 0
    for name in ("channel.json", "povm.json", "verdict.json"):
        assert (out / name).exists()
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["claimed_status"] == "NOT_PR"
    assert verdict["verdict"]["status"] == "NOT_PR"


def test_construct_from_observables(tmp_path):
    out = tmp_path / "fobs"
    res = run_cli(
        "construct",
        "--recipe",
        "from-observables",
        "--frame",
        str(FIXTURES / "parseval3.json"),
        "--r",
        "2",
        "--out",
        str(out),
    )
    assert res.returncode == 0
    channel = json.loads((out / "channel.json").read_text())
    assert channel["dim_in"] == 2


def test_construct_rank2_and_rankr(tmp_path):
    res = run_cli("construct", "--recipe", "rank2", "--n", "3", "--seed", "2", "--out", str(tmp_path / "r2"))
    assert res.returncode == 0
    verdict = json.loads((tmp_path / "r2" / "verdict.json").read_text())
    assert verdict["claimed_status"] == "PR"
    povm = json.loads((tmp_path / "r2" / "povm.json").read_text())
    assert povm["rank_one_count"] == 5  # minimal real count in dimension 3

    res = run_cli("construct", "--recipe", "rankr", "--n", "2", "--r", "3", "--out", str(tmp_path / "rr"))
    assert res.returncode == 0


def test_construct_precondition_errors(tmp_path):
    res = run_cli("construct", "--recipe", "rankr", "--n", "2", "--r", "5", "--out", str(tmp_path / "x"))
    assert res.returncode == 3
    res = run_cli(
        "construct",
        "--recipe",
        "from-observables",
        "--frame",
        str(FIXTURES / "f3_real.json"),
        "--r",
        "2",
        "--out",
        str(tmp_path / "y"),
    )
    assert res.returncode == 3
    assert "SpanConditionFailed" in res.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8", "0"])
def test_a_non_finite_or_non_positive_tolerance_is_an_input_error(tmp_path, capsys, tol):
    from prchannels import cli

    calls = [
        ["check", str(FIXTURES / "example_2_6.json")],
        ["frame", str(FIXTURES / "f3_real.json")],
        ["spectrum", str(FIXTURES / "example_2_11.json"), "--j", "1"],
        ["construct", "--recipe", "projection", "--dims", "1,1", "--out", str(tmp_path / "x")],
    ]
    for argv in calls:
        assert cli.main([*argv, f"--tol={tol}"]) == 3, argv
        assert "residual_abs must be finite and strictly positive" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_check_with_a_nan_tolerance_exits_on_input():
    # NaN compares false with everything, so a bare ``<= 0`` test would let it
    # through, and example_2_6, which is NOT_PR, would come out LIKELY_PR.
    res = run_cli("check", str(FIXTURES / "example_2_6.json"), "--tol", "nan")
    assert res.returncode == 3 and res.stdout == ""
    assert "error: residual_abs must be finite and strictly positive" in res.stderr


def test_a_non_positive_restart_count_is_an_input_error(capsys):
    # Outside the input guard the error would escape as a traceback with exit 1, the code of NOT_PR.
    from prchannels import cli

    for argv in (["check", str(FIXTURES / "identity2.json")], ["frame", str(FIXTURES / "f3_real.json")]):
        assert cli.main([*argv, "--restarts", "0"]) == 3, argv
        assert "restarts must be a positive integer, got 0" in capsys.readouterr().err


def test_shipped_fixtures_reverify():
    expected = {
        "identity2.json": 0,
        "dephasing.json": 1,
        "example_2_11.json": 1,
        "example_2_6.json": 1,
    }
    for name, code in expected.items():
        res = run_cli("check", str(FIXTURES / name), "--seed", "0")
        assert res.returncode == code, f"{name}: {res.stdout}{res.stderr}"


def test_byte_identical_reports():
    args = ("check", str(FIXTURES / "example_2_6.json"), "--output", "json", "--seed", "7")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    args = ("spectrum", str(FIXTURES / "example_2_11.json"), "--j", "1", "--output", "json")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_one_parser_serves_every_call_without_carrying_state(capsys):
    from prchannels import cli

    parser = cli._parser()
    calls = [
        ["check", str(FIXTURES / "dephasing.json"), "--seed", "7", "--output", "json", "--method", "necessary"],
        ["check", str(FIXTURES / "dephasing.json")],
        ["construct", "--recipe", "projection", "--dims", "1,1", "--out", "x", "--tol", "1e-6"],
        ["construct", "--recipe", "rank2", "--n", "3", "--out", "x"],
        ["frame", str(FIXTURES / "f3_real.json"), "--restarts", "4"],
        ["frame", str(FIXTURES / "f3_real.json")],
        ["fixtures"],
    ]
    for argv in calls:
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "--method", "nonsense"])
        assert vars(parser.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli._parser() is parser
    # In-process calls print what a fresh process prints.
    for argv in (calls[0], calls[1], calls[5]):
        code = cli.main(argv)
        res = run_cli(*argv)
        assert (code, capsys.readouterr().out) == (res.returncode, res.stdout)
