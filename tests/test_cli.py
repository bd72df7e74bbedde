import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from epi_lab import channels as ch
from epi_lab import cli
from epi_lab import fock as fk
from epi_lab import gaussian as ga
from epi_lab import phase_space as ps
from epi_lab.errors import UsageError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_state_specs(self):
        for spec in ("vacuum", "fock:1", "thermal:1.0", "coherent:1+0.5j", "cat:2.0", "random:3"):
            st, _ = cli.parse_state_spec(spec, cutoff=30, seed=1)
            assert st.trace() == pytest.approx(1.0, abs=1e-10)

    def test_unknown_constructor(self):
        with pytest.raises(UsageError):
            cli.parse_state_spec("wigglium:2", cutoff=24, seed=1)

    def test_noise_gauss_with_center(self):
        f = cli.parse_noise_spec("gauss:0.4@0.5,-0.25")
        mean, _ = ps.moments(f)
        assert mean == pytest.approx([0.5, -0.25], abs=1e-9)

    def test_bad_noise(self):
        with pytest.raises(UsageError):
            cli.parse_noise_spec("gauss:lots")
        with pytest.raises(UsageError):
            cli.parse_noise_spec("white:0.4")

    def test_register_spec(self):
        args = cli.parse_config(["epi", "--cutoff", "24"])
        inst = cli.parse_instance("register:p=0.3,fock:1|vacuum", "gauss:0.3|gauss:0.5", args)
        reg = inst.a()
        assert list(reg.probs) == pytest.approx([0.3, 0.7])
        assert reg.parts[0].mode_dims == (24,)
        assert list(inst.r().probs) == list(reg.probs)

    def test_register_noise_keeps_its_centers_and_grids(self):
        args = cli.parse_config(["epi", "--cutoff", "24"])
        inst = cli.parse_instance("register:p=0.5,fock:1|vacuum", "gauss:0.3@0.37,0.11|gauss:0.8", args)
        first, second = inst.r().parts
        assert first.gaussian == (0.3, (0.37, 0.11))
        assert ps.moments(first)[0] == pytest.approx([0.37, 0.11], abs=1e-9)
        # each label on its own default grid; --grid-spacing sets all of them
        assert (first.spacing, second.spacing) == (ps.resolving_spacing(0.3), ps.resolving_spacing(0.8))
        args = cli.parse_config(["epi", "--cutoff", "24", "--grid-spacing", "0.05"])
        inst = cli.parse_instance("register:p=0.5,fock:1|vacuum", "gauss:0.3@0.37,0.11|gauss:0.8", args)
        assert [f.spacing for f in inst.r().parts] == [0.05, 0.05]

    def test_register_bad_probs(self):
        args = cli.parse_config(["epi"])
        with pytest.raises(UsageError):
            cli.parse_instance("register:p=0.3|0.3,fock:1|vacuum|cat:1", "gauss:0.3", args)


class TestConfigFile:
    def test_file_then_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\nstate = thermal:1.0\ncutoff = 30\n")
        args = cli.parse_config(["epi", "--config", str(conf)])
        assert args.state == "thermal:1.0" and args.cutoff == 30
        args = cli.parse_config(["epi", "--config", str(conf), "--state", "vacuum"])
        assert args.state == "vacuum"

    def test_state_default_depends_on_the_command(self, tmp_path):
        # the beam splitter takes one-mode inputs, so it cannot default to a TMSV
        assert cli.parse_config(["bs-epi"]).state == "thermal:1.0"
        assert cli.parse_config(["epi"]).state == "tmsv:0.66"
        conf = tmp_path / "run.conf"
        conf.write_text("state = fock:1\n")
        assert cli.parse_config(["bs-epi", "--config", str(conf)]).state == "fock:1"
        assert cli.parse_config(["bs-epi", "--state", "vacuum"]).state == "vacuum"

    def test_malformed_line_names_offender(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("state thermal:1.0\n")
        with pytest.raises(UsageError, match="run.conf:1"):
            cli.parse_config(["epi", "--config", str(conf)])

    def test_unknown_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("wiggle = 3\n")
        with pytest.raises(UsageError, match="wiggle"):
            cli.parse_config(["epi", "--config", str(conf)])


class TestExitCodes:
    @pytest.mark.parametrize("cmd", cli.COMMANDS)
    def test_every_command_runs_on_its_defaults(self, cmd):
        code, _, err = run_cli([cmd])
        assert code == 0, err

    def test_capacity_ok(self):
        code, out, _ = run_cli(["capacity", "--E", "1", "--noise", "gauss:0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["check_name"] == "capacity-bound"

    def test_usage_error_is_2(self, tmp_path):
        (tmp_path / "plain").write_text("")
        for argv in (["epi", "--state", "wigglium:2"],
                     ["epi", "--noise", "gauss:lots"],
                     ["stam", "--noise", "gauss:"],
                     ["epi", "--state", "tmsv:abc"],
                     ["qou", "--state", "tmsv:x", "--lambda", "0.5"],
                     ["tightness", "--k-list", ","],
                     ["qou", "--state", "fock:1", "--t-list", ","],
                     ["scaling", "--state", "fock:1", "--noise", "gauss:0.5", "--t-list", ","],
                     ["capacity", "--noise", "gauss:0.5@1"],
                     ["capacity", "--noise", "gauss:0.5@1,2,3"],
                     # non-finite numbers
                     ["epi", "--state", "tmsv:nan", "--cutoff", "20"],
                     ["epi", "--state", "coherent:nan", "--cutoff", "20"],
                     ["epi", "--state", "cat:inf", "--cutoff", "20"],
                     ["epi", "--state", "fock:1", "--noise", "gauss:0.5@inf,0", "--cutoff", "20"],
                     ["capacity", "--noise", "gauss:nan"],
                     ["tightness", "--k-list", "inf"],
                     ["tightness", "--a", "nan", "--k-list", "2,4"],
                     ["scaling", "--state", "fock:1", "--noise", "gauss:0.5", "--t-list", "nan"],
                     ["epi", "--grid-spacing", "nan", "--cutoff", "20"],
                     ["capacity", "--E", "nan"],
                     # integers out of range, checked before anything is built
                     ["epi", "--cutoff", "-3"],
                     ["epi", "--cutoff", "0"],
                     ["epi", "--cutoff", "129"],
                     ["suite", "--seed", "-1"],
                     # a report path that cannot be written
                     ["capacity", "--out", str(tmp_path / "plain" / "x.json")]):
            code, _, err = run_cli(argv)
            assert code == 2 and "usage error" in err, argv

    @pytest.mark.parametrize("argv,message", [
        (["epi", "--cutoff", "abc"], "expected an integer"),
        (["epi", "--state", "register:fock:1|cat:2"], "register spec must look like"),
        (["epi", "--state", "register:p=0.5,fock:1|cat:2", "--noise", "gauss:0.3|gauss:0.5|gauss:0.7"],
         "need one noise entry per register label"),
    ])
    def test_usage_error_names_the_fault(self, argv, message):
        code, _, err = run_cli(argv)
        assert code == 2 and f"usage error: {message}" in err, err

    @pytest.mark.parametrize("argv", [
        ["epi", "--state", "tmsv:0.3", "--noise", "gauss:0"],
        ["linear-epi", "--state", "tmsv:0.3", "--noise", "gauss:0"],
        ["epi", "--state", "coherent:1+1j", "--noise", "gauss:0@0.2,0"],
        ["epi", "--state", "fock:1", "--noise", "gauss:0"],
        ["epi", "--state", "vacuum", "--noise", "gauss:-1"],
        ["epi", "--state", "register:p=0.5,fock:1|cat:2", "--noise", "gauss:0.3|gauss:0"],
        ["capacity", "--noise", "gauss:-0.5"],
        ["classical-epi", "--noise-b", "gauss:0"],
    ])
    def test_nonpositive_gaussian_noise_is_one_usage_error(self, argv):
        # refused where the spec is parsed, before a state, a Gaussian twin or a grid is built
        code, _, err = run_cli(argv + ["--cutoff", "20"])
        assert code == 2 and "usage error: bad noise spec" in err and "must be positive" in err, err

    def test_unreadable_input_paths_are_2(self, tmp_path):
        missing = tmp_path / "missing"
        for argv, message in ((["capacity", "--config", str(missing)], "cannot read config file"),
                              (["capacity", "--noise", f"file:{missing}"], "cannot read noise file")):
            code, _, err = run_cli(argv)
            assert code == 2 and f"usage error: {message}" in err, argv

    def test_grid_extent_is_not_a_flag(self):
        # a Gaussian grid reaches 8 sigma by itself; there is no extent to set
        code, _, err = run_cli(["epi", "--grid-extent", "inf", "--cutoff", "20"])
        assert code == 2 and "unrecognized arguments: --grid-extent" in err

    def test_stam_refuses_coarse_file_noise_before_the_channel(self, tmp_path, monkeypatch):
        # a file density cannot be resampled for the Fisher step, and J(R|M)
        # runs first, so the quadrature channel never starts
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(ps.gaussian_pdf(0.4, spacing=0.1), path)

        def no_channel(*args, **kwargs):
            raise AssertionError("the quadrature channel ran")

        monkeypatch.setattr(ch, "_noise_outputs", no_channel)
        code, _, err = run_cli(["stam", "--state", "thermal:0.5", "--noise", f"file:{path}"])
        assert code == 2 and "QuadratureError" in err

    def test_stam_on_unresolved_file_noise_is_2(self, tmp_path):
        # a delta on a fine grid passes the spacing check, but its Fisher
        # ladder does not converge (J is infinite)
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(ps.delta_pdf(0.0125), path)
        code, _, err = run_cli(["stam", "--state", "thermal:0.5", "--noise", f"file:{path}"])
        assert code == 2 and "ConvergenceError" in err

    def test_numeric_error_is_2(self):
        code, _, err = run_cli(["qou", "--state", "fock:1", "--mu", "1", "--lambda", "1.5"])
        assert code == 2 and "ParameterError" in err
        for argv in (["epi", "--grid-spacing", "0", "--cutoff", "20"],
                     ["capacity", "--noise", "gauss:0.5", "--grid-spacing", "0"],
                     ["classical-epi", "--grid-spacing", "0"],
                     ["scaling", "--state", "fock:1", "--noise", "gauss:0.5", "--t-list", "0"],
                     ["epi", "--state", "thermal:1e300"]):
            code, _, err = run_cli(argv)
            assert code == 2 and "DomainError" in err, argv

    def test_qou_at_the_largest_cutoff(self):
        # the damping channel maps diagonals: no d^4 superoperator at cutoff 128
        code, out, _ = run_cli(["qou", "--state", "fock:1", "--cutoff", "128", "--lambda", "0.5"])
        assert code == 0
        assert json.loads(out)["reports"][0]["check_name"] == "qou-decay"

    @pytest.mark.parametrize("argv", [
        ["tightness", "--a", "1000"],
        ["tightness", "--k-list", "1e200"],
        ["epi", "--state", "tmsv:800"],
        ["isoperimetric", "--state", "tmsv:800"],
        ["qou", "--state", "tmsv:800", "--lambda", "0.5"],
        ["qou", "--state", "fock:1", "--mu", "1e200", "--lambda", "1", "--cutoff", "20"],
        ["epi", "--state", "coherent:1e300"],
        ["epi", "--state", "cat:1e300", "--cutoff", "10"],
    ])
    def test_overflowing_finite_number_is_2(self, argv):
        # finite, so no usage error, but too large for the arithmetic
        code, _, err = run_cli(argv)
        assert code == 2 and re.match(r"epi-lab: OverflowError: ", err), err

    def test_dense_state_over_the_cap_is_2(self):
        # a TMSV and its noise on A stay in the diagonal storage up to cutoff 128
        code, out, _ = run_cli(["epi", "--cutoff", "128"])
        agree = [r for r in json.loads(out)["reports"] if r["check_name"] == "cond-epi-path-agreement"]
        assert code == 0 and abs(agree[0]["lhs"] - agree[0]["rhs"]) <= 1e-4
        # a shifted noise center needs the dense matrix, padded by CENTER_PAD
        # levels on A: 1.5 GB at cutoff 91, refused before it is built
        code, _, err = run_cli(["epi", "--cutoff", "91", "--noise", "gauss:0.5@0.3,0"])
        assert code == 2 and "DomainError" in err and "cap" in err

    @pytest.mark.parametrize("cutoff", ["112", "120"])
    def test_shifted_noise_on_one_mode_runs_above_cutoff_112(self, cutoff):
        # the one-mode state padded by CENTER_PAD levels is never a FockState,
        # so it may pass MAX_CUTOFF; the result does not move with the cutoff
        code, out, err = run_cli(["epi", "--state", "fock:1", "--noise", "gauss:0.3@0.2,0",
                                  "--cutoff", cutoff])
        assert code == 0, err
        assert abs(json.loads(out)["reports"][0]["lhs"] - 3.7353298416801985) <= 1e-12

    def test_shifted_register_noise_runs_at_cutoff_128(self):
        code, out, err = run_cli(["epi", "--state", "register:p=0.5|0.5,fock:1|vacuum",
                                  "--noise", "gauss:0.3@0.2,0|gauss:0.4", "--cutoff", "128"])
        assert code == 0 and json.loads(out)["reports"][0]["pass"] is True, err

    def test_shifted_center_caps_the_padded_state(self, monkeypatch):
        # the 1 MiB dense state at cutoff 16 fits a 2 MiB cap; its copy padded
        # for the displacement (4 MiB) does not, and is refused before it is built
        monkeypatch.setattr(fk, "MAX_DENSE_BYTES", 2 ** 21)
        code, _, err = run_cli(["epi", "--state", "tmsv:0.3", "--noise", "gauss:0.3@0.1,0",
                                "--cutoff", "16"])
        assert code == 2 and "DomainError" in err and "(32, 16)" in err

    def test_bs_epi_builds_no_two_mode_state(self):
        # a pure B keeps the beam splitter small at cutoff 128, where the
        # joint state would need 4 GiB; a thermal A against a rank-64 B with
        # coherences takes the factored path, which would need 2 GiB and is
        # refused with the byte count
        code, out, _ = run_cli(["bs-epi", "--state", "fock:1", "--state-b", "vacuum",
                                "--cutoff", "128", "--lambda", "0.4"])
        assert code == 0 and json.loads(out)["reports"][0]["pass"] is True
        code, _, err = run_cli(["bs-epi", "--state", "thermal:2", "--state-b", "random:64",
                                "--cutoff", "128", "--lambda", "0.4"])
        assert code == 2 and "DomainError" in err
        assert re.search(r"needs \d{10} bytes, over the 1073741824 byte cap", err)

    def test_bs_epi_on_thermal_inputs_at_cutoff_128(self):
        # a B without coherences runs as per-diagonal maps, with no factor of A
        # to hold: the factored path would need 1.5 GiB here
        code, out, _ = run_cli(["bs-epi", "--state", "thermal:2", "--state-b", "thermal:1",
                                "--lambda", "0.5", "--cutoff", "128"])
        assert code == 0 and json.loads(out)["reports"][0]["pass"] is True

    def test_non_numeric_noise_value_is_2(self, tmp_path):
        bad = tmp_path / "noise.grid"
        bad.write_text("gridpdf 1\norigin 0 0\nspacing 0.1\nsize 2\n1 x\n")
        code, _, err = run_cli(["capacity", "--noise", f"file:{bad}"])
        assert code == 2 and "malformed gridpdf header or values" in err

    def test_corrupt_noise_file_is_2(self, tmp_path):
        bad = tmp_path / "noise.grid"
        bad.write_text("gridpdf 1\norigin 0 0\nspacing 0.1\nsize 2\n1 2\n")
        code, _, err = run_cli(["epi", "--state", "thermal:1.0", "--noise", f"file:{bad}"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_noise_file_is_2(self, tmp_path, bad):
        # a NaN cell must stop at construction: every comparison with NaN is
        # False, so the mass and tail checks would let it through to the report
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(ps.gaussian_pdf(0.5, spacing=0.1), path)
        lines = path.read_text().splitlines()
        row = lines[4 + 10].split()
        row[12] = bad
        lines[4 + 10] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        for argv in (["capacity", "--E", "1", "--noise", f"file:{path}"],
                     ["epi", "--state", "thermal:0.5", "--noise", f"file:{path}", "--cutoff", "20"]):
            code, out, err = run_cli(argv)
            assert code == 2 and out == ""
            assert f"DomainError: density values must be finite, got 1 non-finite ({bad})" in err

    def test_register_mixes_file_and_gauss_labels(self, tmp_path):
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(ps.gaussian_pdf(0.5, spacing=0.1), path)
        code, _, err = run_cli(["epi", "--state", "register:p=0.5,fock:1|vacuum",
                                "--noise", f"gauss:0.3@0.37,0.11|file:{path}", "--cutoff", "32"])
        assert code == 0, err

    def test_register_shares_a_single_noise_entry(self):
        # one --noise entry serves every label, as if written once per label
        shared, each = (run_cli(["epi", "--state", "register:p=0.5,fock:1|cat:2.0", "--noise", noise])
                        for noise in ("gauss:0.4", "gauss:0.4|gauss:0.4"))
        assert shared[0] == 0, shared[2]
        (rep,) = json.loads(shared[1])["reports"]
        assert rep["params"]["labels"] == 2 and [rep] == json.loads(each[1])["reports"]

    def test_linear_epi_on_one_mode_gaussian_input(self):
        code, out, _ = run_cli(["linear-epi", "--state", "thermal:1.0", "--noise", "gauss:0.5",
                                "--cutoff", "40"])
        assert code == 0
        (rep,) = json.loads(out)["reports"]
        assert rep["pass"] and rep["params"]["path"] == "gaussian"

    def test_stam_defaults(self):
        code, out, _ = run_cli(["stam", "--cutoff", "24"])
        assert code == 0
        (rep,) = json.loads(out)["reports"]
        assert rep["pass"] and rep["params"] == {"instance": "tmsv:0.66"}
        diag = rep["diagnostics"]
        assert diag["J_A"] == pytest.approx(15.60, abs=0.01)
        assert diag["J_R"] == pytest.approx(2.0, abs=1e-3)
        assert rep["margin"] == pytest.approx(0.10, abs=0.01)

    def test_scaling_defaults(self):
        # the check reads only the noise, so it runs on every state spec
        code, out, _ = run_cli(["scaling"])
        assert code == 0
        (rep,) = json.loads(out)["reports"]
        assert rep["pass"] and rep["params"]["instance"] == "tmsv:0.66"

    def test_forced_failure_is_1(self):
        # the saturating family's gap grows from k=16 to k=2, so the
        # monotone-gap statement fails outright
        code, out, err = run_cli(["tightness", "--k-list", "16,2"])
        assert code == 1 and "FAILED tightness" in err
        (rep,) = [r for r in json.loads(out)["reports"] if not r["pass"]]
        assert rep["margin"] == pytest.approx(-0.1116, abs=1e-4)

    def test_isoperimetric_checks_the_state(self):
        # a register of thermal states: J(A|M) and S(A|M) average the labels'
        # log((N+1)/N) and g(N)
        code, out, _ = run_cli(["isoperimetric", "--state", "register:p=0.5,thermal:0.5|thermal:1.0",
                                "--noise", "gauss:0.5", "--cutoff", "30"])
        assert code == 0
        (rep,) = json.loads(out)["reports"]
        j = 0.5 * math.log(3.0) + 0.5 * math.log(2.0)
        s = 0.5 * ga.g_function(0.5) + 0.5 * ga.g_function(1.0)
        assert rep["diagnostics"]["J"] == pytest.approx(j, abs=1e-4)
        assert rep["diagnostics"]["S"] == pytest.approx(s, abs=1e-4)


    def test_isoperimetric_and_concavity_take_the_path_from_the_state(self, tmp_path):
        # thermal:0.5 has a Gaussian twin, so A runs on it whatever the noise
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(ps.gaussian_pdf(0.5), path)
        for cmd in ("isoperimetric", "concavity"):
            gauss, file = (json.loads(run_cli([cmd, "--state", "thermal:0.5", "--noise", noise])[1])
                           for noise in ("gauss:0.5", f"file:{path}"))
            assert file["reports"] == gauss["reports"]
            assert "tail_mass" not in file["reports"][0]["diagnostics"]

class TestOptimalLambda:
    @pytest.mark.parametrize("cmd", ["qou", "bs-epi"])
    def test_only_linear_epi_takes_optimal(self, cmd):
        code, _, err = run_cli([cmd, "--lambda", "optimal", "--cutoff", "12"])
        assert code == 2
        assert f"{cmd} needs a numeric --lambda" in err

    def test_lambda_must_be_a_number_or_optimal(self):
        code, _, err = run_cli(["linear-epi", "--lambda", "abc"])
        assert code == 2
        assert "--lambda must be a number or 'optimal', got 'abc'" in err

    def test_linear_epi_takes_optimal(self):
        code, out, _ = run_cli(["linear-epi", "--lambda", "optimal", "--cutoff", "24"])
        assert code == 0
        assert json.loads(out)["reports"][0]["params"]["lambda"] == "optimal"


class TestOutputs:
    def test_json_out_file(self, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            ["bs-epi", "--state", "thermal:1.0", "--state-b", "vacuum", "--cutoff", "30",
             "--lambda", "0.7", "--out", str(path)]
        )
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["reports"][0]["pass"] is True

    def test_csv_format(self, tmp_path):
        path = tmp_path / "rep.csv"
        code, _, _ = run_cli(
            ["tightness", "--format", "csv", "--out", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("check_name,")
        assert len(lines) >= 3

    def test_noise_file_roundtrip(self, tmp_path):
        f = ps.gaussian_pdf(0.5)
        path = tmp_path / "noise.grid"
        ps.save_gridpdf(f, path)
        code, out, _ = run_cli(
            ["capacity", "--E", "1", "--noise", f"file:{path}"]
        )
        assert code == 0
        direct = run_cli(["capacity", "--E", "1", "--noise", "gauss:0.5"])[1]
        assert json.loads(out)["reports"][0]["lhs"] == json.loads(direct)["reports"][0]["lhs"]

    def test_single_command_deterministic(self):
        a = run_cli(["linear-epi", "--state", "tmsv:0.66", "--noise", "gauss:0.5",
                     "--lambda", "0.5"])[1]
        b = run_cli(["linear-epi", "--state", "tmsv:0.66", "--noise", "gauss:0.5",
                     "--lambda", "0.5"])[1]
        ja, jb = json.loads(a), json.loads(b)
        ja.pop("created"), jb.pop("created")
        assert ja == jb
