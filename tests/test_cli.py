import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from epi_lab import cli
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
        reg = cli.parse_instance("register:p=0.3,fock:1|vacuum", "gauss:0.3|gauss:0.5", args).pair()
        assert list(reg.probs) == pytest.approx([0.3, 0.7])
        assert reg.states[0].mode_dims == (24,)

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
    def test_capacity_ok(self):
        code, out, _ = run_cli(["capacity", "--E", "1", "--noise", "gauss:0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["check_name"] == "capacity-bound"

    def test_usage_error_is_2(self):
        code, _, err = run_cli(["epi", "--state", "wigglium:2"])
        assert code == 2 and "usage error" in err

    def test_numeric_error_is_2(self):
        code, _, err = run_cli(["qou", "--state", "fock:1", "--mu", "1", "--lambda", "1.5"])
        assert code == 2 and "ParameterError" in err

    def test_corrupt_noise_file_is_2(self, tmp_path):
        bad = tmp_path / "noise.grid"
        bad.write_text("gridpdf 1\norigin 0 0\nspacing 0.1\nsize 2\n1 2\n")
        code, _, err = run_cli(["epi", "--state", "thermal:1.0", "--noise", f"file:{bad}"])
        assert code == 2

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

    def test_forced_failure_is_1(self):
        # an absurd tolerance override cannot rescue a strict report, but a
        # negative one forces margins below tolerance
        code, out, err = run_cli(
            ["capacity", "--E", "1", "--noise", "gauss:0.5", "--tolerance", "-2"]
        )
        assert code == 1 and "FAILED" in err


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
