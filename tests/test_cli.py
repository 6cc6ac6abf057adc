import contextlib
import hashlib
import io
import json
import os

import pytest

import pnc.sync
from pnc.cli import DEFAULT_SEED, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, _profile_rows, run
from pnc.constellation import pam_sum_profile


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestBounds:
    def test_json_report(self):
        code, out, _ = invoke(["bounds", "--ma", "4", "--mb", "16"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["ub_shared"] == pytest.approx(1.83609, abs=1e-5)
        assert report["rate_bob_nocoop"] == pytest.approx(1.25)
        assert report["gap_alice_coop"] == pytest.approx(
            abs(report["ub_shared"] - report["rate_alice_coop"]), abs=1e-12
        )

    def test_infeasible_orders_exit_3(self):
        code, out, err = invoke(["bounds", "--ma", "4", "--mb", "6"])
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "2" in err and "M_B" in err  # names the M_B >= 2*M_A requirement

    def test_missing_flag_exit_2(self):
        code, _, _ = invoke(["bounds", "--ma", "4"])
        assert code == EXIT_USAGE


class TestEncode:
    def test_nocoop_example(self):
        code, out, _ = invoke(
            [
                "encode", "--ma", "4", "--mb", "16", "--scheme", "nocoop",
                "--public", "00110110", "--secret", "1001",
            ]
        )
        assert code == EXIT_OK
        assert out.strip() == "-9,1,11"

    def test_coop_example(self):
        code, out, _ = invoke(
            [
                "encode", "--ma", "8", "--mb", "32", "--scheme", "coop",
                "--levels", "3,2,2", "--public", "01", "--secret", "1111011",
            ]
        )
        assert code == EXIT_OK
        assert out.strip() == "7,-3,7"

    def test_underflow_exit_3(self):
        code, _, err = invoke(
            [
                "encode", "--ma", "4", "--mb", "16", "--scheme", "nocoop",
                "--public", "00110110", "--secret", "1",
            ]
        )
        assert code == EXIT_INFEASIBLE
        assert "exhausted" in err

    def test_underflow_names_symbol_index(self):
        code, out, err = invoke(
            [
                "encode", "--ma", "4", "--mb", "16", "--scheme", "nocoop",
                "--public", "00110110", "--secret", "1",
            ]
        )
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "symbol 1" in err

    def test_coop_underflow_names_symbol_index(self):
        code, out, err = invoke(
            [
                "encode", "--ma", "8", "--mb", "32", "--scheme", "coop",
                "--levels", "3,2,2", "--public", "01", "--secret", "11110",
            ]
        )
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "symbol 2" in err

    @pytest.mark.parametrize("flag", ["--public", "--secret"])
    @pytest.mark.parametrize("bits", ["0012", "1x", " 01"])
    def test_non_binary_bits_exit_2(self, flag, bits):
        code, out, err = invoke(
            ["encode", "--ma", "4", "--mb", "16", "--scheme", "nocoop", flag, bits]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert flag in err

    def test_coop_requires_levels(self):
        code, out, err = invoke(
            ["encode", "--ma", "4", "--mb", "16", "--scheme", "coop", "--public", "01"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--levels" in err

    def test_malformed_levels_exit_2(self):
        code, out, err = invoke(
            [
                "encode", "--ma", "4", "--mb", "16", "--scheme", "coop",
                "--levels", "a,b", "--public", "01",
            ]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--levels" in err


class TestProfile:
    def test_rows(self):
        code, out, _ = invoke(["profile", "--ma", "4", "--mb", "16"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "y,count,pmf"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 19
        assert all(int(r[1]) > 0 for r in rows)
        flat = [r for r in rows if abs(int(r[0])) <= 12]
        assert all(int(r[1]) == 4 for r in flat)
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-12)

    def test_csv_to_file(self, tmp_path):
        path = tmp_path / "profile.csv"
        code, out, _ = invoke(
            ["profile", "--ma", "4", "--mb", "16", "--csv", str(path)]
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().splitlines()[0] == "y,count,pmf"


    @pytest.mark.parametrize(
        "ma,mb", [(2, 4), (2, 64), (4, 8), (4, 16), (8, 32), (16, 64), (32, 64), (64, 256), (64, 1024)]
    )
    def test_rows_equal_the_enumerated_profile(self, ma, mb):
        profile = pam_sum_profile(ma, mb)
        rows = [(y, profile.count(y), profile.pmf(y)) for y in profile.support()]
        assert repr(_profile_rows(ma, mb)[1]) == repr(rows)


class TestClosedFormBytes:
    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("profile --ma 4 --mb 8", "6e790b5035beb9568aa3c5105cef0ebf04b63a81372aa31e704848dc79d6cfc8"),
            ("profile --ma 4 --mb 16", "211ad35e155e5383c141f4f36157467413d8cc2cc959ed78a76c1da2b0b168d4"),
            ("profile --ma 8 --mb 32", "6af63e3efd301335eff912822a192f1114dba17b68b3a291f06e4d2d50f6e38f"),
            ("profile --ma 16 --mb 64", "e3f375bb74453f6065ce54e120fd547e833c4bf6bc1e34b2403f59436c56e707"),
            ("profile --ma 32 --mb 128", "b02ddd59810a2c74d38bc90bd45180942946bd131bbd35cf546fbc86791f56ab"),
            ("profile --ma 64 --mb 256", "876532c4e00db8d0a81f9b35617554889ae4440759f38ff8406d9b49d7afcea4"),
            ("bounds --ma 4 --mb 8", "3403042e4d02389d467fa1690ed2804185eadef9b18c2b6f19b3c3fa1145bb37"),
            ("bounds --ma 4 --mb 16", "7e13a32bfb36b1e12524f8b3668e0559a331ed7d10dd730d58fefaf4f7e3d51e"),
            ("bounds --ma 8 --mb 32", "e91b321a3c9d290d0da66fc53190b2bd7ba5673cbba2c8c4b904c4351d469f3b"),
            ("bounds --ma 16 --mb 64", "ab81d982a0aef4eb06fad7968787a62f91b99feed208e11cf89e96cb3fa43ef7"),
            ("bounds --ma 32 --mb 128", "77133c16425f17d49e89468d7f55cf9c8f10cd8628f59ffae1ca020a9c75c5ed"),
            ("bounds --ma 64 --mb 256", "ebc6a628bced7ae99215c008c6f2f47447237666decc7bb6104aa07750d79cf7"),
            ("figure gaps", "8f324ebd0a1ec26a02da01fabd269d2a9684ef1b8531cbcf407f279071856ab6"),
        ],
    )
    def test_bytes_are_pinned(self, argv, digest):
        # the staircase closed forms print the bytes of the per-point sums they replaced
        code, out, err = invoke(argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOrders:
    @pytest.mark.parametrize(
        "argv",
        [
            ["profile"],
            ["bounds"],
            ["encode", "--scheme", "nocoop", "--side", "bob", "--public", "1"],
            ["encode", "--scheme", "coop", "--levels", "0", "--public", "1"],
            ["audit", "--scheme", "coop"],
            ["audit", "--scheme", "nocoop", "--side", "alice"],
            ["sync-sweep", "--step", "0.5"],
        ],
    )
    @pytest.mark.parametrize("mb", ["2", "4"])
    def test_order_1_exit_3(self, argv, mb):
        # every --ma/--mb command refuses a one-point alphabet with one message
        code, out, err = invoke([*argv, "--ma", "1", "--mb", mb])
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "error: PAM order must be a power of two >= 2, got 1\n"


class TestAudit:
    def test_json_fields(self):
        code, out, _ = invoke(
            ["audit", "--ma", "4", "--mb", "16", "--scheme", "nocoop", "--side", "bob"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["scheme"] == "nocoop_bob"
        assert report["flat_suffix_mi"] == [0.0, 0.0]
        assert report["semantic_mi"] == pytest.approx(1.1014097655573916)

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("64 256 nocoop --side alice", "da0bf7d5d9d05f6d0e3ffe2559b93d47cb0629b3fa54a4a3e0831f5cce880a68"),
            ("64 256 nocoop --side bob", "a5eb9aa9fd2293aaf7fd89e34af6bd59f50a1d52f2eb3e8bac69345cc5639784"),
            ("64 256 coop", "33ab13921fdbc19b3c967f687c8e45ea75490a23442ae19240c9e5ad090de225"),
            ("128 512 nocoop --side alice", "cb33c99ecabdb7c600b1c34f3d5b216a0278c88b52397f0a815e38fb274b5b71"),
            ("128 512 nocoop --side bob", "cc24dbf375c4f177b81e7d40fc63f8fdd7714b3df8940b6c741d55092b6c82b7"),
            ("128 512 coop", "d81d1c0df4be976836c89e1182883986208f32e59ecd062b5779876905674ead"),
            ("256 1024 nocoop --side alice", "c146fd60c2e970428179291daca59ee6c5fe5cb8faf66382e61cf091195fe462"),
            ("256 1024 nocoop --side bob", "e26d80cec3214cc5cfffb96c17913f84a6f5cef83aa71922f7c6a1cf16c7e5f4"),
            ("256 1024 coop", "13353249dd6675a651ac73fa520ae6abf93f42b28304eb30e526c063a04b739a"),
        ],
    )
    def test_report_bytes_are_pinned(self, argv, digest):
        # exact counts of one joint distribution give the same report bytes
        # however they are counted; every nonzero figure here is within 1e-15
        # of its 50-digit value (TestAccuracy in test_audit.py checks two orders)
        ma, mb, *scheme = argv.split()
        code, out, err = invoke(["audit", "--ma", ma, "--mb", mb, "--scheme", *scheme])
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSyncSweep:
    def test_grid_csv(self):
        code, out, _ = invoke(
            ["sync-sweep", "--ma", "4", "--mb", "16", "--step", "0.5"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "dta,dtb,ub"
        assert len(lines) == 10
        assert lines[1].startswith("0,0,1.83609023444")

    def test_bad_step_exit_3(self):
        code, _, _ = invoke(
            ["sync-sweep", "--ma", "4", "--mb", "16", "--step", "0.7"]
        )
        assert code == EXIT_INFEASIBLE

    def test_unopenable_csv_exit_2(self, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        argv = ["sync-sweep", "--ma", "4", "--mb", "16", "--step", "0.5", "--csv", str(path)]
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.parent.exists()

    def test_unopenable_csv_is_refused_before_the_work(self, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(pnc.sync, "sync_sweep", unreachable)
        path = tmp_path / "missing" / "x.csv"
        argv = ["sync-sweep", "--ma", "32", "--mb", "128", "--csv", str(path)]
        assert invoke(argv)[0] == EXIT_USAGE

    def test_failed_command_leaves_csv_empty(self, tmp_path):
        # --csv PATH acts as `> PATH`: the file is opened before the work
        path = tmp_path / "x.csv"
        path.write_text("old\n")
        code, out, err = invoke(["sync-sweep", *ORDERS, "--step", "0.7", "--csv", str(path)])
        assert (code, out, err) == (EXIT_INFEASIBLE, "", "error: grid_step must lie in (0, 0.5]\n")
        assert path.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv", [["profile", "--ma", "4", "--mb", "16"], ["figure", "sync_err"]]
    )
    def test_unwritable_csv_exit_2(self, argv):
        # /dev/full opens, but every write to it fails: a short text fails on
        # the close's flush, a longer one already in the write
        code, out, err = invoke([*argv, "--csv", "/dev/full"])
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: cannot write /dev/full: No space left on device\n"
        )

    def test_command_oserror_is_not_a_write_failure(self, tmp_path, monkeypatch):
        def broken(*args):
            raise OSError("the command failed")

        monkeypatch.setattr(pnc.sync, "sync_sweep", broken)
        with pytest.raises(OSError, match="the command failed"):
            invoke(["sync-sweep", *ORDERS, "--csv", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "x"])
    def test_non_positive_step_exit_2(self, step):
        code, out, err = invoke(["sync-sweep", "--ma", "4", "--mb", "16", "--step", step])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--step" in err


class TestMimo:
    def test_dim_report(self):
        code, out, _ = invoke(["mimo", "--m", "4", "--n", "3", "--dim"])
        assert code == EXIT_OK
        assert json.loads(out) == {"dof_max": 2, "precoder_space_dim": 6}

    def test_dim_report_infeasible_geometry(self):
        code, out, _ = invoke(["mimo", "--m", "5", "--n", "2", "--dim"])
        assert code == EXIT_OK
        assert json.loads(out) == {"dof_max": 0}

    def test_dim_report_rejects_n_above_m(self):
        code, out, err = invoke(["mimo", "--m", "2", "--n", "3", "--dim"])
        assert (code, out, err) == (EXIT_INFEASIBLE, "", "error: require N <= M antennas\n")

    def test_negative_snr_list_needs_equals(self):
        code, out, _ = invoke(["mimo", "--m", "4", "--n", "3", "--snr-db=-5,0", "--trials", "2"])
        assert code == EXIT_OK
        assert [line.split(",")[0] for line in out.splitlines()] == ["snr_db", "-5", "0"]
        code, out, err = invoke(["mimo", "--m", "4", "--n", "3", "--snr-db", "-5,0", "--trials", "2"])
        assert (code, out) == (EXIT_USAGE, "")
        assert "--snr-db" in err

    def test_capacity_csv(self):
        argv = [
            "mimo", "--m", "3", "--n", "2", "--snr-db", "0,10",
            "--trials", "5", "--method", "zf",
        ]
        code, out, _ = invoke(argv)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "snr_db,mean_capacity_bits"
        assert len(lines) == 3

    def test_opt_equals_zf_when_d_is_1(self):
        # (3, 2) leaves one dimension: the feasible set is the ZF ray
        argv = ["mimo", "--m", "3", "--n", "2", "--snr-db", "0,10,20", "--trials", "20"]
        _, zf, _ = invoke(argv + ["--method", "zf"])
        _, opt, _ = invoke(argv + ["--method", "opt"])
        assert opt == zf

    def test_malformed_snr_exit_2(self):
        # 3100 dB overflows a float and -4000 dB rounds to a linear SNR of 0
        for snr_db in ("x", "nan", "inf", "0,-inf", "0,nan", "3100", "-4000"):
            code, out, err = invoke(["mimo", "--m", "3", "--n", "2", "--snr-db", snr_db])
            assert code == EXIT_USAGE
            assert out == ""
            assert "--snr-db" in err

    @pytest.mark.parametrize("trials", ["0", "-3", "1.5"])
    def test_non_positive_trials_exit_2(self, trials):
        code, out, err = invoke(["mimo", "--m", "3", "--n", "2", "--trials", trials])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--m", ["--m", "0", "--n", "1", "--dim"]),
            ("--m", ["--m", "-2", "--n", "3", "--trials", "3"]),
            ("--n", ["--m", "3", "--n", "0", "--trials", "3"]),
        ],
    )
    def test_non_positive_antennas_exit_2(self, flag, argv):
        code, out, err = invoke(["mimo", *argv])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {flag}" in err

    def test_infeasible_geometry_exit_3(self):
        for m, n in ((5, 2), (4, 1)):
            code, out, err = invoke(["mimo", "--m", str(m), "--n", str(n), "--trials", "2"])
            assert (code, out) == (EXIT_INFEASIBLE, "")
            assert err == f"error: no interference-free dimensions for (M, N) = ({m}, {n})\n"
        code, out, err = invoke(["mimo", "--m", "2", "--n", "3", "--trials", "2"])
        assert (code, out, err) == (EXIT_INFEASIBLE, "", "error: require N <= M antennas\n")

    # Reference bytes.  The 3x3 seed-342 mean at 15 dB sits next to a rounding
    # boundary: it moves in its last printed digit if the ZF power norm sums in
    # another order than np.linalg.norm does.
    @pytest.mark.parametrize(
        "m,n,seed,expected",
        [
            (2, 2, 1, "0.554059133853 1.42161439958 3.07113192687 5.51346383582 8.47253867054"),
            (3, 3, 342, "0.360437070993 1.01084402047 2.46940720218 5.03494338696 8.63093404663"),
            (4, 3, 17, "1.56173066522 3.30435490784 5.82116501479 8.82003933472 12.0296954762"),
            (3, 2, 5, "0.789776750496 1.67343758029 2.93908108534 4.44031246164 6.0454136705"),
        ],
    )
    def test_zf_bytes_pinned(self, m, n, seed, expected):
        argv = ["mimo", "--m", str(m), "--n", str(n), "--method", "zf", "--trials", "5"]
        code, out, _ = invoke(argv + ["--seed", str(seed)])
        assert code == EXIT_OK
        rows = zip((0, 5, 10, 15, 20), expected.split())
        assert out == "snr_db,mean_capacity_bits\n" + "".join(f"{db},{v}\n" for db, v in rows)

    def test_determinism_byte_identical(self):
        argv = [
            "mimo", "--m", "4", "--n", "3", "--snr-db", "0,10",
            "--trials", "3", "--seed", "42", "--method", "opt",
        ]
        _, out1, _ = invoke(argv)
        _, out2, _ = invoke(argv)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv", [["mimo", "--m", "4", "--n", "3", "--trials", "2"], ["figure", "cap_approx", "--trials", "1"]]
    )
    def test_negative_seed_exit_2(self, argv):
        code, out, err = invoke([*argv, "--seed", "-1"])
        assert (code, out) == (EXIT_USAGE, "")
        assert "argument --seed" in err

    def test_default_seed_documented(self):
        assert DEFAULT_SEED == 20_177


class TestFigure:
    def test_rays_pmf(self):
        code, out, _ = invoke(["figure", "rays_pmf"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 20
        peaks = [line for line in lines[1:] if line.split(",")[1] == "4"]
        assert len(peaks) == 13

    def test_gaps_thresholds(self):
        code, out, _ = invoke(["figure", "gaps"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "ma,mb,gap_alice,gap_bob,gap_alice_coop"
        assert all(float(line.split(",")[3]) < 0.7 for line in lines[1:])

    def test_cap_approx_smoke(self):
        code, out, _ = invoke(["figure", "cap_approx", "--trials", "2"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        # 4 geometries x 2 methods x 5 SNR points
        assert len(lines) == 41

    def test_cap_approx_zero_trials_exit_2(self):
        code, out, err = invoke(["figure", "cap_approx", "--trials", "0"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--trials" in err

    def test_unknown_figure_exit_2(self):
        code, _, _ = invoke(["figure", "nonexistent"])
        assert code == EXIT_USAGE


class TestStreams:
    """Usage errors and help go to run's own streams, not to sys.stdout or sys.stderr."""

    def test_usage_error_goes_to_err(self, capsys):
        out, err = io.StringIO(), io.StringIO()
        assert run(["figure", "nope"], out, err) == EXIT_USAGE
        assert "invalid choice: 'nope'" in err.getvalue()
        assert out.getvalue() == ""
        assert capsys.readouterr() == ("", "")

    def test_default_streams_are_those_at_the_call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(["encode", *ORDERS, "--scheme", "nocoop", "--public", "001", "--secret", "1"]) == EXIT_OK
            assert run(["bounds", "--ma", "4", "--mb", "6"]) == EXIT_INFEASIBLE
        assert out.getvalue() == "-9\n"
        assert err.getvalue() == "error: require M_B >= 2*M_A, got M_A=4, M_B=6\n"

    def test_help_goes_to_out(self, capsys):
        out, err = io.StringIO(), io.StringIO()
        assert run(["--help"], out, err) == EXIT_OK
        assert out.getvalue().startswith("usage: pnc ")
        assert err.getvalue() == ""
        assert capsys.readouterr() == ("", "")



ORDERS = ["--ma", "4", "--mb", "16"]
DIM = ["mimo", "--m", "4", "--n", "3", "--dim"]


class TestIgnoredFlags:
    """A flag that the chosen mode would ignore is a usage error that runs nothing."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            ([*DIM, "--csv", "dim.csv"], "--csv"),
            ([*DIM, "--snr-db", "0"], "--snr-db"),
            ([*DIM, "--trials", "3"], "--trials"),
            ([*DIM, "--seed", "0"], "--seed"),
            ([*DIM, "--method", "opt"], "--method"),
            (["figure", "rays_pmf", "--trials", "3"], "--trials"),
            (["figure", "sync_err", "--seed", "0"], "--seed"),
            (["figure", "gaps", "--tri", "3"], "--trials"),  # an abbreviation names the flag
            (["encode", *ORDERS, "--scheme", "nocoop", "--levels", "9,9"], "--levels"),
            (["encode", *ORDERS, "--scheme", "coop", "--side", "bob", "--levels", "1"], "--side"),
            (["audit", *ORDERS, "--scheme", "coop", "--side", "alice"], "--side"),
        ],
    )
    def test_exit_2_naming_the_flag(self, argv, flag, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert flag in err
        assert not any(tmp_path.iterdir())  # --csv wrote no file

    @pytest.mark.parametrize(
        "line",
        [
            "mimo --m 2 --n 2 --trials 2 --seed 0 --method opt",
            "figure cap_approx --trials 2 --seed 0",
            "encode --ma 4 --mb 16 --scheme nocoop --side bob --public 00110110 --secret 1001",
            "encode --ma 4 --mb 16 --scheme coop --levels 1 --public 0 --secret 1",
            "audit --ma 4 --mb 16 --scheme nocoop --side bob",
        ],
    )
    def test_flags_the_mode_reads_still_work(self, line):
        assert invoke(line.split())[0] == EXIT_OK
