import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pnc.cli
import pnc.encoders
import pnc.sync
from pnc.cli import (
    DEFAULT_SEED,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    FIGURES,
    _csv,
    _fmt,
    _profile_rows,
    build_parser,
    run,
)
from pnc.constellation import pam_sum_profile
from pnc.encoders import QueueUnderflow


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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            ("figure sync_err", "170f0914b55d8f75a0501824db5d6a7793597444635140d2555b111c049b6bd9"),
            ("sync-sweep --ma 8 --mb 32 --step 0.05", "14df7fd1dca403868b5deb539da523f602a26ac3faf813f5a4c7f82e347fb0dd"),
            ("sync-sweep --ma 32 --mb 64 --step 0.5", "4d6742dbeb497a73450c8b1c285ce3ea204940bded02068c0c2880268100dba9"),
            ("sync-sweep --ma 16 --mb 64 --step 0.05", "1ffd473822bb07591e1ccfd364fa42a77d1701785467db3937aa4e7db55ac69b"),
        ],
    )
    def test_bytes_are_pinned(self, argv, digest):
        # any exact counting of the observation-class tables must give these bytes
        code, out, err = invoke(argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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


class TestOutOfMemory:
    """A command that runs out of memory or overflows exits 3 with one line and no output."""

    @pytest.mark.parametrize(
        "exc,line",
        [
            (
                MemoryError("Unable to allocate 1.56 GiB for an array"),
                "error: sync-sweep ran out of memory: Unable to allocate 1.56 GiB for an array\n",
            ),
            (MemoryError(), "error: sync-sweep ran out of memory\n"),
            (OverflowError("math range error"), "error: sync-sweep overflowed: math range error\n"),
            (OverflowError(), "error: sync-sweep overflowed\n"),
        ],
        ids=["numpy-message", "bare", "overflow-message", "overflow-bare"],
    )
    @pytest.mark.parametrize("to_csv", [False, True], ids=["stdout", "csv"])
    def test_exit_3_with_one_line(self, exc, line, to_csv, tmp_path, monkeypatch):
        def exhausted(*args):
            raise exc

        monkeypatch.setattr(pnc.sync, "sync_sweep", exhausted)
        path = tmp_path / "x.csv"
        path.write_text("old\n")
        csv_flag = ["--csv", str(path)] if to_csv else []
        code, out, err = invoke(["sync-sweep", *ORDERS, "--step", "0.5", *csv_flag])
        assert (code, out, err) == (EXIT_INFEASIBLE, "", line)
        assert path.read_text() == ("" if to_csv else "old\n")


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


def test_csv_text_is_what_the_csv_module_writes():
    # no header or _fmt field holds a comma, a quote or a newline, so joining needs no quoting
    rows = [(0, 1.0, "zf"), (-5, 1e-300, "optimized"), (3, 2.0 / 3, 10**20), (1, float("nan"), "")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("a", "b", "c"))
    writer.writerows([_fmt(v) for v in row] for row in rows)
    assert _csv(("a", "b", "c"), rows) == buf.getvalue()


def test_huge_valid_orders_exit_3():
    # 2^63 and 2^64 pass the order check, but 2^63 points do not fit a Python sequence
    argv = ["encode", "--ma", str(2**63), "--mb", str(2**64), "--scheme", "coop", "--levels", "0"]
    code, out, err = invoke([*argv, "--public", "0"])
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert err.startswith("error: encode overflowed: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_queue_underflow_is_refused_as_a_value_error(monkeypatch):
    # run has one refusal clause, ValueError, and a short queue is one
    assert issubclass(QueueUnderflow, ValueError)

    def short(*args, **kwargs):
        raise QueueUnderflow("secret", 7)

    monkeypatch.setattr(pnc.encoders, "encode_stream", short)
    code, out, err = invoke(["encode", *ORDERS, "--scheme", "nocoop", "--public", "0"])
    assert (code, out, err) == (
        EXIT_INFEASIBLE, "", "error: secret bit queue exhausted while forming symbol 7\n"
    )


# --- argv-grammar fuzz ---------------------------------------------------------
#
# Each subcommand's flags, present or absent, with values drawn from valid,
# boundary, negative, non-numeric, nan, inf and huge ones.  Left out on
# purpose: huge orders that pass the checks (--ma 4 --mb 2^70, say) and
# steps below 0.1.  profile, bounds and encode --scheme nocoop loop over the
# M ranks in Python and sync-sweep over (1/step)^2 offsets, and no command
# checks its size before the work yet, so such a run would not end.  Each
# huge value below is refused or costs nothing: 3 * 2^69 is no power of two,
# 2^70 as M_A leaves no M_B >= 2 M_A in the pool, 10^30 antennas leave
# N > M or 2N - M < 1 (which --dim reports in one line), a huge --levels
# entry is out of range and numpy takes a huge seed as it takes a small one.
# Orders that run stay <= 2^6, --trials <= 3, antennas <= 5 and --step >= 0.1.

ABSENT = object()
HUGE = str(3 * 2**69)
_JUNK = ["x", "nan", "inf", "-inf", "1e3", ""]
# flag: (valid values, boundary, negative, non-numeric and huge ones)
_FLAG_VALUES = {
    "--ma": (["2", "4", "8", "16", "32"], ["64", "1", "0", "3", "-4", HUGE, str(2**70), *_JUNK]),
    "--mb": (["4", "8", "16", "32", "64"], ["2", "1", "0", "6", "-16", HUGE, *_JUNK]),
    "--scheme": (["nocoop", "coop"], ["bogus"]),
    "--side": (["alice", "bob"], ["carol"]),
    "--public": (["", "0", "0110", "01101001"], ["012", "x"]),
    "--secret": (["", "1", "1001", "11110110"], ["2", " 1"]),
    "--levels": (["0", "1", "2,1", "3,2,2"], ["-1", "99", HUGE, "1,,2", *_JUNK]),
    "--step": (["0.1", "0.25", "0.5"], ["0.50001", "0", "-0.1", "1e308", *_JUNK]),
    "--m": (["1", "2", "3", "4", "5"], ["0", "-2", str(10**30), *_JUNK]),
    "--n": (["1", "2", "3", "4"], ["0", "-1", str(10**30 + 1), *_JUNK]),
    "--dim": ([None], []),  # a bare switch
    "--snr-db": (["0", "0,10", "-20"], ["-5,0", "3100", "-4000", "0,nan", "0,,1", *_JUNK]),
    "--trials": (["1", "2", "3"], ["0", "-3", "1.5", "-" + HUGE, *_JUNK]),
    "--seed": (["0", "7", HUGE], ["-1", "1.5", *_JUNK]),
    "--method": (["zf", "opt"], ["bogus"]),
    "--csv": (["{dir}/out.csv"], ["{dir}/missing/out.csv"]),
}
_ORDER_FLAGS = ("--ma", "--mb")
_SUBCOMMANDS = {
    "profile": (*_ORDER_FLAGS, "--csv"),
    "bounds": _ORDER_FLAGS,
    "encode": (*_ORDER_FLAGS, "--scheme", "--side", "--public", "--secret", "--levels"),
    "audit": (*_ORDER_FLAGS, "--scheme", "--side"),
    "sync-sweep": (*_ORDER_FLAGS, "--step", "--csv"),
    "mimo": ("--m", "--n", "--dim", "--snr-db", "--trials", "--seed", "--method", "--csv"),
    "figure": ("--trials", "--seed", "--csv"),
}


def _ignored(command: str, name, given: dict, flag: str) -> bool:
    """Whether the mode set by the flags drawn so far ignores `flag` (a usage error)."""
    if command == "mimo" and "--dim" in given:
        return flag in ("--snr-db", "--trials", "--seed", "--method", "--csv")
    if command == "figure":
        return name != "cap_approx" and flag in ("--trials", "--seed")
    return (given.get("--scheme"), flag) in ((["coop"], "--side"), (["nocoop"], "--levels"))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_SUBCOMMANDS, "bogus"]))
    argv, name = [command], None
    if command == "figure":
        name = draw(st.sampled_from([*FIGURES, "bogus", ABSENT]))
        argv += [] if name is ABSENT else [name]
    given = {}
    for flag in _SUBCOMMANDS.get(command, ()):
        valid, other = _FLAG_VALUES[flag]
        if _ignored(command, name, given, flag):
            kinds = ["absent"] * 3 + ["valid"]  # mostly left out, so most argvs reach the work
        else:
            kinds = ["valid"] * 3 + ["other"] * bool(other) + ["absent"]
        # the default of 1000 trials is a full Monte Carlo run: give --trials where one would run
        monte_carlo = command == "mimo" and "--dim" not in given or name == "cap_approx"
        if flag == "--trials" and monte_carlo:
            kinds = [k for k in kinds if k != "absent"]
        kind = draw(st.sampled_from(kinds))
        if kind != "absent":
            value = draw(st.sampled_from(valid if kind == "valid" else other))
            given[flag] = [] if value is None else [value]
    for flag in draw(st.permutations(list(given))):
        argv += [flag, *given[flag]]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=_argvs())
def test_every_argv_exits_0_2_or_3(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace("{dir}", tmp) for token in argv]
        code, out, err = invoke(argv)
        csv_path = next((argv[i + 1] for i, t in enumerate(argv) if t == "--csv"), None)
        written = Path(csv_path).read_text() if csv_path and os.path.exists(csv_path) else ""
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE), (code, err)
    assert "Traceback" not in err
    if code == EXIT_OK:
        assert err == ""
        assert (out == "") == bool(csv_path) and (written != "") == bool(csv_path)
        return
    assert (out, written) == ("", "")
    lines = err.splitlines()
    if lines[0].startswith("usage: "):  # argparse's message: usage, then "pnc ...: error: ..."
        assert code == EXIT_USAGE and ": error: " in lines[-1]
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ") and err.endswith("\n")


# --- one parser per process -----------------------------------------------------


def fresh(argv):
    """invoke(argv) on a newly built parser, as the first run of a process has it."""
    pnc.cli._parser.cache_clear()
    return invoke(argv)


def test_the_parser_is_built_once(monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    pnc.cli._parser.cache_clear()
    monkeypatch.setattr(pnc.cli, "build_parser", counted)
    assert invoke(["bounds", "--ma", "4", "--mb", "16"])[0] == EXIT_OK
    assert invoke(["profile", "--ma", "4", "--mb", "16"])[0] == EXIT_OK
    assert len(built) == 1


@pytest.mark.parametrize(
    "first, then, codes",
    [
        ("audit --ma 4 --mb 16 --scheme coop --side bob", "audit --ma 4 --mb 16 --scheme coop", (2, 0)),
        ("mimo --m 4 --n 3 --dim --trials 5", "mimo --m 4 --n 3 --dim", (2, 0)),
        ("--help", "audit --ma 4 --mb 16 --scheme bogus", (0, 2)),
    ],
)
def test_a_run_leaves_nothing_for_the_next(first, then, codes):
    expected = [fresh(first.split()), fresh(then.split())]
    pnc.cli._parser.cache_clear()
    assert [invoke(first.split()), invoke(then.split())] == expected
    assert tuple(code for code, _, _ in expected) == codes


@settings(max_examples=50, deadline=None)
@given(argvs=st.lists(_argvs(), min_size=2, max_size=6))
def test_the_shared_parser_carries_nothing_between_runs(argvs):
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [[token.replace("{dir}", tmp) for token in argv] for argv in argvs]
        expected = [fresh(argv) for argv in argvs]
        pnc.cli._parser.cache_clear()
        assert [invoke(argv) for argv in argvs] == expected
