import io
import json
import os
import signal
import subprocess
import sys

import pytest

import superschur
from superschur import cli
from superschur.cli import _parse_hook, _parse_hooks, build_parser, main
from superschur.laurent import LaurentPoly
from superschur.partitions import Hook


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_parse_hook_helpers():
    assert _parse_hook("2,1") == Hook(2, 1)
    assert _parse_hooks("1,1;2,1") == [Hook(1, 1), Hook(2, 1)]
    assert _parse_hooks("1,1 2,2") == [Hook(1, 1), Hook(2, 2)]
    with pytest.raises(Exception):
        _parse_hook("2")


def test_mlambda_value():
    code, text = run_cli("mlambda", "--lambda", "2", "--hook", "1,1")
    assert code == 0 and text.strip() == "2"
    # bar variant sums over the one-box extensions (2) and (1,1)
    code, text = run_cli("mlambda", "--lambda", "1", "--hook", "1,1", "--bar")
    assert code == 0 and text.strip() == "2"


def test_mprime_routes_agree():
    for route in ("residue", "char"):
        code, text = run_cli("mprime", "--lambda", "2", "--hook", "1,1",
                             "--route", route)
        assert code == 0 and text.strip() == "2"


def test_mprime_empty_partition():
    code, text = run_cli("mprime", "--lambda", "-", "--hook", "1,1")
    assert code == 0 and text.strip() == "0"


def test_series_json_univariate():
    code, text = run_cli("series", "--mode", "prime", "--hook", "1,1",
                         "--n", "1", "--m", "0", "--degree", "5",
                         "--route", "char", "--format", "json")
    assert code == 0
    assert json.loads(text) == [0, 1, 2, 3, 4, 5]


def test_series_text_univariate():
    # README's one-variable example: the coefficients by degree on one
    # line, space-separated, the same list as --format json
    argv = ["series", "--mode", "prime", "--hook", "2,1", "--n", "1",
            "--degree", "10"]
    code, text = run_cli(*argv)
    code_json, listed = run_cli(*argv, "--format", "json")
    coeffs = json.loads(listed)
    assert code == code_json == 0 and len(coeffs) == 11
    assert text == " ".join(map(str, coeffs)) + "\n"


def test_series_csv_univariate():
    code, text = run_cli("series", "--mode", "prime", "--hook", "1,1",
                         "--degree", "3", "--route", "char", "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("degree")
    assert lines[1].split(",")[:2] == ["0", "0"]


def test_series_multivariate_json():
    code, text = run_cli("series", "--mode", "plain", "--hook", "1,1",
                         "--n", "1", "--m", "1", "--degree", "2",
                         "--route", "char", "--format", "json")
    assert code == 0
    rows = json.loads(text)
    assert all(set(r) == {"exponents", "coeff"} for r in rows)


def test_series_csv_multivariate():
    # one term per row, in descending graded-lex order; text joins the
    # same terms with " + "
    argv = ("series", "--mode", "prime", "--hook", "1,1", "--n", "1", "--m", "1",
            "--degree", "2", "--route", "char", "--format")
    code, text = run_cli(*argv, "csv")
    assert code == 0
    assert text.splitlines() == ["t1,u1,coefficient", "2,0,2", "1,1,2", "1,0,1", "0,1,1"]
    code, text = run_cli(*argv, "text")
    assert code == 0
    assert text == "2 * t1^2 + 2 * t1^1 u1^1 + 1 * t1^1 + 1 * u1^1\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_series_sorts_terms_once(fmt, monkeypatch):
    # a series of two or more variables is sorted once, whatever the format
    calls = []
    sorted_terms = LaurentPoly.sorted_terms

    def counted(self):
        calls.append(self)
        return sorted_terms(self)

    monkeypatch.setattr(LaurentPoly, "sorted_terms", counted)
    code, text = run_cli("series", "--mode", "prime", "--hook", "1,1", "--n", "1",
                         "--m", "1", "--degree", "2", "--route", "char",
                         "--format", fmt)
    assert code == 0 and text
    assert len(calls) == 1, fmt


def test_verify_budzik_passes():
    code, text = run_cli("verify", "budzik", "--max-size", "3",
                         "--hooks", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["summary"]["failures"] == 0
    assert payload["summary"]["cases"] == len(payload["reports"])


def test_verify_budzik_text_summary_first():
    code, text = run_cli("verify", "budzik", "--max-size", "2", "--hooks", "1,1")
    assert code == 0
    first = json.loads(text.splitlines()[0])
    assert first["suite"] == "budzik" and first["failures"] == 0


def test_verify_budzik_independent_of_jobs():
    runs = [run_cli("verify", "budzik", "--max-size", "4",
                    "--hooks", "1,1;2,1;2,2", "--jobs", jobs)
            for jobs in ("1", "4")]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_verify_lemmas_passes():
    code, text = run_cli("verify", "lemmas", "--max-size", "3",
                         "--hooks", "1,1", "--degree", "3", "--format", "json")
    assert code == 0
    assert json.loads(text)["summary"]["failures"] == 0


def test_verify_qidentities_passes():
    code, text = run_cli("verify", "qidentities", "--degree", "12",
                         "--max-kl", "2", "--format", "json")
    assert code == 0
    assert json.loads(text)["summary"]["failures"] == 0


def test_bad_usage_exits_2(capsys, monkeypatch):
    assert main(["mprime", "--lambda", "2"]) == 2  # missing --hook
    assert main(["nonsense"]) == 2
    assert main(["series", "--mode", "prime", "--hook", "1,1",
                 "--n", "0", "--m", "0"]) == 2  # no series variables
    assert main(["verify", "budzik", "--format", "csv"]) == 2  # text or json only
    # there is no termwise flag: --format csv prints one term per row
    assert main(["series", "--mode", "prime", "--hook", "1,1", "--dump-poly"]) == 2
    # a suite over no hook is refused, not passed with zero cases
    capsys.readouterr()
    for suite, hooks in (("budzik", ""), ("lemmas", ";")):
        assert main(["verify", suite, "--hooks", hooks]) == 2
        assert "--hooks" in capsys.readouterr().err
    # a degree out of range is named in the message, as the user gave it
    capsys.readouterr()
    assert main(["verify", "qidentities", "--degree", "-1"]) == 2
    assert "nonnegative, got -1" in capsys.readouterr().err
    # worker and size counts and the lemmas degree out of range are
    # rejected as parsed, not run serially, over no cases or after the
    # bar-jump rows
    def refuse(*args, **kwargs):
        raise AssertionError("suite ran on a bad argument")
    for suite in ("budzik_suite", "lemmas_suite", "qidentities_suite"):
        monkeypatch.setattr(cli, suite, refuse)
    for what, flag, value, message in (
            ("lemmas", "--degree", "0", "at least 1, got 0"),
            ("lemmas --max-size 5 --hooks 3,2", "--degree", "0", "at least 1, got 0"),
            ("budzik", "--jobs", "0", "at least 1, got 0"),
            ("budzik", "--jobs", "-3", "at least 1, got -3"),
            ("budzik", "--max-size", "-1", "at least 0, got -1"),
            ("qidentities", "--max-kl", "-1", "at least 0, got -1")):
        assert main(["verify", *what.split(), flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and message in err
    # a degree past the packing limit is refused before any work on
    # either route, naming the degree and the limit
    for route in ("residue", "char"):
        assert main(["series", "--mode", "prime", "--hook", "1,1", "--n", "1",
                     "--degree", "40000", "--route", route]) == 2
        err = capsys.readouterr().err
        assert "40000" in err and "32767" in err
    # the bar kernel's letter reaches one past its top, and the refusal
    # names that value, not the top the degree gives
    assert main(["series", "--mode", "barprime", "--hook", "1,1", "--n", "0",
                 "--m", "1", "--degree", "32767", "--route", "residue"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: kernel top 32768, counting the bar letter, is past "
                   "the packing limit 32767\n"), err
    # a flag the suite does not read is refused, not silently ignored
    for argv, flag in ((["budzik", "--degree", "9"], "--degree"),
                       (["qidentities", "--hooks", "2,2", "--jobs", "4"], "--hooks"),
                       (["qidentities", "--jobs", "4"], "--jobs"),
                       (["lemmas", "--max-kl", "1"], "--max-kl")):
        assert main(["verify", *argv]) == 2
        assert flag in capsys.readouterr().err


def test_bad_argument_names_its_reason(capsys):
    # a value the parser cannot take is refused with the reason of the
    # check that failed, not the name of a parsing helper
    for argv, reason in (
            (["series", "--mode", "plain", "--hook", "2,-1"],
             "hook entries must be nonnegative"),
            (["mprime", "--lambda", "3,0,1", "--hook", "1,1"],
             "parts must be positive integers"),
            (["mlambda", "--lambda", "1,2", "--hook", "1,1"],
             "parts must be weakly decreasing"),
            (["verify", "budzik", "--hooks", "2,x"], "invalid literal for int()")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert reason in err and "_parse" not in err, err


def test_partition_past_the_limit_exits_2_without_traceback(capsys):
    # a valid partition of a size no character table can reach is a usage
    # error naming it, on both character-sum commands; the residue route
    # of mprime never builds a character table
    huge = "99999999999999999999"
    for argv in (["mlambda", "--lambda", huge, "--hook", "1,1"],
                 ["mprime", "--lambda", huge, "--hook", "1,1", "--route", "char"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and huge in err and "32767" in err, err
    fresh = subprocess.run([sys.executable, "-m", "superschur.cli", "mlambda",
                            "--lambda", huge, "--hook", "1,1"],
                           capture_output=True, env=_package_env(), timeout=60)
    assert fresh.returncode == 2 and fresh.stdout == b""
    assert fresh.stderr.startswith(b"error: ") and b"Traceback" not in fresh.stderr


def test_key_error_is_a_bug_not_bad_input(monkeypatch):
    # only ValueError is bad input: no input path raises KeyError, so one
    # comes from a bug and escapes with its traceback instead of exiting 2
    def broken(*args, **kwargs):
        raise KeyError("missing")
    monkeypatch.setattr(cli, "p_series", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["series", "--mode", "prime", "--hook", "1,1"], out=io.StringIO())


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["mlambda", "--lambda", "3,1", "--hook", "2,1"])
    assert args.lam == (3, 1) and args.hook == Hook(2, 1)
    assert build_parser() is parser


def _package_env():
    # the directory that holds the superschur package imported here
    root = os.path.dirname(os.path.dirname(os.path.abspath(superschur.__file__)))
    return dict(os.environ, PYTHONPATH=root)


def test_import_loads_no_dataclass_machinery():
    # every command starts a fresh interpreter: importing the package and
    # its command line must not pull in dataclasses and inspect (and the
    # ast, dis and tokenize modules inspect loads), nor the process pool,
    # which `verify budzik` imports only when it pools
    code = ("import sys, superschur, superschur.cli; "
            "print(sorted({'dataclasses', 'inspect', 'multiprocessing', "
            "'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_package_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")


def test_reused_parser_matches_fresh_process(capsys):
    # one process parses a usage error, a series and a verify command with
    # the same parser; each must print what a fresh process prints
    for argv in (["series", "--mode", "prime"],
                 ["series", "--mode", "barprime", "--hook", "2,1", "--n", "1",
                  "--m", "1", "--degree", "4", "--format", "csv"],
                 ["verify", "lemmas", "--max-size", "2", "--hooks", "1,1;2,1",
                  "--degree", "3"]):
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "superschur.cli", *argv],
                               capture_output=True, env=_package_env(), timeout=60)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_silently():
    # the reader end is closed before the command writes its answer
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _package_env()
    try:
        proc = subprocess.run([sys.executable, "-m", "superschur.cli", "mlambda",
                               "--lambda", "2,1", "--hook", "1,1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE
