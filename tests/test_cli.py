"""Flag parsing, config precedence, record formats, and exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swiftagg import cli
from swiftagg.cli import (
    CONFIG_KEYS,
    MAX_SHARE_ENTRIES,
    RUN_KEYS,
    build_parser,
    build_run_config,
    main,
    run_experiments,
)
from swiftagg.errors import ConfigError


DATA = Path(__file__).resolve().parent / "data"
# A record's wall-clock ``elapsed``: a JSON value, or the last CSV column.
ELAPSED = re.compile(r'("elapsed": |^(?:true|false),.*,)[0-9.e-]+', re.M)


def golden(name):
    """Standard output pinned in ``tests/data``, ``elapsed`` values written as ``*``."""
    return (DATA / name).read_text(encoding="utf-8")


def masked(out):
    return ELAPSED.sub(r"\1*", out)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_run_args(*argv):
    return build_parser().parse_args(["run", *argv])


def test_motivating_run_record(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "12", "--t", "2", "--d", "1", "--drop", "7", "--seed", "3"
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["recovered_ok"] is True
    assert record["r_uplink_actual"] == 3
    assert record["r_uplink_required"] == 3
    assert list(record) == [
        "recovered_ok", "r_user", "r_uplink_actual", "r_uplink_required", "elapsed",
    ]
    assert masked(out) == golden("cli_run_n12.out")
    code, out, _ = run_cli(
        capsys, "run", "--n", "60", "--t", "2", "--d", "2", "--model-len", "16",
        "--shuffle-groups", "--drop-rate", "0.05", "--reps", "3", "--format", "csv",
    )
    assert code == 0
    assert masked(out) == golden("cli_run_n60.csv")


def test_wrong_recovered_entry_fails_its_record(capsys, monkeypatch):
    real_simulate = cli.simulate
    calls = []

    def first_run_off_by_one(*args, **kwargs):
        result = real_simulate(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            return result
        field = result.recovered.field
        values = list(result.recovered.values)
        values[-1] = (values[-1] + 1) % field.p
        return result._replace(recovered=field.vector(values))

    monkeypatch.setattr(cli, "simulate", first_run_off_by_one)
    code, out, _ = run_cli(
        capsys, "run", "--n", "12", "--t", "2", "--d", "1", "--drop", "7", "--reps", "2"
    )
    assert code == 1
    assert [json.loads(line)["recovered_ok"] for line in out.splitlines()] == [False, True]


def test_small_run_user_load(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "4", "--t", "1", "--d", "0")
    assert code == 0
    assert json.loads(out.strip())["r_user"] == 6  # (4-1) * 2


def test_indivisible_n_is_config_error(capsys):
    code, out, err = run_cli(capsys, "run", "--n", "5", "--t", "1", "--d", "1")
    assert code == 2
    assert out == ""
    assert "n:" in err


def test_warning_only_for_an_accepted_command(capsys):
    # A rejected t = 1 command prints its error alone: no warning for a run
    # that never starts.
    for flags, error in (
        (["--drop", "9"], "drop: victim 9 is not a user id in [1, 6]"),
        (["--adversary", "1", "2"], "adversary: 2 colluders exceed the collusion bound t=1"),
    ):
        code, out, err = run_cli(capsys, "run", "--n", "6", "--t", "1", "--d", "1", *flags)
        assert (code, out, err) == (2, "", f"error: {error}\n")
    # An accepted one warns exactly once, before its output.
    line = (
        "warning: t=1 is below the protocol's stated collusion range "
        "2 <= t < n - d; execution is still exact\n"
    )
    for argv in (["run", "--n", "4", "--t", "1", "--d", "0"], ["table", "--t", "1", "--d", "0"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, line)
        assert out


def test_missing_required_field(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "4")
    assert code == 2
    assert "t: required" in err


def test_validation_paths(capsys):
    cases = [
        (["--n", "4", "--t", "1", "--d", "0", "--drop", "1"], "drop:"),
        (["--n", "4", "--t", "1", "--d", "0", "--adversary", "1", "2"], "adversary:"),
        (["--n", "4", "--t", "1", "--d", "0", "--field", "6"], "field:"),
        (["--n", "4", "--t", "1", "--d", "0", "--drop-rate", "2.0"], "drop_rate:"),
        (["--n", "6", "--t", "1", "--d", "1", "--drop", "1", "--drop-rate", "0.5"], "drop_rate:"),
        (["--n", "4", "--t", "1", "--d", "0", "--reps", "0"], "reps:"),
        (["--n", "0", "--t", "1", "--d", "0"], "n:"),
        (["--n", "4", "--t", "0", "--d", "0"], "t:"),
        (["--n", "4", "--t", "1", "--d", "-1"], "d:"),
        (["--n", "4", "--t", "1", "--d", "0", "--model-len", "0"], "model_len:"),
        (["--n", "4", "--t", "1", "--d", "0", "--field", "2"], "field:"),
        (["--n", "6", "--t", "1", "--d", "1", "--drop", "9"], "drop:"),
        (["--n", "6", "--t", "1", "--d", "1", "--drop", "1", "1"], "drop:"),
        (["--n", "4", "--t", "1", "--d", "0", "--adversary", "0"], "adversary:"),
        (["--n", "4", "--t", "1", "--d", "0", "--adversary", "0", "-1,0"], "adversary:"),
        (["--n", "4", "--t", "1", "--d", "0", "--drop", "-2,3"], "drop:"),
    ]
    for argv, needle in cases:
        code, _, err = run_cli(capsys, "run", *argv)
        assert code == 2, argv
        assert needle in err, (argv, err)


def test_json_and_csv_agree_field_for_field():
    config = build_run_config(
        parse_run_args("--n", "6", "--t", "1", "--d", "1", "--drop", "2", "--seed", "5")
    )
    json_buf, csv_buf = io.StringIO(), io.StringIO()
    with redirect_stdout(json_buf):
        run_experiments(config)
    config_csv = build_run_config(
        parse_run_args(
            "--n", "6", "--t", "1", "--d", "1", "--drop", "2", "--seed", "5",
            "--format", "csv",
        )
    )
    with redirect_stdout(csv_buf):
        run_experiments(config_csv)

    json_record = json.loads(json_buf.getvalue().strip())
    rows = list(csv.DictReader(io.StringIO(csv_buf.getvalue())))
    assert len(rows) == 1
    csv_record = rows[0]
    assert csv_record["recovered_ok"] == ("true" if json_record["recovered_ok"] else "false")
    for key in ("r_user", "r_uplink_actual", "r_uplink_required"):
        assert int(csv_record[key]) == json_record[key]
    assert "elapsed" in csv_record


def test_same_config_and_seed_reproduces_results():
    argv = ("--n", "12", "--t", "2", "--d", "1", "--drop-rate", "0.1",
            "--seed", "9", "--reps", "4")
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            run_experiments(build_run_config(parse_run_args(*argv)))
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        # wall-clock timing is the only nondeterministic field
        outputs.append([{k: v for k, v in r.items() if k != "elapsed"} for r in records])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 4


def test_config_file_with_flag_precedence(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\n"
        "n=6\n"
        "t=1\n"
        "d=1\n"
        "drop=2\n"
        "seed=1\n"
        "model_len=2\n"
        "server_curious=true\n"
    )
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert json.loads(out.strip())["recovered_ok"] is True

    # flags override the file: force an invalid n to prove the flag won
    code, _, err = run_cli(capsys, "run", "--config", str(path), "--n", "5")
    assert code == 2
    assert "n:" in err


def test_config_file_bad_line(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("n 6\n")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "config:" in err


def run_module(*argv):
    """Run ``python -m swiftagg`` in a fresh process; return it and its wall time."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "swiftagg", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return out, time.perf_counter() - start


def test_config_file_that_is_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"n=6\n\xff\xfe=1\n")
    out, _ = run_module("run", "--config", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert "config:" in out.stderr
    assert "Traceback" not in out.stderr


def test_config_file_unknown_key(tmp_path, capsys):
    path = tmp_path / "typo.cfg"
    path.write_text("n=6\nt=1\nd=1\nmodellen=3\n")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "config: line 4: unknown key 'modellen'" in err


def test_config_file_duplicate_key(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("n=6\nt=2\nd=1\nn=8\n")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "config: line 4: duplicate key 'n' (first set on line 1)" in err


@pytest.mark.parametrize(
    "config, flags",
    [
        ("n=8\nt=2\nd=1\nmodel_len=99999999999\n", []),
        ("", ["--n", "4000000000", "--t", "2", "--d", "1"]),
    ],
)
def test_oversized_run_is_rejected_before_it_runs(tmp_path, config, flags):
    path = tmp_path / "size.cfg"
    path.write_text(config)
    out, elapsed = run_module("run", "--config", str(path), *flags)
    assert out.returncode == 2
    assert out.stdout == ""
    # n = 4000000000 is over the limit at any model length, so the error names n.
    prefix = "error: n:" if "--n" in flags else "error: model_len:"
    assert out.stderr.startswith(prefix)
    assert "Traceback" not in out.stderr
    assert elapsed < 1.0


def test_run_size_limit_is_inclusive():
    at_limit = 1 << 19
    assert 8 * 4 * at_limit == MAX_SHARE_ENTRIES  # n * (t+d+1) * model_len
    config = build_run_config(
        parse_run_args("--n", "8", "--t", "2", "--d", "1", "--model-len", str(at_limit))
    )
    assert config.params.model_len == at_limit
    with pytest.raises(ConfigError, match="^model_len: "):
        build_run_config(
            parse_run_args("--n", "8", "--t", "2", "--d", "1", "--model-len", str(at_limit + 1))
        )


def test_config_file_bad_drop_rate(tmp_path, capsys):
    path = tmp_path / "rate.cfg"
    path.write_text("n=6\nt=1\nd=1\ndrop_rate=abc\n")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "drop_rate:" in err


def test_duplicate_adversary_ids_rejected(capsys):
    code, out, err = run_cli(
        capsys, "run", "--n", "6", "--t", "2", "--d", "0", "--adversary", "3", "3"
    )
    assert code == 2
    assert out == ""
    assert "adversary: duplicate" in err


def test_shuffle_and_adversary_flags_still_recover(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--n", "12", "--t", "2", "--d", "1",
        "--adversary", "3", "5", "--server-curious", "--shuffle-groups",
        "--reps", "2",
    )
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["recovered_ok"] is True


def test_privacy_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "privacy")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5
    assert all(r["verdict"] == "independent" for r in records)
    assert out == golden("cli_privacy.out")


def test_privacy_does_not_warn_about_its_own_instances():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def stderr_of(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        ).stderr

    # The same interpreter setup does show the warning for user-built t = 1 params.
    built = stderr_of(
        "-c",
        "from swiftagg import FieldSpec, ProtocolParams\n"
        "ProtocolParams(6, 1, 1, 1, FieldSpec(101))",
    )
    assert "CollusionBoundWarning" in built
    assert "CollusionBoundWarning" not in stderr_of("-m", "swiftagg", "privacy")
    # User-chosen t = 1 on the command line: one plain line, no source location.
    line = (
        "warning: t=1 is below the protocol's stated collusion range "
        "2 <= t < n - d; execution is still exact\n"
    )
    assert stderr_of("-m", "swiftagg", "run", "--n", "4", "--t", "1", "--d", "0") == line
    assert stderr_of("-m", "swiftagg", "table", "--t", "1", "--d", "0") == line


def test_privacy_no_noise_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "privacy", "--no-noise")
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    dependent = [r for r in records if r["verdict"] == "dependent"]
    assert dependent and all("witness" in r for r in dependent)
    (pinned,) = [r for r in dependent if r["instance"].startswith("n4_t1_d0_p3")]
    assert pinned["witness"] == {
        "aggregate": 0,
        "assignment_a": [0, 0, 0],
        "assignment_b": [0, 1, 2],
        "view": "(((3, (0,), ((0,),)),), ((0,), (0,)), ((0,), (0,)))",
        "count_a": 1,
        "count_b": 0,
    }
    assert out == golden("cli_privacy_no_noise.out")


def test_table_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table", "--t", "2", "--d", "1", "--model-len", "10")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[-1] == {"approach": "SwiftAgg", "server_comm": 30, "per_user_comm": 40}


# ---------------------------------------------------------------------------
# One read path: a flag and a config line give the same text to one reader
# ---------------------------------------------------------------------------

SHAPE = {"n": "12", "t": "2", "d": "1"}
# A valid value of each key, away from its default, as a config line gives it.
VALID_VALUES = {
    "n": "24", "t": "4", "d": "3", "model_len": "5", "field": "4294967291",
    "seed": "7", "drop": "7", "drop_rate": "0.25", "adversary": "3,5",
    "server_curious": "true", "reps": "2", "format": "csv", "shuffle_groups": "yes",
}
# Booleans are --x/--no-x flags, so only a config line can give a bad one.
BAD_VALUES = [
    ("n", "x"), ("n", ""), ("t", "2.5"), ("d", "one"), ("model_len", "1e3"),
    ("field", "p"), ("seed", "seven"), ("drop", "a,b"), ("drop", "1;2"),
    ("drop_rate", "abc"), ("adversary", "x"), ("reps", "two"), ("reps", ""),
    ("format", "xml"), ("format", ""),
]


def flag_argv(key, text):
    flag = "--" + key.replace("_", "-")
    if key in ("server_curious", "shuffle_groups"):
        return [flag if text in ("true", "yes") else "--no-" + flag[2:]]
    return [flag, text]


def both_ways(tmp_path, key, text):
    """``run`` argv giving ``key`` as a flag, and argv giving it as a config line."""
    shape = [arg for k, v in SHAPE.items() if k != key for arg in ("--" + k, v)]
    path = tmp_path / "one.cfg"
    path.write_text(f"{key}={text}\n")
    return ["run", *shape, *flag_argv(key, text)], ["run", *shape, "--config", str(path)]


def test_value_tables_cover_every_run_key():
    assert set(VALID_VALUES) == set(RUN_KEYS) == CONFIG_KEYS
    booleans = {"server_curious", "shuffle_groups"}
    assert {key for key, _ in BAD_VALUES} == set(RUN_KEYS) - booleans


@pytest.mark.parametrize("key", sorted(RUN_KEYS))
def test_flag_and_config_line_build_equal_configs(tmp_path, key):
    by_flag, by_file = both_ways(tmp_path, key, VALID_VALUES[key])
    parser = build_parser()
    config = build_run_config(parser.parse_args(by_flag))
    assert config == build_run_config(parser.parse_args(by_file))
    assert config != build_run_config(parse_run_args("--n", "12", "--t", "2", "--d", "1"))


@pytest.mark.parametrize("key, text", BAD_VALUES)
def test_bad_value_reads_the_same_from_flag_and_config_line(tmp_path, capsys, key, text):
    by_flag, by_file = both_ways(tmp_path, key, text)
    line = f"error: {key}: expected {RUN_KEYS[key].what}, got {text!r}\n"
    assert run_cli(capsys, *by_flag) == run_cli(capsys, *by_file) == (2, "", line)


def test_list_flag_tokens_may_hold_commas(tmp_path):
    path = tmp_path / "drop.cfg"
    path.write_text("drop=1,5\nadversary=2,3\n")
    shape = ["--n", "10", "--t", "2", "--d", "2"]
    configs = [
        build_run_config(parse_run_args(*shape, *rest))
        for rest in (
            ["--drop", "1", "5", "--adversary", "2", "3"],
            ["--drop", "1,5", "--adversary", "2,3"],
            ["--config", str(path)],
        )
    ]
    assert configs[0].drop == (1, 5)
    assert configs[0].adversary.colluders == {2, 3}
    assert all(config == configs[0] for config in configs)


@pytest.mark.parametrize("key", ["drop", "adversary", "drop_rate"])
def test_empty_list_or_rate_means_none_from_either_place(tmp_path, key):
    by_flag, by_file = both_ways(tmp_path, key, "")
    plain = build_run_config(parse_run_args("--n", "12", "--t", "2", "--d", "1"))
    assert build_run_config(build_parser().parse_args(by_flag)) == plain
    assert build_run_config(build_parser().parse_args(by_file)) == plain


def test_table_reads_flags_like_run(capsys):
    assert run_cli(capsys, "table", "--t", "x", "--d", "1") == (
        2, "", "error: t: expected an integer, got 'x'\n"
    )
    code, out, err = run_cli(capsys, "table", "--t", "2", "--d", "1", "--model-len", "")
    assert (code, out) == (2, "")
    assert err == "error: model_len: expected an integer, got ''\n"


def test_abbreviated_list_flag_names_its_key(capsys):
    # argparse takes any unambiguous prefix of --adversary, and --flag=value.
    for flag in (["--adv", "0"], ["--a", "0"], ["--adversary=0"]):
        code, out, err = run_cli(
            capsys, "run", "--n", "12", "--t", "2", "--d", "1", *flag, "-1,0"
        )
        assert code == 2, flag
        assert out == ""
        assert err == "error: adversary: expected comma-separated ids, got '-1,0'\n", flag


def test_unknown_flag_keeps_argparse_message(capsys):
    for argv in (["--bogus", "-1,0"], ["4"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--n", "12", "--t", "2", "--d", "1", *argv])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: " in capsys.readouterr().err


def test_table_without_a_prime_field_is_config_error(capsys):
    # no prime below 2**32 exceeds t+d+1 = 4294967291, the largest such prime
    code, out, err = run_cli(capsys, "table", "--t", "4294967290", "--d", "0")
    assert code == 2
    assert out == ""
    assert "t:" in err
    code, _, err = run_cli(capsys, "table", "--t", "1", "--d", str(1 << 40))
    assert code == 2
    assert "t:" in err
    code, _, err = run_cli(capsys, "table", "--t", "2", "--d", "-3")
    assert code == 2
    assert "d:" in err
    code, _, err = run_cli(capsys, "table", "--t", "2", "--d", "1", "--model-len", "0")
    assert code == 2
    assert "model_len:" in err


# ---------------------------------------------------------------------------
# Fuzzed arguments
# ---------------------------------------------------------------------------

EDGE_VALUES = ["0", "-1", "nan", "inf", "", str(1 << 32), "2147483659", "99999999999"]
fuzz_value = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.sampled_from(["1", "2", "3", "5"]),
    st.lists(st.sampled_from(EDGE_VALUES + ["1", "2"]), min_size=2, max_size=3).map(",".join),
)
# ``reps`` repeats the whole run, so it never draws a large count.
fuzz_reps = st.sampled_from(["0", "-1", "nan", "inf", "", "1", "2"])
VALID_SHAPES = [[], ["--n", "12", "--t", "2", "--d", "1"], ["--n", "6", "--t", "1", "--d", "1"]]


@st.composite
def run_arguments(draw, config_path):
    """``run`` flags over a valid or missing shape, plus a fuzzed config file."""
    def value(key):
        return draw(fuzz_reps if key == "reps" else fuzz_value)

    keys = st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True, max_size=2)
    argv = ["run", *draw(st.sampled_from(VALID_SHAPES)), "--config", config_path]
    for key in draw(keys):
        flag = "--" + key.replace("_", "-")
        if key in ("server_curious", "shuffle_groups"):
            argv.append(draw(st.sampled_from([flag, "--no-" + flag[2:]])))
        elif key in ("drop", "adversary"):
            argv += [flag, *draw(st.lists(fuzz_value, min_size=1, max_size=2))]
        else:
            argv += [flag, value(key)]
    config = "".join(f"{key}={value(key)}\n" for key in draw(keys))
    return argv, config


@st.composite
def table_arguments(draw):
    argv = ["table", "--t", draw(fuzz_value), "--d", draw(fuzz_value)]
    if draw(st.booleans()):
        argv += ["--model-len", draw(fuzz_value)]
    return argv, ""


@settings(max_examples=300, deadline=5000)
@given(pick=st.data())
def test_fuzzed_arguments_exit_cleanly(pick):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.cfg")
        argv, config = pick.draw(st.one_of(run_arguments(path), table_arguments()))
        Path(path).write_text(config)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
    assert code in (0, 1, 2), (argv, config)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        (line,) = [line for line in err.getvalue().splitlines() if "error: " in line]
        named = re.search(r"error: (?:argument --)?([a-z_-]+):", line)
        assert named, line
        assert named.group(1).replace("-", "_") in CONFIG_KEYS | {"config"}, line
