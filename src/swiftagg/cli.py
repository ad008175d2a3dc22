"""Experiment runner: simulations, privacy checks, and the load-comparison table.

Three subcommands:

* ``run``      -- execute repetitions of the protocol and stream one result
                  record per repetition (JSON lines or CSV).
* ``privacy``  -- run the exhaustive tiny-instance privacy checks.
* ``table``    -- emit the communication-load comparison rows.

Each key in ``RUN_KEYS`` is both a ``run`` flag and a line of an optional
``key=value`` config file; both give text that the key's one reader reads, and
a flag overrides the file.  Exit code is 0 on success, 1 when a correctness
check or privacy verdict fails, and 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import random
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ConfigError, IndivisibleNError, SwiftAggError, TooLargeError
from .field import MAX_MODULUS, FieldSpec, is_prime, sample_noise
from .protocol import DropoutPlan, ProtocolParams
from .privacy_oracle import run_privacy_suite
from .sharing import derive_subseed
from .simnet import AdversaryConfig, simulate, table1_analytic

RESULT_FIELDS = ("recovered_ok", "r_user", "r_uplink_actual", "r_uplink_required", "elapsed")


def _ids(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",")) if text else ()


def _rate(text: str) -> Optional[float]:
    return float(text) if text else None


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _out_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(text)
    return text


class RunKey(NamedTuple):
    read: Callable[[str], object]  # raises ValueError on a bad value
    what: str  # what a bad value's message says was expected
    default: Optional[str]  # as a config file would give it; None: required
    help: str


# Every key of ``run``: each is a flag and a config-file key, read alike.
RUN_KEYS = {
    "n": RunKey(int, "an integer", None, "number of users"),
    "t": RunKey(int, "an integer", None, "collusion bound"),
    "d": RunKey(int, "an integer", None, "dropout bound"),
    "model_len": RunKey(int, "an integer", "8", "model vector length"),
    "field": RunKey(int, "an integer", str((1 << 31) - 1), "prime field modulus"),
    "seed": RunKey(int, "an integer", "0", "run seed"),
    "drop": RunKey(_ids, "comma-separated ids", "", "explicit dropout user ids"),
    "drop_rate": RunKey(
        _rate, "a number", "", "sample victims uniformly without replacement, capped at d"
    ),
    "adversary": RunKey(_ids, "comma-separated ids", "", "colluding user ids"),
    "server_curious": RunKey(
        _boolean, "a boolean", "false", "include server uploads in the adversary view"
    ),
    "reps": RunKey(int, "an integer", "1", "number of repetitions"),
    "format": RunKey(_out_format, "json or csv", "json", "output format"),
    "shuffle_groups": RunKey(
        _boolean, "a boolean", "false",
        "seeded random group assignment instead of the contiguous layout",
    ),
}
CONFIG_KEYS = frozenset(RUN_KEYS)
# Most share entries, n * (t+d+1) * model_len, one run may hold: at this size
# a run peaks near 420 MiB and takes about 3 s (n = 32, t = 2, d = 1, on a
# 2-vCPU host with Python 3.11).
MAX_SHARE_ENTRIES = 1 << 24


def _bad_value(key: str, text: str) -> ConfigError:
    return ConfigError(f"{key}: expected {RUN_KEYS[key].what}, got {text!r}")


def _read(key: str, text: str):
    """Read one value of ``key`` with its reader, whether a flag or a file gave it."""
    try:
        return RUN_KEYS[key].read(text)
    except ValueError:
        raise _bad_value(key, text) from None


@dataclass
class RunConfig:
    params: ProtocolParams
    seed: int
    drop: tuple
    drop_rate: Optional[float]
    adversary: AdversaryConfig
    reps: int
    out_format: str
    shuffle_groups: bool


def _parse_config_file(path: str) -> dict:
    values = {}
    first_line = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config: line {lineno} is not key=value: {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"config: line {lineno}: unknown key {key!r}")
                if key in first_line:
                    raise ConfigError(
                        f"config: line {lineno}: duplicate key {key!r} "
                        f"(first set on line {first_line[key]})"
                    )
                first_line[key] = lineno
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return values


def _checked(prefix: str, build, *args):
    """Call into the library, turning its rejection into a ``ConfigError``.

    ``ProtocolParams`` messages already start with the parameter they name;
    ``prefix`` names the CLI field behind any other value object.
    """
    try:
        return build(*args)
    except (ValueError, IndivisibleNError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def build_run_config(args) -> RunConfig:
    """Resolve flags over file values over defaults; the library checks the bounds."""
    file_values = _parse_config_file(args.config) if args.config else {}
    values = {}
    for key, row in RUN_KEYS.items():
        flag = getattr(args, key)
        if isinstance(flag, list):  # the tokens after --drop or --adversary
            flag = ",".join(flag)
        # str() turns the bool of a --x/--no-x flag into text too.
        text = file_values.get(key, row.default) if flag is None else str(flag)
        if text is None:
            raise ConfigError(f"{key}: required (flag --{key} or config file)")
        values[key] = _read(key, text)
    n, t, d, model_len = values["n"], values["t"], values["d"], values["model_len"]
    drop, drop_rate, colluders, reps = (
        values["drop"], values["drop_rate"], values["adversary"], values["reps"]
    )

    if reps < 1:
        raise ConfigError(f"reps: must be >= 1, got {reps}")
    if drop and drop_rate is not None:
        raise ConfigError("drop_rate: give either an explicit drop list or a rate, not both")
    if drop_rate is not None and not 0.0 <= drop_rate <= 1.0:
        raise ConfigError(f"drop_rate: must be in [0, 1], got {drop_rate}")

    spec = _checked("field: ", FieldSpec, values["field"])
    params = _checked("", ProtocolParams, n, t, d, model_len, spec)
    entries = n * params.group_size * model_len
    if entries > MAX_SHARE_ENTRIES:
        # Name n when it is over the limit at any model length.
        culprit = "n" if n * params.group_size > MAX_SHARE_ENTRIES else "model_len"
        raise ConfigError(
            f"{culprit}: n*(t+d+1)*model_len = {entries} share entries exceed "
            f"the limit {MAX_SHARE_ENTRIES}"
        )
    plan = _checked("drop: ", DropoutPlan.uniform, drop)
    _checked("drop: ", plan.validate_for, params)
    adversary = _checked("adversary: ", AdversaryConfig.of, colluders, values["server_curious"])
    _checked("adversary: ", adversary.validate_for, params)

    return RunConfig(
        params=params,
        seed=values["seed"],
        drop=drop,
        drop_rate=drop_rate,
        adversary=adversary,
        reps=reps,
        out_format=values["format"],
        shuffle_groups=values["shuffle_groups"],
    )


def _sample_victims(config: RunConfig, rng: random.Random) -> tuple:
    if config.drop:
        return config.drop
    if config.drop_rate is None:
        return ()
    n = config.params.n
    count = min(config.params.d, round(config.drop_rate * n))
    return tuple(sorted(rng.sample(range(1, n + 1), count)))


def run_experiments(config: RunConfig) -> int:
    """Execute ``reps`` simulations; print one record each; nonzero on any failure."""
    params = config.params

    writer = None
    if config.out_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)

    all_ok = True
    for rep in range(config.reps):
        rep_rng = random.Random(derive_subseed(config.seed, f"rep-{rep}"))
        models = list(sample_noise(params.field, params.n, params.model_len, rep_rng))
        victims = _sample_victims(config, rep_rng)
        plan = DropoutPlan.uniform(victims)

        start = time.perf_counter()
        result = simulate(
            params,
            models,
            plan,
            config.adversary,
            seed=derive_subseed(config.seed, f"noise-{rep}"),
            group_shuffle=config.shuffle_groups,
        )
        elapsed = time.perf_counter() - start

        # Plain-int column sums, independent of the vector engine under test,
        # accumulated one model at a time so only one model's entries are unpacked.
        p = params.field.p
        sums = [0] * params.model_len
        for uid, m in enumerate(models, 1):
            if uid not in plan.excluded:
                sums = list(map(operator.add, sums, m.values))
        expected = tuple(s % p for s in sums)
        ok = result.recovered.field == params.field and result.recovered.values == expected
        all_ok = all_ok and ok

        record = {
            "recovered_ok": ok,
            "r_user": result.metrics.user_to_user_msgs,
            "r_uplink_actual": result.metrics.server_msgs,
            "r_uplink_required": params.t + 1,
            "elapsed": round(elapsed, 6),
        }
        if writer is not None:
            writer.writerow(
                ["true" if record["recovered_ok"] else "false"]
                + [record[k] for k in RESULT_FIELDS[1:]]
            )
        else:
            sys.stdout.write(json.dumps(record) + "\n")
    return 0 if all_ok else 1


def run_privacy(no_noise: bool) -> int:
    try:
        results = run_privacy_suite(no_noise=no_noise)
    except TooLargeError as exc:
        raise ConfigError(f"privacy: {exc}") from exc
    any_dependent = False
    for result in results:
        sys.stdout.write(json.dumps(result.to_json()) + "\n")
        any_dependent = any_dependent or not result.independent
    return 1 if any_dependent else 0


def build_table_params(args) -> ProtocolParams:
    """A parameter holder for the analytic rows, which do not depend on n."""
    t, d, model_len = (_read(key, getattr(args, key)) for key in ("t", "d", "model_len"))
    nu = t + d + 1
    p = next((q for q in range(max(nu, 1) + 1, MAX_MODULUS) if is_prime(q)), None)
    if p is None:
        raise ConfigError(f"t: no prime modulus below 2**32 exceeds the group size t+d+1={nu}")
    return _checked("", ProtocolParams, 2 * nu, t, d, model_len, FieldSpec(p))


def run_table(params: ProtocolParams) -> int:
    for row in table1_analytic(params):
        sys.stdout.write(json.dumps(row) + "\n")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # Flags give text, as a config line does; build_run_config reads both.
    for key, row in RUN_KEYS.items():
        flag = "--" + key.replace("_", "-")
        if row.read is _boolean:
            parser.add_argument(
                flag, dest=key, action=argparse.BooleanOptionalAction, help=row.help
            )
        else:
            nargs = "*" if row.read is _ids else None
            parser.add_argument(flag, dest=key, nargs=nargs, help=row.help)
    parser.add_argument("--config", help="key=value config file; flags take precedence")


def _reject_dash_led_ids(argv: Sequence[str], leftover: Sequence[str]) -> None:
    """Name the list flag behind a value argparse took for an option, e.g. ``-1,0``."""
    flags = ["--" + key.replace("_", "-") for key in RUN_KEYS]
    key = None
    for token in argv:
        if token.startswith("--"):
            # As argparse resolves it: the exact flag, else the one flag it begins.
            head = token.split("=", 1)[0]
            named = [f for f in flags if f == head] or [f for f in flags if f.startswith(head)]
            key = named[0][2:] if len(named) == 1 else None
        elif token.startswith("-") and token in leftover and key in ("drop", "adversary"):
            raise _bad_value(key, token)  # no user id starts with a dash


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swiftagg", description="Secure-aggregation protocol simulator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate protocol repetitions")
    _add_run_flags(run_parser)

    privacy_parser = sub.add_parser("privacy", help="exhaustive tiny-instance privacy checks")
    privacy_parser.add_argument(
        "--no-noise", action="store_true",
        help="negative control: run with all masking noise zeroed",
    )

    table_parser = sub.add_parser("table", help="communication-load comparison rows")
    table_parser.add_argument("--t", required=True)
    table_parser.add_argument("--d", required=True)
    table_parser.add_argument("--model-len", dest="model_len", default="1")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, leftover = parser.parse_known_args(argv)
    try:
        if leftover:
            if args.command == "run":
                _reject_dash_led_ids(argv, leftover)
            parser.error(f"unrecognized arguments: {' '.join(leftover)}")
        if args.command == "privacy":
            return run_privacy(args.no_noise)
        run = args.command == "run"
        # A library warning becomes a plain ``warning:`` line once every value is accepted.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            built = build_run_config(args) if run else build_table_params(args)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return run_experiments(built) if run else run_table(built)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SwiftAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
