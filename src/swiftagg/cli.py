"""Experiment runner: simulations, privacy checks, and the load-comparison table.

Three subcommands:

* ``run``      -- execute repetitions of the protocol and stream one result
                  record per repetition (JSON lines or CSV).
* ``privacy``  -- run the exhaustive tiny-instance privacy checks.
* ``table``    -- emit the communication-load comparison rows.

Flags override values from an optional ``key=value`` config file.  Exit code
is 0 on success, 1 when a correctness check or privacy verdict fails, and 2
for configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, IndivisibleNError, SwiftAggError, TooLargeError
from .field import MAX_MODULUS, FieldSpec, is_prime
from .protocol import DropoutPlan, ProtocolParams
from .privacy_oracle import run_privacy_suite
from .sharing import derive_subseed, sample_noise
from .simnet import AdversaryConfig, simulate, table1_analytic

RESULT_FIELDS = ("recovered_ok", "r_user", "r_uplink_actual", "r_uplink_required", "elapsed")

DEFAULTS = {
    "model_len": 8,
    "field": (1 << 31) - 1,
    "seed": 0,
    "drop_rate": None,
    "server_curious": False,
    "reps": 1,
    "format": "json",
    "shuffle_groups": False,
}
# Every key a config file may set: the long flags of ``run`` without --config.
CONFIG_KEYS = frozenset(DEFAULTS) | {"n", "t", "d", "drop", "adversary"}
# Most share entries, n * (t+d+1) * model_len, one run may hold: at this size
# a run peaks near 400 MiB and takes about 3 s.
MAX_SHARE_ENTRIES = 1 << 24


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


def _as_bool(field_name: str, raw) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).lower()
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ConfigError(f"{field_name}: expected a boolean, got {raw!r}")


def _as_int(field_name: str, raw) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{field_name}: expected an integer, got {raw!r}") from None


def _as_float(field_name: str, raw) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{field_name}: expected a number, got {raw!r}") from None


def _as_id_list(field_name: str, raw) -> tuple:
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple)):
        return tuple(int(v) for v in raw)
    text = str(raw).strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{field_name}: expected comma-separated ids, got {raw!r}") from None


def _merge(flag_value, file_values: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return file_values[key]
    return default


def _checked(prefix: str, build, *args):
    """Call into the library, turning its rejection into a ``ConfigError``.

    ``ProtocolParams`` messages already start with the parameter they name;
    ``prefix`` names the CLI field behind any other value object.  A library
    warning becomes one ``warning:`` line on stderr, with no source location.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = build(*args)
        except (ValueError, IndivisibleNError) as exc:
            raise ConfigError(f"{prefix}{exc}") from exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return built


def build_run_config(args) -> RunConfig:
    """Resolve flags over file values over defaults; the library checks the bounds."""
    file_values = _parse_config_file(args.config) if args.config else {}

    def pick(key, default=None):
        return _merge(getattr(args, key.replace("-", "_")), file_values, key, default)

    n = pick("n")
    t = pick("t")
    d = pick("d")
    if n is None:
        raise ConfigError("n: required (flag --n or config file)")
    if t is None:
        raise ConfigError("t: required (flag --t or config file)")
    if d is None:
        raise ConfigError("d: required (flag --d or config file)")
    n, t, d = _as_int("n", n), _as_int("t", t), _as_int("d", d)

    model_len = _as_int("model_len", pick("model_len", DEFAULTS["model_len"]))
    modulus = _as_int("field", pick("field", DEFAULTS["field"]))
    seed = _as_int("seed", pick("seed", DEFAULTS["seed"]))
    reps = _as_int("reps", pick("reps", DEFAULTS["reps"]))
    out_format = str(pick("format", DEFAULTS["format"]))
    drop = _as_id_list("drop", pick("drop"))
    raw_rate = pick("drop_rate", DEFAULTS["drop_rate"])
    drop_rate = None if raw_rate in (None, "") else _as_float("drop_rate", raw_rate)
    colluders = _as_id_list("adversary", pick("adversary"))
    server_curious = _as_bool(
        "server_curious", pick("server_curious", DEFAULTS["server_curious"])
    )
    shuffle_groups = _as_bool(
        "shuffle_groups", pick("shuffle_groups", DEFAULTS["shuffle_groups"])
    )

    if reps < 1:
        raise ConfigError(f"reps: must be >= 1, got {reps}")
    if out_format not in ("json", "csv"):
        raise ConfigError(f"format: expected json or csv, got {out_format!r}")
    if drop and drop_rate is not None:
        raise ConfigError("drop_rate: give either an explicit drop list or a rate, not both")
    if drop_rate is not None and not 0.0 <= drop_rate <= 1.0:
        raise ConfigError(f"drop_rate: must be in [0, 1], got {drop_rate}")
    # The library holds ids in a dict and a frozenset, where repeats vanish.
    if len(set(drop)) != len(drop):
        raise ConfigError("drop: duplicate user ids")
    if len(set(colluders)) != len(colluders):
        raise ConfigError("adversary: duplicate user ids")

    spec = _checked("field: ", FieldSpec, modulus)
    params = _checked("", ProtocolParams, n, t, d, model_len, spec)
    entries = n * params.group_size * model_len
    if entries > MAX_SHARE_ENTRIES:
        # Name n when it is over the limit at any model length.
        culprit = "n" if n * params.group_size > MAX_SHARE_ENTRIES else "model_len"
        raise ConfigError(
            f"{culprit}: n*(t+d+1)*model_len = {entries} share entries exceed "
            f"the limit {MAX_SHARE_ENTRIES}"
        )
    _checked("drop: ", DropoutPlan.uniform(drop).validate_for, params)
    adversary = AdversaryConfig.of(colluders, server_curious)
    _checked("adversary: ", adversary.validate_for, params)

    return RunConfig(
        params=params,
        seed=seed,
        drop=drop,
        drop_rate=drop_rate,
        adversary=adversary,
        reps=reps,
        out_format=out_format,
        shuffle_groups=shuffle_groups,
    )


def _random_models(params: ProtocolParams, rng: random.Random) -> list:
    return list(sample_noise(params.field, params.n, params.model_len, rng))


def _sample_victims(config: RunConfig, rng: random.Random) -> tuple:
    if config.drop:
        return config.drop
    if config.drop_rate is None:
        return ()
    n = config.params.n
    count = min(config.params.d, round(config.drop_rate * n))
    return tuple(sorted(rng.sample(range(1, n + 1), count)))


def run_experiments(config: RunConfig, out=None) -> int:
    """Execute ``reps`` simulations; emit one record each; nonzero on any failure."""
    out = out if out is not None else sys.stdout
    params = config.params

    writer = None
    if config.out_format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(RESULT_FIELDS)

    all_ok = True
    for rep in range(config.reps):
        rep_rng = random.Random(derive_subseed(config.seed, f"rep-{rep}"))
        models = _random_models(params, rep_rng)
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

        # Plain-int column sums, independent of the vector engine under test.
        p = params.field.p
        contributing = [m.values for uid, m in enumerate(models, 1) if uid not in plan.victims]
        expected = tuple(sum(column) % p for column in zip(*contributing))
        ok = result.recovered.field == params.field and result.recovered.values == expected
        all_ok = all_ok and ok

        record = {
            "recovered_ok": ok,
            "r_user": result.metrics.user_to_user_msgs,
            "r_uplink_actual": result.metrics.server_msgs,
            "r_uplink_required": result.metrics.R_uplink_required,
            "elapsed": round(elapsed, 6),
        }
        if writer is not None:
            writer.writerow(
                ["true" if record["recovered_ok"] else "false"]
                + [record[k] for k in RESULT_FIELDS[1:]]
            )
        else:
            out.write(json.dumps(record) + "\n")
    return 0 if all_ok else 1


def run_privacy(no_noise: bool, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        results = run_privacy_suite(no_noise=no_noise)
    except TooLargeError as exc:
        raise ConfigError(f"privacy: {exc}") from exc
    any_dependent = False
    for result in results:
        out.write(json.dumps(result.to_json()) + "\n")
        any_dependent = any_dependent or not result.independent
    return 1 if any_dependent else 0


def run_table(t: int, d: int, model_len: int, out=None) -> int:
    out = out if out is not None else sys.stdout
    # Parameter holder only; n is irrelevant to the analytic rows.
    nu = t + d + 1
    spec = FieldSpec(_smallest_prime_above(nu))
    params = _checked("", ProtocolParams, 2 * nu, t, d, model_len, spec)
    for row in table1_analytic(params):
        out.write(json.dumps(row) + "\n")
    return 0


def _smallest_prime_above(bound: int) -> int:
    for candidate in range(max(bound, 1) + 1, MAX_MODULUS):
        if is_prime(candidate):
            return candidate
    raise ConfigError(
        f"t: no prime modulus below 2**32 exceeds the group size t+d+1={bound}"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="number of users")
    parser.add_argument("--t", type=int, help="collusion bound")
    parser.add_argument("--d", type=int, help="dropout bound")
    parser.add_argument("--model-len", type=int, dest="model_len", help="model vector length")
    parser.add_argument("--field", type=int, help="prime field modulus")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--drop", type=int, nargs="+", help="explicit dropout user ids")
    parser.add_argument(
        "--drop-rate", type=float, dest="drop_rate",
        help="sample victims uniformly without replacement, capped at d",
    )
    parser.add_argument("--adversary", type=int, nargs="+", help="colluding user ids")
    parser.add_argument(
        "--server-curious", dest="server_curious",
        action=argparse.BooleanOptionalAction, default=None,
        help="include server uploads in the adversary view",
    )
    parser.add_argument("--reps", type=int, help="number of repetitions")
    parser.add_argument("--format", choices=("json", "csv"), help="output format")
    parser.add_argument(
        "--shuffle-groups", dest="shuffle_groups",
        action=argparse.BooleanOptionalAction, default=None,
        help="seeded random group assignment instead of the contiguous layout",
    )
    parser.add_argument("--config", help="key=value config file; flags take precedence")


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
    table_parser.add_argument("--t", type=int, required=True)
    table_parser.add_argument("--d", type=int, required=True)
    table_parser.add_argument("--model-len", type=int, dest="model_len", default=1)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_experiments(build_run_config(args))
        if args.command == "privacy":
            return run_privacy(args.no_noise)
        return run_table(args.t, args.d, args.model_len)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SwiftAggError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
