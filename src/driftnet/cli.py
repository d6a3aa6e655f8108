"""Command-line front end.

Three subcommands:

* ``run CONFIG`` executes an experiment described by a flat
  ``key = value`` config file (``#`` comments allowed, unknown keys are
  rejected) with a handful of override flags.
* ``gen`` writes a synthetic drifting stream as a plain CSV
  (``x0..x{d-1},y``), byte-identical for identical arguments.
* ``list-presets`` prints the built-in experiment presets.

Exit codes: 0 on success, 1 for usage or configuration mistakes, 2 for
failures during execution (unreadable datasets, malformed rows,
non-finite predictions, unwritable outputs).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .evaluation import (
    PRESETS,
    ExperimentConfig,
    describe_presets,
    emit_csv,
    run_experiment_detailed,
    _build_instances,
    _reject_stream_shape,
    _write_lines,
)
from .streams import StreamFormatError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would call sys.exit(2)
        raise _UsageError(message)


def parse_config_file(path) -> dict[str, str]:
    """Read a flat key=value config file into a string mapping."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise _UsageError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise _UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _to_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _to_int_tuple(value: str) -> tuple[int, ...]:
    value = value.strip()
    if not value or value.lower() == "none":
        return ()
    return tuple(int(part.strip(), 10) for part in value.split(","))


def _to_target(value: str):
    stripped = value.strip()
    if stripped.lstrip("-").isdigit():
        return int(stripped)
    return stripped


def _to_error_scale(value: str):
    if value.lower() in ("auto", "none"):
        return None
    return float(value)


# config keys are the ExperimentConfig field names, except these aliases
_KEY_ALIASES = {
    "data_path": "data",
    "k_max": "kmax",
    "m_a": "ma",
    "adwin_check_interval": "check_interval",
    "adwin_capacity": "capacity",
    "drift_log_out": "drift_log",
    "record_timing": "timing",
}
_CONVERTERS = {"target": _to_target, "error_scale": _to_error_scale}
_TYPE_CONVERTERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _to_bool,
    "tuple[int, ...]": _to_int_tuple,
}
_CONFIG_KEYS = {
    _KEY_ALIASES.get(f.name, f.name): (f.name, _CONVERTERS.get(f.name) or _TYPE_CONVERTERS[f.type])
    for f in fields(ExperimentConfig)
}


def _preset_config(name: str, full_scale: bool) -> ExperimentConfig:
    preset = PRESETS.get(name)
    if preset is None:
        known = ", ".join(sorted(PRESETS))
        raise _UsageError(f"unknown preset {name!r}; available: {known}")
    return preset.full if full_scale else preset.desk


def config_from_mapping(mapping: dict[str, str], full_scale: bool = False) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key=value pairs.

    A ``preset`` key seeds the config from a named preset (desk scale
    unless ``full_scale``); every other key overrides one field.
    Unknown keys are rejected by name.
    """
    mapping = dict(mapping)
    preset_name = mapping.pop("preset", None)
    config = ExperimentConfig() if preset_name is None else _preset_config(preset_name, full_scale)
    updates = {}
    for key, value in mapping.items():
        entry = _CONFIG_KEYS.get(key)
        if entry is None:
            known = ", ".join(sorted(_CONFIG_KEYS))
            raise _UsageError(f"unknown config key {key!r}; known keys: {known}")
        field_name, convert = entry
        try:
            updates[field_name] = convert(value)
        except ValueError as exc:
            raise _UsageError(f"bad value for {key!r}: {exc}") from exc
    config = replace(config, **updates)
    try:
        if config.data_path is not None:
            # validate cannot tell a written default from an unset field
            _reject_stream_shape(config, updates.__contains__)
        config.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return config


def _build_parser() -> _Parser:
    parser = _Parser(prog="driftnet", description="streaming regression experiments")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", help="path to a key=value config file")
    run.add_argument("--seed", type=int, help="replace the seed list with one seed")
    run.add_argument("--length", type=int, help="override the synthetic stream length")
    run.add_argument("--window-size", type=int, help="override the reporting window")
    run.add_argument("--metric", help="override the centrality metric")
    run.add_argument("--delta", type=float, help="override the drift-detector delta")
    run.add_argument("--kmax", type=int, help="override the maximum ensemble size")
    run.add_argument("--out", help="override the results CSV path")
    run.add_argument("--full", action="store_true",
                     help="use the full-scale variant of a preset")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes for multi-seed runs")

    gen = sub.add_parser("gen", help="write a synthetic stream as CSV")
    gen.add_argument("--preset", help="borrow stream shape from a preset")
    gen.add_argument("--length", type=int, help="number of instances")
    gen.add_argument("--dim", type=int, help="feature dimension")
    gen.add_argument("--seed", type=int, default=1, help="stream seed")
    gen.add_argument("--drift-times", help="comma-separated drift midpoints")
    gen.add_argument("--drift-widths", help="comma-separated drift widths")
    gen.add_argument("--out", help="output CSV path (default: stdout)")
    gen.add_argument("--full", action="store_true",
                     help="use the full-scale variant of a preset")

    sub.add_parser("list-presets", help="describe the built-in presets")
    return parser


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise _UsageError(f"--workers must be positive, got {args.workers}")
    mapping = parse_config_file(args.config)
    overrides = {"seeds": args.seed, "length": args.length, "window_size": args.window_size,
                 "metric": args.metric, "delta": args.delta, "kmax": args.kmax, "out": args.out}
    mapping.update((key, str(value)) for key, value in overrides.items() if value is not None)
    config = config_from_mapping(mapping, full_scale=args.full)
    rows, drift_entries = run_experiment_detailed(config, max_workers=args.workers)
    if config.out is not None:
        print(f"wrote {len(rows)} result rows to {config.out}")
    else:
        emit_csv(rows, sys.stdout)
    if config.drift_log_out is not None:
        print(f"wrote {len(drift_entries)} drift events to {config.drift_log_out}")
    return 0


def _cmd_gen(args) -> int:
    flags = {"preset": args.preset, "length": args.length, "dim": args.dim,
             "drift_times": args.drift_times, "drift_widths": args.drift_widths}
    config = config_from_mapping({key: str(value) for key, value in flags.items()
                                  if value is not None}, full_scale=args.full)
    header = ",".join(f"x{i}" for i in range(config.dim)) + ",y"
    lines = (",".join(repr(float(v)) for v in instance.x) + f",{instance.y!r}"
             for instance in _build_instances(config, args.seed))
    _write_lines(sys.stdout if args.out is None else args.out, header, lines, "stream")
    if args.out is not None:
        print(f"wrote {config.length} instances to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        print(describe_presets())
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StreamFormatError, OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
