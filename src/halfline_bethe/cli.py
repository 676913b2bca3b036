"""Batch command-line interface.

Subcommands compute exact probabilities/propagators, run oracle comparisons,
or execute the named validation suites, and emit JSON-lines or CSV records.
Exit codes: 0 success (and every validation check passed), 1 validation
failure, 2 usage/parameter error, 3 numerical non-convergence (a level that
overflows included) or an evaluation that ran out of memory.

Set HALFLINE_BETHE_CACHE_DIR to enable result caching: a repeated run with an
identical spec on the same package sources returns the stored record (marked
"cached": true) without recomputation.  An entry is written whole or not at
all.  One that does not parse as a JSON object, names another spec key or
lacks a field its command records is a miss: it is recomputed and
overwritten.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .bose_exact import DampedTime, propagator_fullline, propagator_halfline
from .contour_quad import QuadOptions, RadiiScheme
from .errors import ConvergenceError
from .asep_exact import (prob_fullline, prob_halfline, prob_n1_closed,
                         tuned_radii)
from .oracles import LatticeWindow, McConfig, ctmc_prob, mc_estimate
from .scattering import AsepParams, BoseParams
from .suites import (DEFAULT_SEED, run_asep_suite, run_bose_suite,
                     run_identity_suite)

CACHE_ENV = "HALFLINE_BETHE_CACHE_DIR"

VALIDATE_COMMANDS = {
    "validate-identities": run_identity_suite,
    "validate-asep": run_asep_suite,
    "validate-bose": run_bose_suite,
}

#: flat CSV column order (list-valued fields are ';'-joined).  `imag_residual`
#: and `value_imag` read 0.0 by construction where the level is folded: a
#: real circle centre or an imaginary Bose time (`asep_exact.AsepEvalReport`)
CSV_COLUMNS = [
    "command", "p", "c", "Y", "X", "t", "tau", "tol", "max_points", "radii",
    "seed", "trials", "window", "N", "draws", "value",
    "value_imag", "imag_residual", "error_estimate", "points_used",
    "term_count", "oracle_value", "oracle_delta", "mc_estimate", "mc_std_error",
    "mc_delta", "checks", "all_passed", "cached", "wall_clock_s", "version",
]


@functools.lru_cache(maxsize=1)
def _source_digest() -> str:
    """Digest of the package's source files, read once per run: a record
    computed by other code is keyed apart, whatever `__version__` says."""
    digest = hashlib.sha256()
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_key(spec: dict) -> str:
    """Digest of the canonically serialized run spec and of the package
    sources (`_source_digest`): identical specs on the same code map to
    identical keys, any field change or code change changes the key."""
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((_source_digest() + canon).encode()).hexdigest()


#: the fields every record holds (`main`), and the result fields of each
#: command (`_run_command`): a cached entry that lacks one is damaged
RECORD_FIELDS = ("command", "spec_key", "version", "wall_clock_s", "tol", "max_points")
RESULT_FIELDS = {
    **dict.fromkeys(("asep-prob", "asep-fullline", "asep-n1", "bose-prop"),
                    ("value", "error_estimate", "points_used", "term_count")),
    "mc-compare": ("value", "oracle_value", "mc_estimate", "mc_std_error", "all_passed"),
    **dict.fromkeys(VALIDATE_COMMANDS, ("checks", "all_passed")),
}


def _read_cached(path: str, key: str, command: str) -> dict | None:
    """The record of `command` stored at path under `key`, or None when there
    is none or it is damaged: not a JSON object, stored under another key,
    or without a field the command records.  A command with no entry in
    RESULT_FIELDS always misses, so it runs uncached rather than failing."""
    fields = RESULT_FIELDS.get(command)
    try:
        with open(path) as fh:
            rec = json.load(fh)
    except (FileNotFoundError, ValueError):  # a JSONDecodeError is a ValueError
        return None
    if (fields is None or not isinstance(rec, dict) or rec.get("spec_key") != key
            or not {*RECORD_FIELDS, *fields} <= rec.keys()):
        return None
    return rec


def _write_cached(path: str, rec: dict):
    """Store rec at path through a temporary file in the same directory, so
    a run stopped mid-write leaves no partial entry at the key."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(rec, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def export(records: list[dict], fmt: str, path: str):
    """Write records as JSON lines or flat CSV (fixed column order)."""
    if fmt == "json":
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS,
                                    extrasaction="ignore")
            if records:
                writer.writeheader()
            for rec in records:
                flat = dict(rec)
                for key, val in flat.items():
                    if isinstance(val, (list, tuple)):
                        flat[key] = ";".join(str(v) for v in val)
                writer.writerow(flat)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="halfline-bethe",
        description="Exact half-line exclusion-process probabilities and "
                    "hard-wall Bose-gas propagators, with oracle validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default=None,
                        help="format of the --out file (default json)")
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with defaults for any flag (flags win)")

    def quad(sp):
        # unset, the evaluator's own default request applies (`_quad_opts`)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--max-points", type=int, default=None)

    def asep_core(sp):
        sp.add_argument("--p", type=float, default=None)
        sp.add_argument("--Y", type=str, default=None)
        sp.add_argument("--X", type=str, default=None)
        sp.add_argument("--t", type=float, default=None)

    for name, what, radii in (
            ("asep-prob", "half-line transition probability",
             "comma list overriding the automatic contour radii"),
            ("asep-fullline", "full-line transition probability",
             "single radius overriding the default circle"),
            ("asep-n1", "single-particle closed form",
             "single radius overriding the tuned circle")):
        sp = sub.add_parser(name, help=what)
        asep_core(sp)
        sp.add_argument("--radii", type=str, default=None, help=radii)
        quad(sp)
        common(sp)

    sp = sub.add_parser("bose-prop", help="hard-wall Bose-gas propagator")
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--Y", type=str, default=None)
    sp.add_argument("--X", type=str, default=None)
    sp.add_argument("--tau", type=float, default=None,
                    help="imaginary-time shortcut: t = -i*tau")
    sp.add_argument("--t", type=str, default=None,
                    help="complex damped time, e.g. '0.3-0.5j'")
    sp.add_argument("--fullline", action="store_true")
    quad(sp)
    common(sp)

    sp = sub.add_parser("mc-compare",
                        help="exact value vs uniformization vs Monte Carlo")
    asep_core(sp)
    sp.add_argument("--trials", type=int, default=200_000)
    sp.add_argument("--window", type=str, default=None,
                    help="lo,hi window override for the uniformization oracle")
    quad(sp)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(sp)

    sp = sub.add_parser("validate-identities", help="run the identities suite")
    sp.add_argument("--N", type=int, default=3,
                    help="size cap for the identity suite")
    sp.add_argument("--draws", type=int, default=200)
    sp.add_argument("--p", type=float, default=0.4)
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(sp)

    sp = sub.add_parser("validate-asep", help="run the asep suite")
    sp.add_argument("--p", type=float, default=0.4)
    common(sp)

    sp = sub.add_parser("validate-bose", help="run the bose suite")
    sp.add_argument("--c", type=float, default=1.0)
    common(sp)
    return parser, sub.choices


def _apply_config(argv, args: argparse.Namespace, parser: argparse.ArgumentParser,
                  commands: dict) -> argparse.Namespace:
    """Merge a JSON config file under the explicitly given flags.

    The config values become the subcommand's defaults and argv is parsed
    again, so flags win and string values go through each flag's type.  A
    key that names no flag of the subcommand is a usage error.
    """
    if getattr(args, "config", None) is None:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    conf = {key.replace("-", "_"): val for key, val in conf.items()}
    flags = set(vars(args)) - {"command", "config"}
    unknown = sorted(set(conf) - flags)
    if unknown:
        raise ValueError(f"config keys name no flag of {args.command}: "
                         + ", ".join(unknown))
    actions = {a.dest: a for a in commands[args.command]._actions}
    commands[args.command].set_defaults(
        **{key: _config_value(actions[key], val) for key, val in conf.items()})
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, val):
    """A config value as its flag takes it: a JSON boolean for a switch, else
    a string or a number, handed on as the text the flag's type parses."""
    switch = action.nargs == 0
    text = val if switch or isinstance(val, str) else json.dumps(val)
    if (isinstance(val, bool) != switch or not isinstance(val, (str, int, float))
            or (action.choices is not None and text not in action.choices)):
        raise ValueError(f"config value {val!r} does not fit "
                         f"{action.option_strings[0]}")
    return text


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required parameter --{name}")


def _spec_dict(args: argparse.Namespace) -> dict:
    skip = {"out", "format", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _quad_opts(args) -> QuadOptions | None:
    """The options of the flags given, or None, the evaluator's default
    request (at N = 4 its reduced budget, `asep_exact.prob_halfline`)."""
    given = {key: getattr(args, key) for key in ("tol", "max_points")
             if getattr(args, key) is not None}
    return QuadOptions(**given) if given else None


def _run_command(args: argparse.Namespace) -> dict:
    rec: dict = {"command": args.command}
    if args.command in ("asep-prob", "asep-fullline", "asep-n1", "mc-compare"):
        _require(args, "p", "Y", "X", "t")
        params = AsepParams.from_p(args.p)
        y = _parse_int_list(args.Y)
        x = _parse_int_list(args.X)
        rec.update(p=args.p, Y=y, X=x, t=args.t)
        radii = _parse_float_list(args.radii) if getattr(args, "radii", None) else None
        if radii is not None and len(radii) != 1 and args.command != "asep-prob":
            raise ValueError(f"{args.command} takes one radius, got {args.radii!r}")
        radius = radii[0] if radii else None

    if args.command == "asep-prob":
        scheme = None if radii is None else RadiiScheme(1.0 / (2.0 * params.q), radii)
        rep = prob_halfline(y, x, args.t, params, _quad_opts(args), scheme)
        rec.update(dataclasses.asdict(rep),
                   radii=list(scheme.radii if scheme else tuned_radii(params, len(y)).radii))
    elif args.command == "asep-fullline":
        rep = prob_fullline(y, x, args.t, params, _quad_opts(args), radius)
        rec.update(dataclasses.asdict(rep))
    elif args.command == "asep-n1":
        if len(y) != 1 or len(x) != 1:
            raise ValueError("asep-n1 needs single-site Y and X")
        rep = prob_n1_closed(y[0], x[0], args.t, params, _quad_opts(args), radius)
        rec.update(dataclasses.asdict(rep))
    elif args.command == "bose-prop":
        _require(args, "c", "Y", "X")
        params = BoseParams(args.c)
        y = _parse_float_list(args.Y)
        x = _parse_float_list(args.X)
        if (args.tau is None) == (args.t is None):
            raise ValueError("give exactly one of --tau or --t")
        t = DampedTime.imaginary(args.tau) if args.tau is not None \
            else DampedTime(complex(args.t))
        fn = propagator_fullline if args.fullline else propagator_halfline
        rep = fn(y, x, t, params, _quad_opts(args))
        rec.update(dataclasses.asdict(rep), c=args.c, Y=y, X=x, tau=args.tau,
                   t=str(t.t), value=rep.value.real, value_imag=rep.value.imag)
    elif args.command == "mc-compare":
        # the Monte Carlo guard refuses too many jumps before anything runs
        est, se = mc_estimate(y, x, McConfig(args.trials, args.seed, args.t),
                              params)
        rep = prob_halfline(y, x, args.t, params, _quad_opts(args))
        window = None
        if args.window:
            lo, hi = _parse_int_list(args.window)
            window = LatticeWindow(lo, hi)
        oracle = ctmc_prob(y, x, args.t, params, window)
        rec.update(trials=args.trials, seed=args.seed, value=rep.value,
                   window=[window.lo, window.hi] if window else None,
                   oracle_value=oracle, oracle_delta=rep.value - oracle,
                   mc_estimate=est, mc_std_error=se, mc_delta=rep.value - est,
                   all_passed=bool(abs(rep.value - est) <= 4.0 * max(se, 1e-12)))
    elif args.command in VALIDATE_COMMANDS:
        fn = VALIDATE_COMMANDS[args.command]
        if args.command == "validate-identities":
            suite = fn(n_max=args.N, draws=args.draws, seed=args.seed,
                       p=args.p, c=args.c)
            rec.update(seed=args.seed, N=args.N, draws=args.draws)
        elif args.command == "validate-asep":
            suite = fn(p=args.p)
        else:
            suite = fn(c=args.c)
        rec.update(
            checks=[c.line() for c in suite.checks],
            all_passed=suite.all_passed,
        )
        for line in rec["checks"]:
            print(line)
    else:  # pragma: no cover
        raise ValueError(f"unknown command {args.command}")
    rec.update(tol=getattr(args, "tol", None),
               max_points=getattr(args, "max_points", None))
    return rec


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(argv, args, parser, commands)
        if args.format is not None and args.out is None:
            raise ValueError("--format sets the format of the --out file, and no --out is given")
        key = cache_key(_spec_dict(args))
        cache_dir = os.environ.get(CACHE_ENV)
        cache_path = os.path.join(cache_dir, key + ".json") if cache_dir else None
        rec = _read_cached(cache_path, key, args.command) if cache_path else None
        if rec is not None:
            rec["cached"] = True
        else:
            start = time.perf_counter()
            # a far target overflows its plane waves; the level that is not
            # finite is then reported as one error line, without numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                rec = _run_command(args)
            rec.update(wall_clock_s=time.perf_counter() - start, version=__version__,
                       cached=False, spec_key=key)
            if cache_path:
                _write_cached(cache_path, rec)
        print(json.dumps(rec, sort_keys=True))
        if args.out:
            export([rec], args.format or "json", args.out)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: out of memory: {exc or 'no allocation named'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command in VALIDATE_COMMANDS or args.command == "mc-compare":
        return 0 if rec.get("all_passed", True) else 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
