"""Command-line front end.

Subcommands: ``bound-sweep``, ``k-study``, ``compare``, ``retrieve``,
``selftest``.  Every experiment reads an optional flat key=value config file;
``--set key=value`` flags override file values.  Exit codes: 0 success,
1 usage error, 2 invariant violation, 3 oracle failure (a completion oracle,
such as a remote endpoint, gave no usable prediction).
"""

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds, classic, experiments, retrieval, tasks

USAGE_ERROR = 1
INVARIANT_ERROR = 2
ORACLE_ERROR = 3


def _load_config(args, suffixes=("",)) -> experiments.ExperimentConfig:
    """The config of the file and flags.  Its output paths (``output`` plus
    each suffix) are checked here, before the run: none may be a directory,
    nor have an existing ancestor that is not one."""
    mapping = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        mapping.update(experiments.parse_config_text(path.read_text()))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    if args.output is not None:
        mapping["output"] = args.output
    config = experiments.ExperimentConfig.from_mapping(mapping)
    if config.output:
        # Every suffix only extends the last component, so the ancestors are shared.
        blocked = next((p for p in Path(config.output).parents if p.exists() and not p.is_dir()), None)
        if blocked is not None:
            raise NotADirectoryError(f"output path {config.output}: {blocked} is not a directory")
    for suffix in suffixes:
        if config.output and Path(config.output + suffix).is_dir():
            raise IsADirectoryError(f"output path is a directory: {config.output + suffix}")
    return config


def _write_output(config, text: str, suffix: str = "") -> None:
    if config.output:
        path = Path(config.output + suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _cmd_bound_sweep(args) -> int:
    config = _load_config(args)
    _, csv_text, summary = experiments.run_bound_sweep(config)
    _write_output(config, csv_text)
    print(f"instances={summary['instances']} violations=0 "
          f"max_ratio={summary['max_error_to_bound_ratio']:.6g}")
    return 0


def _cmd_k_study(args) -> int:
    config = _load_config(args)
    scores, csv_text = experiments.run_k_study(config)
    _write_output(config, csv_text)
    for strategy, k in sorted(scores):
        trial_means = scores[strategy, k].mean(axis=1)
        print(f"{strategy:>14s} K={k:<3d} mean={trial_means.mean():.6f} trials={len(trial_means)}")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args, ("", ".json"))
    summary, csv_text, json_text = experiments.run_strategy_comparison(config)
    _write_output(config, csv_text)
    _write_output(config, json_text, ".json")
    return 0


def _read_contexts(contexts) -> list:
    vectors = [np.asarray(v, dtype=np.float64) for v in contexts]
    if not vectors or len({v.shape for v in vectors}) > 1:
        raise ValueError
    return vectors


def _all_numbers(value) -> bool:
    """Whether every leaf of a JSON value is a number: not a string, null or true/false."""
    if isinstance(value, list):
        return all(map(_all_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_retrieve_input(payload) -> dict:
    """The retrieve input's fields as float64 arrays, gamma as a float and
    contexts as a list of them; a ValueError naming the first field that is
    missing or cannot be read so.  Every value must be a JSON number that fits float64."""
    if not isinstance(payload, dict):
        raise ValueError(f"retrieve input must be a JSON object, got a JSON {type(payload).__name__}")
    for name in ("xi_q", "xi_k", "sigma", "contexts"):
        if name not in payload:
            raise ValueError(f"{name} is required")
    array = functools.partial(np.asarray, dtype=np.float64)
    readers = {
        "xi_q": ("a matrix of numbers", array), "xi_k": ("a matrix of numbers", array),
        "w_v": ("a matrix of numbers", array), "gamma": ("a number", float), "sigma": ("a vector of numbers", array),
        "contexts": ("a non-empty list of equal-length number vectors", _read_contexts),
    }
    fields = {}
    for name, (kind, read) in readers.items():
        if name in payload:
            try:
                if not _all_numbers(payload[name]):
                    raise TypeError
                fields[name] = read(payload[name])
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"{name} must be {kind}, got {json.dumps(payload[name])}") from None
    return fields


def _cmd_retrieve(args) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    fields = _read_retrieve_input(json.loads(path.read_text()))
    model = retrieval.ContextualHopfield(
        xi_q=fields["xi_q"], xi_k=fields["xi_k"], gamma=fields.get("gamma", 1.0), w_v=fields.get("w_v"),
    )
    ctx = retrieval.ContextSet.from_vectors(fields["contexts"])
    query = retrieval.QueryState.from_sigma(fields["sigma"], model)
    result = retrieval.hnc_retrieve(model, ctx, query)
    view = retrieval.attention_view(model, ctx, query)
    print("weights:", " ".join(repr(float(w)) for w in result.weights))
    print("u_new:", " ".join(repr(float(v)) for v in result.u_new))
    print("attention_output:", " ".join(repr(float(v)) for v in view.output))
    return 0


def _selftest_suites():
    rng = np.random.default_rng(20240901)

    def softmax_probability_vector():
        for _ in range(200):
            scores = rng.standard_normal(int(rng.integers(1, 12))) * rng.uniform(0.1, 50)
            w = retrieval.softmax(scores)
            assert np.all(w >= 0) and np.all(w <= 1)
            assert abs(w.sum() - 1.0) <= 1e-12

    def attention_matches_retrieval():
        for _ in range(200):
            d_q = int(rng.integers(2, 6))
            d_m = d_q + int(rng.integers(0, 3))
            model = retrieval.ContextualHopfield(
                xi_q=rng.standard_normal((d_m, d_q)),
                xi_k=rng.standard_normal((d_m, d_q)),
                gamma=float(rng.uniform(0.1, 5.0)),
                w_v=rng.standard_normal((d_q, d_q)),
            )
            ctx = retrieval.ContextSet(rng.standard_normal((d_m, int(rng.integers(1, 9)))))
            query = retrieval.QueryState.from_sigma(rng.standard_normal(d_m), model)
            out = retrieval.attention_view(model, ctx, query).output
            ref = retrieval.hnc_retrieve(model, ctx, query).u_new @ model.w_v
            assert np.max(np.abs(out - ref)) <= 1e-12

    def bound_sweep_holds():
        config = experiments.ExperimentConfig(bound_instances=40)
        experiments.run_bound_sweep(config)

    def beta_monotone():
        cs = np.linspace(0.0, 3.0, 25)
        for m in (2, 5, 16):
            for t in (1, 2, m):
                assert np.all(np.diff(bounds.beta_coefficient(cs, m, t)) >= -1e-15)

    def classic_fixed_points():
        patterns = [np.where(rng.standard_normal(60) >= 0, 1.0, -1.0) for _ in range(3)]
        net = classic.classic_store(patterns)
        for p in patterns:
            state, converged = classic.classic_update(net, p)
            assert converged and np.array_equal(state, p)
        state = patterns[0].copy()
        state[:4] *= -1
        energies = [classic.classic_energy(net, state)]
        for _ in range(5):
            state, _ = classic.classic_update(net, state, max_sweeps=1)
            energies.append(classic.classic_energy(net, state))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))

    return [
        ("softmax-probability-vector", softmax_probability_vector),
        ("attention-matches-retrieval", attention_matches_retrieval),
        ("error-bound-holds", bound_sweep_holds),
        ("beta-monotone", beta_monotone),
        ("classic-fixed-points", classic_fixed_points),
    ]


def _cmd_selftest(args) -> int:
    print("config defaults:")
    for key, value in experiments.ExperimentConfig().as_mapping().items():
        print(f"  {key} = {value}")
    failures = 0
    for name, suite in _selftest_suites():
        try:
            suite()
        except Exception as exc:  # report and continue with the other suites
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} suite(s) failed")
        return INVARIANT_ERROR
    print("all selftest suites passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hopctx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the root seed")
        p.add_argument("--output", help="override the output path")

    p = sub.add_parser("bound-sweep", help="randomized verification of the retrieval-error bound")
    add_config_flags(p)
    p.set_defaults(func=_cmd_bound_sweep)

    p = sub.add_parser("k-study", help="strategy score vs context size K")
    add_config_flags(p)
    p.set_defaults(func=_cmd_k_study)

    p = sub.add_parser("compare", help="strategy comparison at fixed K")
    add_config_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("retrieve", help="run one retrieval from a JSON instance file")
    p.add_argument("input", help="JSON file with xi_q, xi_k, gamma, sigma, contexts")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.set_defaults(func=_cmd_selftest)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except bounds.BoundViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except tasks.OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return ORACLE_ERROR
    except (OSError, ValueError) as exc:  # OSError: an unreadable config, an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> int:
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
