"""hopctx benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload kstudy-default --seed 0 --seconds 20 --trace 0

Each run imports hopctx from ``src/`` of the checkout it sits in, writes the
workload's config for ``--seed``, times set-up in fresh interpreters, then
calls ``hopctx.cli.cli_main`` on that config again and again for
``--seconds`` seconds, each call issued when the previous one returns.  Every
call's output is checked, and timings are scaled to the host's reference
speed.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced calls alternate and it
carries the per-layer metrics of ``BENCHMARK.json``.  See README.md.
"""

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
# The reference host's speed changes in phases, by up to 1.6x, over seconds
# to minutes.  Every timing is scaled by how long calibrate() took next to it
# relative to CAL_REF_S, its time in a fast phase, so that a run reads the
# same in a slow phase as in a fast one.
CAL_REF_S = 0.04
MIN_REPS = 3
# A run must end within 180 s; this stops one that has not.
WATCHDOG_S = 170
# Per-layer counts that must repeat exactly between traced calls.
EXACT_COUNTS = (".calls", ".rows", ".requests", ".connections", ".flops")


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict

    @property
    def strategies(self) -> list:
        return self.config["strategies"].split(",")

    @property
    def ks(self) -> list:
        return [int(k) for k in self.config["k_values"].split(",")]

    @property
    def records(self) -> int:
        """Units of work per call: trial records (trials x strategies x K)
        for k-study and compare, verified instances for bound-sweep."""
        c = self.config
        if self.command == "bound-sweep":
            return math.prod(len(c[key].split(",")) for key in
                             ("bound.gamma_grid", "bound.m_grid", "bound.dup_fractions")) * int(c["bound.instances"])
        return int(c["trials"]) * len(self.strategies) * len(self.ks)


KSTUDY_DEFAULTS = {"pool.size": "200", "queries.size": "100", "score": "cosine-score",
                   "k_values": "1,2,4,8,16", "subsample": "100"}

# Sizes keep one call near a second, so a run holds enough calls for a
# steady median; why each workload exists is in README.md.
WORKLOADS = {
    "kstudy-default": Workload("k-study", {
        **KSTUDY_DEFAULTS, "strategies": "random,active,instance-best", "trials": "5"}),
    "compare-metric": Workload("compare", {
        **KSTUDY_DEFAULTS, "strategies": "random,metric", "k_values": "4", "trials": "30"}),
    "bound-sweep": Workload("bound-sweep", {
        "bound.gamma_grid": "0.5,2.0,8.0", "bound.m_grid": "2,8,32",
        "bound.dup_fractions": "0.0,0.5,1.0", "bound.instances": "100"}),
    "remote-oracle": Workload("k-study", {
        **KSTUDY_DEFAULTS, "strategies": "random,metric", "trials": "1", "oracle.kind": "remote"}),
}


class CheckFailed(Exception):
    """A call's output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_rows(text: str, comment: str, columns: str) -> list:
    lines = text.splitlines()
    _require(lines[:2] == [comment, columns], f"CSV starts {lines[:2]!r}")
    return list(csv.reader(line for line in lines[2:] if not line.startswith("#")))


def check_k_study(w: Workload, out: Path) -> None:
    rows = _csv_rows(out.read_text(), "# hopctx k-study v1",
                     "trial_index,trial_seed,strategy,k,n_queries,mean_score")
    expected = [(t, s, k) for t in range(int(w.config["trials"])) for s in w.strategies for k in w.ks]
    _require([(int(r[0]), r[2], int(r[3])) for r in rows] == expected, "k-study records out of order or missing")
    for r in rows:
        _require(int(r[4]) == int(w.config["queries.size"]), f"n_queries in {r}")
        _require(0.0 <= float(r[5]) <= 1.0, f"cosine mean outside [0, 1] in {r}")


def check_compare(w: Workload, out: Path) -> None:
    rows = _csv_rows(out.read_text(), "# hopctx strategy-comparison v1",
                     "strategy,k,trials,mean,std,win_rate_vs_random")
    summary = json.loads(Path(str(out) + ".json").read_text())
    _require([r[0] for r in rows] == w.strategies, f"strategies {[r[0] for r in rows]}")
    _require(summary["k"] == w.ks[0] and summary["trials"] == int(w.config["trials"]), "summary k/trials")
    for strategy, k, trials, mean, std, win in rows:
        _require(int(k) == w.ks[0] and int(trials) == int(w.config["trials"]), f"k/trials of {strategy}")
        _require(0.0 <= float(mean) <= 1.0 and float(std) >= 0.0, f"mean/std of {strategy}")
        _require(float(mean) == summary["strategies"][strategy]["mean"], f"CSV and JSON disagree on {strategy}")
        _require(0.0 <= float(win) <= 1.0, f"win rate of {strategy}")
        if strategy == "random":
            _require(float(win) == 0.5, "random against itself must win exactly half")


def check_bound_sweep(w: Workload, out: Path) -> None:
    text = out.read_text()
    rows = _csv_rows(text, "# hopctx bound-sweep v1",
                     "instance_id,M,t,gamma,delta_min,c,instance_error,beta,z_max_norm,upper_bound,realized_error")
    _require(len(rows) == w.records, f"{len(rows)} instances, expected {w.records}")
    for r in rows:
        bound, eps = float(r[9]), float(r[10])
        _require(eps <= bound + 1e-9 * (1.0 + bound), f"bound violated in {r}")
    _require(text.splitlines()[-1].startswith(f"# summary instances={w.records} violations=0 "),
             "summary line")


CHECKS = {"k-study": check_k_study, "compare": check_compare, "bound-sweep": check_bound_sweep}


# ---------------------------------------------------------------------------
# One call
# ---------------------------------------------------------------------------


@dataclass
class Call:
    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    digest: str = ""
    ref_s: float = 0.0  # wall_s at the reference speed


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter and small-numpy work that runs
    no hopctx code, so no change to hopctx moves it."""
    a, b, xs = np.arange(16.0), np.ones(16), list(range(50, 0, -1))
    t0 = time.perf_counter()
    total = 0.0
    for i in range(4000):
        total += float(a @ b) / (float(np.linalg.norm(a)) + i)
        total += sorted(xs)[i % 50] + float(np.exp(a - a.max()).sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)


def run_call(w: Workload, config_path: Path, out: Path, expect_digest: str | None) -> Call:
    """One ``cli_main`` call on the config, timed, with its output checked.

    A call fails if it raises, returns non-zero, writes output that fails the
    workload's check, or writes other bytes than ``expect_digest``."""
    from hopctx import cli

    gc.collect()
    captured = io.StringIO()
    argv = [w.command, "--config", str(config_path), "--output", str(out)]
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.cli_main(argv)
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        _require(code == 0, f"exit code {code}")
        CHECKS[w.command](w, out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        _require(expect_digest in (None, digest), f"CSV sha256 {digest}, expected {expect_digest}")
    except Exception:  # the run goes on; the call counts as failed
        print(f"failed call {argv}:\n{captured.getvalue()}{traceback.format_exc()}", file=sys.stderr)
        return Call(ok=False)
    finally:
        for path in (out, Path(str(out) + ".json")):
            path.unlink(missing_ok=True)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return Call(ok=True, wall_s=wall, cpu_s=cpu, digest=digest)


# ---------------------------------------------------------------------------
# Set-up, provenance, result
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def one_query_per_prediction():
    """Make ``AssociativeOracle.predict_many`` predict one row per product.

    A 100-row matrix product may round differently in the last bit from 100
    one-row products, and on some seeds that reaches the CSV."""
    from hopctx.tasks import AssociativeOracle

    batched = AssociativeOracle.predict_many

    def per_row(self, context, xs):
        return np.stack([batched(self, context, row[None, :])[0] for row in np.asarray(xs, dtype=np.float64)])

    AssociativeOracle.predict_many = per_row
    try:
        yield
    finally:
        AssociativeOracle.predict_many = batched


def write_config(w: Workload, seed: int, path: Path, **extra) -> None:
    lines = [f"seed = {seed}"] + [f"{k} = {v}" for k, v in {**w.config, **extra}.items()]
    path.write_text("\n".join(lines) + "\n")


def setup_probe(config_path: Path) -> dict:
    """Fresh interpreter from start to ready (probe.py); adds ``setup_s``."""
    from loopback import child_env

    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(config_path)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    phases = json.loads(proc.stdout.splitlines()[-1])
    phases["setup_s"] = phases.pop("ready") - start
    return phases


def _openblas() -> tuple:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        config = blas.get("openblas configuration")
    except (KeyError, TypeError):
        config = None
    threads = None
    try:
        import ctypes
        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in libdir.glob("*openblas*"):
            dll = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(dll, symbol):
                    threads = int(getattr(dll, symbol)())
                    break
    except OSError:
        pass
    return config, threads


def provenance(args) -> dict:
    """What produced a result: host, versions, code and load at start."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            git_sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas_config, blas_threads = _openblas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": WORKLOADS[args.workload].config,
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "openblas_config": blas_config, "openblas_threads": blas_threads,
        "git_sha": git_sha, "src_sha256": src_hash.hexdigest(), "loadavg_1m": os.getloadavg()[0],
    }


def expected_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "expected_sha256.json").read_text())
    return table.get(workload, {}).get(str(seed))


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def measure(args, work: Path) -> tuple[dict, dict, int, int, str]:
    """Set-up probes, reference call and the timed loop.  Returns (metrics,
    the same timings at the host's speed, attempted, failed, sha256 of the
    reference output)."""
    from hopctx import experiments
    from loopback import LoopbackServer

    w = WORKLOADS[args.workload]
    config_path = work / "workload.cfg"
    out = work / "out.csv"
    write_config(w, args.seed, config_path)
    # Set-up is not scaled: interpreter start and imports do not follow
    # calibrate() (scaled, set-up medians moved 43% between two batches).
    probes = [setup_probe(config_path) for _ in range(SETUP_PROBES)]

    calls = []
    expect = expected_digest(args.workload, args.seed)
    with contextlib.ExitStack() as stack:
        server = None
        if w.config.get("oracle.kind") == "remote":
            # The remote run must write the bytes of the builtin oracle on the
            # same config, called one query at a time as RemoteOracle calls it.
            builtin_path = work / "builtin.cfg"
            write_config(w, args.seed, builtin_path, **{"oracle.kind": "builtin"})
            with one_query_per_prediction():
                reference = run_call(w, builtin_path, out, expect)
            batched = run_call(w, builtin_path, out, None)
            calls += [reference, batched]
            expect = reference.digest if reference.ok else "builtin reference failed"
            print(f"remote bytes equal the batched builtin run: {batched.digest == expect}")
            config = experiments.ExperimentConfig.from_mapping(experiments.parse_config_text(config_path.read_text()))
            server = stack.enter_context(LoopbackServer(config))
            write_config(w, args.seed, config_path, **{"oracle.endpoint": server.endpoint})
        warmup = run_call(w, config_path, out, expect)
        calls.append(warmup)
        expect = warmup.digest if warmup.ok else expect

        def timed_call() -> Call:
            nonlocal cal
            call = run_call(w, config_path, out, expect)
            after = calibrate()
            call.ref_s = at_reference_speed(call.wall_s, cal, after)
            cal = after
            calls.append(call)
            return call

        untraced, traced, layers = [], [], []
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
        cal = calibrate()
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(untraced) < MIN_REPS or (tracer and len(traced) < 2):
            untraced.append(timed_call())
            if tracer is None:
                continue
            tracer.reset()
            stats0 = server.stats() if server else None
            tracer.install()
            try:
                call = timed_call()
            finally:
                tracer.uninstall()
            delta = None
            if server:
                stats1 = server.stats()
                delta = {k: stats1[k] - stats0[k] for k in ("connections", "busy_s")}
            layer = tracer.layer_metrics(delta)
            counts = {k: v for k, v in layer.items() if k.endswith(EXACT_COUNTS)}
            if call.ok and layers and counts != layers[0][1]:
                changed = sorted(k for k in counts if counts[k] != layers[0][1][k])
                print(f"per-layer counts differ between traced calls: {changed}", file=sys.stderr)
                call.ok = False
            traced.append(call)
            if call.ok:
                layers.append((layer, counts))

    ok = [c for c in untraced if c.ok]
    if not ok or (tracer and not layers):
        raise RuntimeError("no call of the workload succeeded")
    median = statistics.median
    measured = {
        "setup_s": median(p["setup_s"] for p in probes),
        "wall_s": median(c.wall_s for c in ok),
        "work_per_s": median(w.records / c.wall_s for c in ok),
        "host_speed": median(c.ref_s / c.wall_s for c in ok),
    }
    if tracer is None:
        metrics = {
            "setup_s": measured["setup_s"],
            "wall_s": median(c.ref_s for c in ok),
            "work_per_s": median(w.records / c.ref_s for c in ok),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = {}
        for k, first in layers[0][0].items():
            pick = statistics.median_low if isinstance(first, int) else median
            metrics[k] = pick(layer[k] for layer, _ in layers)
        metrics["setup.import_s"] = median(p["import_s"] for p in probes)
        metrics["setup.server_s"] = median(p["server_s"] for p in probes)
        metrics["process.cpu_s"] = median(c.cpu_s for c in ok)
        traced_ref = median(c.ref_s for c in traced if c.ok)
        metrics["trace.overhead_frac"] = traced_ref / median(c.ref_s for c in ok) - 1.0
    return metrics, measured, len(calls), sum(not c.ok for c in calls), expect


class Stopped(BaseException):
    """Raised on SIGALRM (the watchdog) and SIGTERM, so the server and the
    work directory are cleaned up; not an ``Exception``, so no call swallows it."""


def _stop(signum, frame):
    raise Stopped(f"stopped by {signal.Signals(signum).name} (watchdog: {WATCHDOG_S} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopctx benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopctx" / "__init__.py").is_file():
        print(f"error: no hopctx package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    started = provenance(args)
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(WATCHDOG_S)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work:
            metrics, measured, attempted, failed, digest = measure(args, Path(work))
    except (RuntimeError, Stopped, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]!r} {unit}")
    print(f"{'fail_frac':40s} {failed / attempted!r} 1  ({failed} of {attempted} calls)")
    print("at the host's speed (not compared): " + json.dumps(measured))
    print("provenance " + json.dumps({**started, "csv_sha256": digest}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
