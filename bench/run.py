#!/usr/bin/env python3
"""The geckit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed, then runs the workload's
sequence of geckit commands again and again for S seconds. Every command is
a fresh ``python -m geckit.cli`` process with the repository's ``src`` on
PYTHONPATH, one at a time: a closed loop with one client, paying for import
and input parsing on every command as a user of the CLI does.

``--trace 0`` reports the end-to-end metrics: set-up (import) time, and the
CPU time and peak memory of one pass over the commands (the wall time is
printed too). It runs at least MIN_PASSES passes, so every command runs
more than once and the gate can compare passes whatever the seed.
``--trace 1`` alternates plain passes with traced passes, in which each
command runs under ``trace_child.py``, and reports per-layer metrics.

Every command is gated: it must exit 0, run its own output checks, and
write artifacts whose sha256 equal those of the first pass (for the default
seed at full size: the committed ``reference_hashes.json``). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_CHILD = BENCH / "trace_child.py"
REFERENCE = BENCH / "reference_hashes.json"
DEFAULT_SEED = 0
# Import starts per round; a round runs before every pass and after the last
# one, so setup_s samples the machine across the whole run. setup_s is the
# median over rounds of each round's fastest start: a start slowed by another
# process on the machine, or by byte-compiling the package on the first start,
# is dropped, and the median of several rounds is kept.
SETUP_STARTS = 2
# Plain passes per --trace 0 run, at least. cpu_s sums each command's least
# CPU time over the passes, which drops a pass slowed by contention.
MIN_PASSES = 2
COMMAND_TIMEOUT_S = 120
# Printed but left out of the result's metrics, so no bound applies: on a
# shared machine the wall time of start-up-heavy passes spreads across runs
# by nearly the largest bound a metric may have (see README.md); cpu_s
# carries the timing bound instead.
UNBOUNDED = ("wall_s",)


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Command:
    label: str  # unique within a workload; names the command's artifacts
    argv: list[str]  # geckit arguments, relative to the work directory
    check: Callable[[Path], str | None] | None = None  # failure reason or None


def _write_config(work: Path, name: str, method: str, systems: list[str], **extra) -> str:
    config = {
        "name": name,
        "method": method,
        "gold": "../in/conll14.gold.m2",
        "output_dir": "../out",
        "systems": systems,
        **extra,
    }
    path = work / "cfg" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return str(path.relative_to(work))


def _member(name: str, shape: gen.Shape) -> str:
    return f"in/{shape.name}/{name}.txt"


def _check_precision_100(report: str) -> Callable[[Path], str | None]:
    def check(work: Path) -> str | None:
        header, values = (work / report).read_text(encoding="utf-8").splitlines()[:2]
        precision = dict(zip(header.split(), values.split()))["P"]
        return None if precision == "100.0" else f"{report}: P = {precision}, expected 100.0"

    return check


def _check_lexmin(prefix: str, runs: int, members: list[str]) -> Callable[[Path], str | None]:
    """The mock-lexmin backend picks the smallest candidate on every sentence.
    A fallback picks label A instead, which shows here unless the shuffle put
    the smallest candidate first; traced runs count fallbacks exactly."""

    def check(work: Path) -> str | None:
        candidates = [
            (work / m).read_text(encoding="utf-8").splitlines() for m in members
        ]
        expected = [min(c, key=str.split) for c in zip(*candidates)]
        for run in range(runs):
            got = (work / f"{prefix}.run{run}.txt").read_text(encoding="utf-8").splitlines()
            if got != expected:
                return f"{prefix}.run{run}.txt: not the lexmin choice on every sentence"
        return None

    return check


def _check_same_bytes(produced: str, original: str) -> Callable[[Path], str | None]:
    def check(work: Path) -> str | None:
        if (work / produced).read_bytes() != (work / original).read_bytes():
            return f"{produced} differs from {original}"
        return None

    return check


def _cluster(shape: gen.Shape) -> Command:
    sys_flags = [arg for m in gen.MEMBERS for arg in ("--sys", _member(m, shape))]
    return Command("cluster", ["cluster", *sys_flags, "--threshold", "0.11",
                               "--out", "out/clusters.tsv", "--matrix", "out/matrix.tsv"])


def _from_cfg(name: str) -> str:
    """A CoNLL-14 member file, relative to the config directory."""
    return f"../{_member(name, gen.CONLL14)}"


def _conll14_vote_config(work: Path) -> str:
    members = [_from_cfg(m) for m in gen.MEMBERS]
    return _write_config(
        work, "conll14-vote-best7", "vote", members, source="../in/conll14.src.txt", n_min=3
    )


def conll14_methods(work: Path) -> list[Command]:
    shape = gen.CONLL14
    members = [_from_cfg(m) for m in gen.MEMBERS]
    llm_members = ("chat-llama-2-13b-ft", "t5-11b", "editscorer")
    configs = {
        "vote": _conll14_vote_config(work),
        "oracle-ensemble": _write_config(
            work, "conll14-oracle-ensemble", "oracle-ensemble", members
        ),
        "oracle-rank": _write_config(work, "conll14-oracle-rank", "oracle-rank", members),
        "rank": _write_config(
            work, "conll14-rank", "rank", members, scores="../in/conll14.scores.tsv"
        ),
        "rank-w": _write_config(
            work, "conll14-rank-w", "rank-w", members, scores="../in/conll14.scores.tsv"
        ),
        "aggr-rank": _write_config(
            work, "conll14-aggr-rank", "aggr-rank",
            [_from_cfg("chat-llama-2-13b-ft"), _from_cfg("t5-11b")],
        ),
        "llm-rank": _write_config(
            work, "llm-rank-clust3-mock", "llm-rank", [_from_cfg(m) for m in llm_members],
            variant="a", runs=4, seed=0, backend="mock-lexmin",
        ),
        "second-order-vote": _write_config(
            work, "second-order-vote", "second-order-vote",
            [
                "vote-best7=../out/conll14-vote-best7.out.txt",
                "llm-rank-clust3=../out/llm-rank-clust3-mock.run0.txt",
                f"best-single={_from_cfg('chat-llama-2-13b-ft')}",
            ],
            n_min=1,
        ),
    }
    checks = {
        "oracle-ensemble": _check_precision_100("out/conll14-oracle-ensemble.report.txt"),
        "llm-rank": _check_lexmin(
            "out/llm-rank-clust3-mock", 4, [_member(m, shape) for m in llm_members]
        ),
    }
    commands = [
        Command(f"experiment.{method}", ["experiment", "--config", path], checks.get(method))
        for method, path in configs.items()
    ]
    commands.append(_cluster(shape))
    return commands


def conll14_sweep(work: Path) -> list[Command]:
    config = _conll14_vote_config(work)
    return [
        Command("experiment.sweep-nmin", ["experiment", "--config", config, "--sweep-nmin"]),
        Command("experiment.ablation", ["experiment", "--config", config, "--ablation"]),
    ]


def bea_dev_cli(work: Path) -> list[Command]:
    shape = gen.BEA_DEV
    gold, src = f"in/{shape.name}.gold.m2", f"in/{shape.name}.src.txt"
    commands = [
        Command(f"score.{m}", ["score", "--hyp", _member(m, shape), "--gold", gold,
                               "--tsv", "--out", f"out/score.{m}.tsv"])
        for m in gen.MEMBERS
    ]
    for m in shape.heavy:
        edits, restored = f"out/{m}.edits.tsv", f"out/{m}.restored.txt"
        commands.append(Command(f"extract.{m}", ["extract", "--src", src,
                                                 "--hyp", _member(m, shape), "--out", edits]))
        commands.append(Command(f"apply.{m}", ["apply", "--src", src, "--edits", edits,
                                               "--out", restored],
                                _check_same_bytes(restored, _member(m, shape))))
    commands.append(_cluster(shape))
    return commands


# workload -> (corpus shape, writes a score file, command builder)
WORKLOAD_DEFS = {
    "conll14-methods": (gen.CONLL14, True, conll14_methods),
    "conll14-sweep": (gen.CONLL14, False, conll14_sweep),
    "bea-dev-cli": (gen.BEA_DEV, False, bea_dev_cli),
}


def prepare(workload: str, seed: int, scale: float, work: Path) -> tuple[list[Command], dict]:
    """Generate the inputs under ``work/in``; return the commands and shape stats."""
    shape, with_scores, build = WORKLOAD_DEFS[workload]
    corpus = gen.generate(shape, seed, scale)
    files = gen.write(corpus, work / "in", seed, with_scores)
    return build(work), gen.shape_stats(corpus, files, work / "in")


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class CommandResult:
    label: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    hashes: dict[str, str]  # artifact path (relative to out/) -> sha256
    failure: str | None = None
    trace: dict | None = None


@dataclass
class Pass:
    results: list[CommandResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kb for r in self.results) / 1024


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot(directory: Path) -> dict[Path, tuple[int, int]]:
    return {
        p: (p.stat().st_mtime_ns, p.stat().st_size)
        for p in directory.rglob("*") if p.is_file()
    }


def _spawn(argv: list[str], cwd: Path, stdout, stderr) -> tuple[int, float, float, int]:
    """Run one child to completion: exit code, wall s, CPU s, max RSS KiB.

    ``wait4`` gives the child's own resource usage. A child still running
    after COMMAND_TIMEOUT_S is killed, and so is one whose wait is
    interrupted, so no child outlives the benchmark.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def run_pass(commands: list[Command], work: Path, traced: bool) -> Pass:
    """Run every command once, in order, into a fresh ``work/out``."""
    out, logs = work / "out", work / "log"
    for d in (out, logs):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    result = Pass()
    for cmd in commands:
        before = _snapshot(out)
        trace_path = logs / f"{cmd.label}.trace.json"
        if traced:
            argv = [sys.executable, str(TRACE_CHILD), str(trace_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "geckit.cli", *cmd.argv]
        stdout_path = out / f"{cmd.label}.stdout"
        with open(stdout_path, "wb") as so, open(logs / f"{cmd.label}.stderr", "wb") as se:
            code, wall, cpu, rss = _spawn(argv, work, so, se)
        changed = {p for p, stamp in _snapshot(out).items() if before.get(p) != stamp}
        hashes = {str(p.relative_to(out)): sha256(p) for p in sorted(changed)}
        res = CommandResult(cmd.label, wall, cpu, rss, hashes)
        if code != 0:
            err = (logs / f"{cmd.label}.stderr").read_text(encoding="utf-8", errors="replace")
            res.failure = f"exit {code}: {err.strip()[-300:]}"
        elif cmd.check is not None:
            try:
                res.failure = cmd.check(work)
            except (OSError, ValueError, KeyError) as err:
                res.failure = f"output check could not read the outputs: {err!r}"
        if traced:
            res.trace = _read_trace(trace_path)
            if res.trace is EMPTY_TRACE:
                res.failure = res.failure or "no trace written"
            elif res.trace["counters"].get("llm.fallbacks", 0):
                res.failure = res.failure or "llm-rank fell back on some sentences"
        result.results.append(res)
    return result


EMPTY_TRACE = {
    "import_s": 0.0,
    "spans": {},
    "counters": {},
    "extract": {"calls": 0, "unique": 0, "dp_cells": 0},
}


def _read_trace(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return EMPTY_TRACE


def gate(passes: list[Pass], expected: dict[str, dict[str, str]]) -> None:
    """Fail every command whose artifacts differ from ``expected``.

    ``expected`` maps command label to its artifact hashes. A label missing
    from it is filled in from the first pass that runs the command cleanly.
    """
    for p in passes:
        for res in p.results:
            if res.failure:
                continue
            want = expected.setdefault(res.label, res.hashes)
            if res.hashes != want:
                differ = sorted(
                    k for k in set(want) | set(res.hashes) if want.get(k) != res.hashes.get(k)
                )
                res.failure = "artifacts differ from the expected sha256: " + ", ".join(differ)


def measure_setup(starts: int) -> list[float]:
    """Wall time of fresh interpreters that only import geckit.cli."""
    times = []
    for _ in range(starts):
        code, wall, _, _ = _spawn(
            [sys.executable, "-c", "import geckit.cli"], ROOT, subprocess.DEVNULL, None
        )
        if code != 0:
            raise RuntimeError("importing geckit.cli failed")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# Metrics


def least_cpu_s(passes: list[Pass]) -> float:
    """One pass's CPU time, each command at its least over the passes."""
    return sum(min(per_command) for per_command in zip(*(
        [r.cpu_s for r in p.results] for p in passes
    )))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _span_sum(p: Pass, span: str, key: str) -> float:
    return sum(r.trace["spans"].get(span, {}).get(key, 0) for r in p.results)


def _counter_sum(p: Pass, name: str) -> float:
    return sum(r.trace["counters"].get(name, 0) for r in p.results)


def _unique_frac(p: Pass) -> float:
    calls = sum(r.trace["extract"]["calls"] for r in p.results)
    return sum(r.trace["extract"]["unique"] for r in p.results) / calls if calls else 0.0


def _llm_fallback_frac(p: Pass) -> float:
    ranked = _counter_sum(p, "llm.sentences")
    return _counter_sum(p, "llm.fallbacks") / ranked if ranked else 0.0


def _span_metrics(span: str, *keys: str) -> dict:
    units = {"calls": "count", "self_s": "s"}
    return {
        f"{span}.{key}": (units[key], lambda p, s=span, k=key: _span_sum(p, s, k))
        for key in keys
    }


# Per-layer metrics: name -> (unit, value from one traced pass). Sums over
# the pass's commands; trace.overhead_frac is added by layer_metrics().
LAYER_METRICS = {
    "cli.commands": ("count", lambda p: len(p.results)),
    "cli.import_s": ("s", lambda p: sum(r.trace["import_s"] for r in p.results)),
    **_span_metrics("cli.main", "self_s"),
    **_span_metrics("corpus.load", "calls", "self_s"),
    "corpus.load.mb": ("MB", lambda p: _counter_sum(p, "corpus.load.bytes") / 1e6),
    **_span_metrics("corpus.write", "calls", "self_s"),
    "corpus.write.mb": ("MB", lambda p: _counter_sum(p, "corpus.write.bytes") / 1e6),
    **_span_metrics("align.extract", "calls", "self_s"),
    "align.extract.unique_frac": ("ratio", _unique_frac),
    "align.extract.dp_cells": (
        "count", lambda p: sum(r.trace["extract"]["dp_cells"] for r in p.results)
    ),
    **_span_metrics("align.apply", "calls", "self_s"),
    **_span_metrics("vote.pool", "calls", "self_s"),
    **_span_metrics("vote.corpus", "calls", "self_s"),
    **_span_metrics("scoring.score", "calls", "self_s"),
    **_span_metrics("oracle.ensemble", "self_s"),
    **_span_metrics("oracle.rank", "self_s"),
    "oracle.ensemble.selected": ("count", lambda p: _counter_sum(p, "oracle.ensemble.selected")),
    **_span_metrics("ranking.select", "calls", "self_s"),
    **_span_metrics("ranking.similarity", "self_s"),
    **_span_metrics("ranking.cluster", "self_s"),
    **_span_metrics("llm.prompt", "calls", "self_s"),
    **_span_metrics("llm.backend", "calls", "self_s"),
    **_span_metrics("llm.parse", "self_s"),
    "llm.retries": (
        "count",
        lambda p: _span_sum(p, "llm.backend", "calls") - _counter_sum(p, "llm.requests"),
    ),
    "llm.fallback_frac": ("ratio", _llm_fallback_frac),
    **_span_metrics("experiment.run", "calls", "self_s"),
    # per command: wall time outside the import and the cli.main span
    "trace.unattributed_s": (
        "s",
        lambda p: sum(
            r.wall_s - r.trace["import_s"] - r.trace["spans"].get("cli.main", {}).get("total_s", 0)
            for r in p.results
        ),
    ),
}


def layer_metrics(plain: list[Pass], traced: list[Pass]) -> dict[str, dict]:
    metrics = {
        name: {"value": statistics.median(fn(p) for p in traced), "unit": unit}
        for name, (unit, fn) in LAYER_METRICS.items()
    }
    untraced_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = {
        "value": (traced_wall - untraced_wall) / untraced_wall, "unit": "ratio"
    }
    return metrics


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_DEFS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size factor; below 1 only for smoke tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's artifact hashes as the reference")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.scale != 1.0):
        parser.error(f"--write-reference records --seed {DEFAULT_SEED} at --scale 1 only")
    # Turn SIGTERM into SystemExit, so a running child is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "geckit" / "cli.py").is_file():
        print(f"error: no geckit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        commands, shape = prepare(args.workload, args.seed, args.scale, work)
        setup: list[float] = []
        plain: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.monotonic() + args.seconds
        while True:
            if not args.trace:
                setup.append(min(measure_setup(SETUP_STARTS)))
            plain.append(run_pass(commands, work, traced=False))
            if args.trace:
                traced.append(run_pass(commands, work, traced=True))
            elif len(plain) < MIN_PASSES:
                continue
            if time.monotonic() >= deadline:
                break
        if not args.trace:
            setup.append(min(measure_setup(SETUP_STARTS)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    use_reference = args.seed == DEFAULT_SEED and args.scale == 1.0 and not args.write_reference
    expected = dict(reference.get(args.workload, {})) if use_reference else {}
    passes = plain + traced
    gate(passes, expected)
    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.failure]
    if args.write_reference and not failed:
        reference[args.workload] = expected
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}: seed {args.seed}, scale {args.scale}, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(shape, sort_keys=True))
    for r in failed:
        print(f"FAILED {r.label}: {r.failure}")

    if args.trace:
        metrics = layer_metrics(plain, traced)
        print(f"per-layer metrics, median of {len(traced)} traced passes "
              f"({len(plain)} plain passes for trace.overhead_frac):")
        for name, m in metrics.items():
            print(f"  {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {}
        for name, unit, values, count in (
            ("setup_s", "s", setup, f"{len(setup)} rounds of {SETUP_STARTS} starts"),
            ("wall_s", "s", [p.wall_s for p in plain], f"{len(plain)} passes"),
            ("peak_rss_mb", "MB", [p.peak_rss_mb for p in plain], f"{len(plain)} passes"),
        ):
            q1, median, q3 = quartiles(values)
            print(f"{name} {median:.4f} {unit} (q1 {q1:.4f}, q3 {q3:.4f}, {count})")
            if name not in UNBOUNDED:
                metrics[name] = {"value": median, "unit": unit}
        cpu = least_cpu_s(plain)
        q1, median, q3 = quartiles([p.cpu_s for p in plain])
        print(f"cpu_s {cpu:.4f} s (sum of per-command minima over {len(plain)} passes; "
              f"pass totals q1 {q1:.4f}, median {median:.4f}, q3 {q3:.4f})")
        metrics["cpu_s"] = {"value": cpu, "unit": "s"}
    failed_frac = len(failed) / len(results)
    print(f"failed_frac {failed_frac:.4f} ratio ({len(failed)} of {len(results)} commands)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
