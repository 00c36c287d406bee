"""Benchmark of the wilee threat-hunting pipeline, driven through its CLI.

One workload, one process:

    python3 perfbench/run.py --workload hunt_bind --seed 7 --seconds 15 --trace 0

Every workload, each in its own process, over several seeds:

    python3 perfbench/run.py --workload all --seeds 1-3 --results runs.jsonl

A run generates its inputs from the seed (cached under ``perfbench/.work``),
runs one untimed round whose outputs are checked, then repeats identical
rounds of ``wilee hunt`` / ``wilee malmo`` / ``wilee perturb`` until
``--seconds`` have passed, timing the program's loaders (``setup_s``)
apart from the commands before each round.  Times are reported at a fixed
reference speed (see ``Clock``); the plain wall times go to stderr.
Tracing is off in these rounds.  With ``--trace 1`` the rounds alternate
between untraced and traced, and the run prints the per-layer metrics of
``tracing.py`` instead.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hunt_window", "hunt_bind", "hunt_scale", "generate")
END_TO_END = {"setup_s": "s", "hunt_s": "s", "generate_s": "s", "peak_rss_mb": "MB"}
MIN_ROUNDS = 3
# The host's CPU speed swings by more than half within seconds and over
# minutes, for every process on it and on either vCPU.  A fixed reference
# loop is therefore timed around and during each timed call, and the time
# metrics are the calls' wall times rescaled to the speed at which that
# loop takes REFERENCE_SECONDS.
REFERENCE_SECONDS = 0.015
SAMPLE_INTERVAL = 0.25  # seconds between reference samples within a call


def reference_seconds() -> float:
    """Wall time of a fixed loop of tuple, dict and string work, with the
    cyclic collector off so that the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(24_000):
            key = ("h%d" % (i % 13), i % 97)
            table[key] = table.get(key, 0) + i
            if key[0] == "h7" and i % 3:
                table.pop(key, None)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times calls at the reference speed: a call's wall time times
    REFERENCE_SECONDS over the mean of the reference loop's times just
    before it, just after it and, with ``sampling``, every SAMPLE_INTERVAL
    during it.  Those samples run in a SIGALRM handler of the calling
    thread, and their time is taken out of the call's.  Keeps the wall
    times too.  Runs with ``--trace 1`` do not sample, so that no span
    holds a sample."""

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.before = reference_seconds()
        self.scaled: dict[str, list[float]] = {}
        self.wall: dict[str, list[float]] = {}

    def call(self, label: str, fn):
        samples: list[float] = []
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_seconds()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - start
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall -= sum(samples)
            after = reference_seconds()
            speed = statistics.fmean([self.before, *samples, after])
            self.scaled.setdefault(label, []).append(wall * REFERENCE_SECONDS / speed)
            self.wall.setdefault(label, []).append(wall)
            self.before = after


def import_wilee():
    """Put the checkout's ``src`` first on the path and import the CLI."""
    if not (ROOT / "src" / "wilee" / "cli.py").is_file():
        sys.exit(f"perfbench: no wilee sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import wilee.cli

    return wilee.cli


def prepare(workload: str, seed: int):
    """The seed's spec and its input directory, written unless cached."""
    spec = inputs.make_spec(workload, seed)
    directory = HERE / ".work" / workload / "inputs"
    # The stamp names the generator's and the program's sources, so inputs
    # follow generator changes and the archive digests kept beside them
    # compare runs of one program only.
    sources = hashlib.sha256(Path(inputs.__file__).read_bytes())
    for path in sorted((ROOT / "src" / "wilee").rglob("*")):
        if path.suffix in (".py", ".json"):
            sources.update(path.read_bytes())
    stamp = {"workload": workload, "seed": seed, "sources": sources.hexdigest()}
    stamp_path = directory / "stamp.json"
    if not stamp_path.is_file() or json.loads(stamp_path.read_text("utf-8")) != stamp:
        shutil.rmtree(directory, ignore_errors=True)
        inputs.write_inputs(spec, directory)
        stamp_path.write_text(json.dumps(stamp) + "\n", "utf-8")
    return spec, directory


class Workload:
    def __init__(self, cli, name: str, seed: int):
        self.cli = cli
        self.spec, self.inputs = prepare(name, seed)
        self.out = HERE / ".work" / name / "out"
        i = self.inputs
        stores = ["--ttp-store", str(i / "ttp_store"), "--ioc-db", str(i / "ioc_db.jsonl")]
        # (end-to-end metric, label, argv) in the order a round runs them.
        self.commands = [
            ("hunt_s", "hunt", ["hunt", *stores, "--events", str(i / "events.ndjson"), "--desc", str(i / "hunt.wdsl"),
                                "--out", str(self.out / "hunt")]),
            ("generate_s", "malmo", ["malmo", str(i / "technique_t1552_002.json"), *stores, "--out", str(self.out / "malmo")]),
        ]
        for k in range(self.spec.shape.perturb_runs):
            self.commands.append(("generate_s", f"perturb{k}", [
                "perturb", str(i / "seed_impl.wdsl"), "--ioc-db", str(i / "ioc_db.jsonl"), "--config", str(i / "gpe.json"),
                "--seed", str(k), "--events", str(i / "events.ndjson"), "--out", str(self.out / f"perturb{k}"),
            ]))
        self.repeats = dict(zip(("hunt_s", "generate_s"), self.spec.shape.repeats))
        self.invocations = {label: self.repeats[metric] for metric, label, _ in self.commands}

    def setup_samples(self) -> Clock:
        """Times of the program's own loaders over the inputs, repeated
        for at least a fifth of a second of wall time."""
        from wilee.hunt import NdjsonProxy
        from wilee.stores import StorePaths, load_stores

        paths = StorePaths(ttp_index=self.inputs / "ttp_store", ioc_db=self.inputs / "ioc_db.jsonl")
        clock = Clock()
        while sum(clock.wall.get("setup", ())) < 0.2:
            clock.call("setup", lambda: (load_stores(paths), NdjsonProxy(self.inputs / "events.ndjson")))
        return clock

    def round(self, capture_first_hunt=None, sampling: bool = True) -> dict:
        """Run each command group as often as the workload repeats it,
        timing every invocation.  Returns the clock holding those times
        per command, the round's wall time, exit codes per command, and
        the outputs the checks read."""
        shutil.rmtree(self.out, ignore_errors=True)
        codes = {}
        round_start = time.perf_counter()
        clock = Clock(sampling)
        for metric, repeats in self.repeats.items():
            for _ in range(repeats):
                for _, label, argv in (c for c in self.commands if c[0] == metric):
                    hook, capture_first_hunt = (capture_first_hunt, None) if label == "hunt" else (None, capture_first_hunt)
                    with hook or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
                        codes.setdefault(label, []).append(clock.call(label, lambda: self._call(argv)))
        return {"clock": clock, "wall": time.perf_counter() - round_start, "codes": codes, "outputs": self._outputs()}

    def _call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return "exception"

    def _outputs(self) -> dict:
        def text(path: Path):
            return path.read_text("utf-8") if path.is_file() else None

        out = {"hunt": text(self.out / "hunt" / "report.json"), "malmo": text(self.out / "malmo" / "t1552_002.wdsl")}
        for _, label, _ in self.commands[2:]:
            archive = self.out / label / "archive"
            out[label] = checks.digest(archive) if archive.is_dir() else None
        return out


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed.  Every round attempts the same
    operations, and a round whose outputs equal the checked round's
    shares its check results, so a fault fails the same share each run."""

    def __init__(self, ops: dict[str, int], invocations: dict[str, int]):
        self.ops = ops  # operations per invocation of each command
        self.invocations = invocations  # invocations per round
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.same_as_checked: Counter = Counter()

    def fail(self, label: str, reason: str, count: int, check: bool = True) -> None:
        print(f"perfbench: {label}: {reason}", file=sys.stderr)
        self.failed += count
        self.check_failed |= check

    def count_round(self, result: dict, reference: dict) -> None:
        self.attempted += sum(self.ops[label] * n for label, n in self.invocations.items())
        for label, codes in result["codes"].items():
            for code in codes:
                if code != 0:
                    self.fail(label, f"exit {code}", self.ops[label], check=False)
        for label, output in result["outputs"].items():
            if result["codes"][label][-1] != 0:
                continue
            if output == reference["outputs"][label]:
                self.same_as_checked[label] += 1
            else:
                differing = _differing(output, reference["outputs"][label]) if label == "hunt" else None
                self.fail(label, "output differs from the checked round",
                          (differing or self.ops[label]) * self.invocations[label])

    def check_failed_ops(self, label: str, reason: str, ops: int) -> None:
        """``ops`` operations of one invocation failed a check."""
        self.fail(label, reason, ops * self.invocations[label] * self.same_as_checked[label])


def _differing(report, reference):
    """Implementations whose report entries differ (None if unreadable)."""
    try:
        a, b = ({t["impl_id"]: t for t in json.loads(r)["threats"]} for r in (report, reference))
    except (TypeError, ValueError, KeyError):
        return None
    return sum(1 for k in b if a.get(k) != b[k]) or None


def make_ledger(wl: Workload) -> Ledger:
    """Operations per invocation: implementations per hunt, one per
    draft, archived candidates per gpe run (at least one), as the checked
    round left them."""
    ops = {"hunt": len(checks.expected_impls(wl.spec)), "malmo": 1}
    for _, label, _ in wl.commands[2:]:
        index = wl.out / label / "archive" / "archive.jsonl"
        ops[label] = max(1, len(index.read_text("utf-8").splitlines()) if index.is_file() else 1)
    return Ledger(ops, wl.invocations)


def check_reference(wl: Workload, reference: dict, capture, oracle, ledger: Ledger) -> None:
    """Full checks of the captured round's outputs.  Archives are read
    from the last round, whose digests every round compared."""
    ok = {label: codes[-1] == 0 for label, codes in reference["codes"].items()}
    outputs = reference["outputs"]
    if ok["hunt"]:
        if outputs["hunt"] is None:
            problems = {"": ["no report written"]}
        else:
            problems = checks.check_hunt(wl.spec, oracle, json.loads(outputs["hunt"]), capture)
        if problems:
            reason = " | ".join(f"{impl or 'report'}: {'; '.join(p[:3])}" for impl, p in problems.items())
            ledger.check_failed_ops("hunt", reason, ledger.ops["hunt"] if "" in problems else len(problems))
        for step in ("execute", "build_graph", "match"):
            if step not in capture.fired:
                print(f"perfbench: hunt.{step} not observed; its checks were skipped", file=sys.stderr)
    if ok["malmo"]:
        problems = checks.check_draft(oracle, outputs["malmo"]) if outputs["malmo"] else ["no draft written"]
        if problems:
            ledger.check_failed_ops("malmo", "; ".join(problems), 1)
    capacity = json.loads((wl.inputs / "gpe.json").read_text("utf-8"))["archive_capacity"]
    digests_path = wl.inputs / "digests.json"
    known = json.loads(digests_path.read_text("utf-8")) if digests_path.is_file() else {}
    for _, label, _ in wl.commands[2:]:
        if not ok[label]:
            continue
        problems = checks.check_archive(wl.out / label / "archive", capacity)
        if known.setdefault(label, outputs[label]) != outputs[label]:
            problems.append("archive digest differs from an earlier run of this seed")
        if problems:
            ledger.check_failed_ops(label, "; ".join(problems[:3]), ledger.ops[label])
    digests_path.write_text(json.dumps(known, indent=2) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(import_wilee(), name, seed)

    capture = checks.Capture()

    @contextlib.contextmanager
    def capturing():
        with tracing.Patches() as patches:
            capture.install(patches)
            yield

    reference = wl.round(capture_first_hunt=capturing(), sampling=not trace)
    ledger = make_ledger(wl)
    ledger.count_round(reference, reference)

    # Set-up samples are taken between rounds, so that they spread over the
    # run as the rounds do.
    timed, traced, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while len(timed) < (1 if trace else MIN_ROUNDS) or time.perf_counter() < deadline:
        if not trace:
            setup.append(wl.setup_samples())
        timed.append(wl.round(sampling=not trace))
        ledger.count_round(timed[-1], reference)
        if trace:
            tracer = tracing.Tracer()
            with tracing.Patches() as patches:
                missing = tracing.install(tracer, patches)
                traced.append((wl.round(sampling=False), tracer, missing))
            ledger.count_round(traced[-1][0], reference)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_reference(wl, reference, capture, checks.Oracle(wl.spec, wl.inputs), ledger)

    if trace:
        metrics, units = per_layer(timed, traced), tracing.PER_LAYER
        with open(HERE / ".work" / name / "spans.jsonl", "w", encoding="utf-8") as out:
            for i, (_, tracer, _) in enumerate(traced):
                out.writelines(json.dumps([i, *span[:4]]) + "\n" for span in tracer.spans)
    else:
        metrics, wall = (command_seconds(wl, [r["clock"] for r in timed], setup, key) for key in ("scaled", "wall"))
        metrics["peak_rss_mb"] = peak_mb
        units = END_TO_END
        print(f"perfbench: {name} seed {seed}: the same metrics in wall seconds: "
              + ", ".join(f"{k}={v:.4f}" for k, v in wall.items()), file=sys.stderr)
    print(f"perfbench: {name} seed {seed}: {len(timed)} untraced, {len(traced)} traced rounds", file=sys.stderr)
    return {
        "correct": not ledger.check_failed,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def command_seconds(wl: Workload, rounds: list[Clock], setup: list[Clock], key: str) -> dict[str, float]:
    """``setup_s``, the median of the set-up samples, and per command
    metric the sum over its commands of each command's mean invocation
    time over every timed round of the run; ``key`` picks the times at
    the reference speed ("scaled") or the wall times ("wall").

    The host's speed flips between levels within seconds.  The mean moves
    in proportion to the time spent at each level; a median of
    invocations jumps from one level to the other, so it spreads further
    between runs of the same code."""
    metrics = {"setup_s": statistics.median(t for c in setup for t in getattr(c, key)["setup"])}
    metrics.update(dict.fromkeys(wl.repeats, 0.0))
    for metric, label, _ in wl.commands:
        metrics[metric] += statistics.fmean(t for c in rounds for t in getattr(c, key)[label])
    return metrics


def per_layer(timed: list, traced: list) -> dict[str, float]:
    """Median per-layer figures of the traced rounds, and the tracing
    overhead: median traced round minus median untraced round."""
    rounds = [tracing.layer_metrics(tracer) for _, tracer, _ in traced]
    unmeasured = set().union(*(missing | tracer.unmeasured for _, tracer, missing in traced))
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        timing = unit in ("s", "ratio")
        if tracing.layer_of(name) in unmeasured:
            metrics[name] = 0.0 if timing else 0
        else:
            # Counts repeat exactly from round to round.
            metrics[name] = (statistics.median if timing else statistics.median_low)(r[name] for r in rounds)
    if unmeasured:
        print(f"perfbench: unmeasured layers (reported as 0): {sorted(unmeasured)}", file=sys.stderr)
    metrics["trace.overhead_s"] = statistics.median(r["wall"] for r, _, _ in traced) - statistics.median(
        r["wall"] for r in timed
    )
    return metrics


# ---------------------------------------------------------------------------
# Every workload, each in its own process
# ---------------------------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_all(args) -> int:
    status = 0
    for seed in parse_seeds(args.seeds or str(args.seed)):
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            status |= proc.returncode != 0
            if result is None:
                print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
            else:
                values = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
                print(f"{name} seed {seed}: correct={result['correct']}, {result['failed']}/{result['attempted']} failed; "
                      f"{values}", flush=True)
            if args.results:
                entry = {"workload": name, "seed": seed, "trace": args.trace, "exit": proc.returncode, "result": result}
                with open(args.results, "a", encoding="utf-8") as out:
                    out.write(json.dumps(entry) + "\n")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", help="run each workload once per seed, each in its own process (e.g. 1-10 or 3,5)")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="with --workload all or --seeds: append each run's result to this JSONL file")
    args = parser.parse_args()
    if args.workload == "all" or args.seeds:
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
