"""Benchmark for the corpus-scope CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both modes

Each workload is one ``corpus-scope run`` on an input made from ``--seed``
(the program's own ``--seed`` stays 42). The untraced mode (``--trace 0``)
starts the CLI as a child process again and again for ``--seconds`` seconds,
one child at a time, and reports the end-to-end metrics as medians over the
children: wall time, user+sys CPU and peak RSS of the child (``os.wait4``),
set-up time (wall time minus the stage seconds in the child's
``run_report.json``) and kept documents per wall second. The traced mode
(``--trace 1``) reports the per-layer metrics instead: import time per
module in fresh interpreters, then untraced children alternating with traced
in-process runs (``trace_run.py``).

Every run's twelve data files are hashed from disk and compared with the
hashes in its ``run_report.json``, with the hashes pinned in
``pinned_hashes.json`` when the (workload, seed) is pinned, and otherwise
with the first run of the same invocation. A non-zero exit, a missing file
or a mismatch makes the run failed; the table prints ``fail_ratio`` as failed
of attempted runs. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

Generated inputs are cached per (workload, seed) under ``.bench_work/``;
generating them and the warm-up run are benchmark set-up, outside every
reported time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import synth
from trace_run import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEMO_INPUT = SRC / "corpus_scope" / "data" / "mini_corpus.csv"

DEFAULT_SEED = 1
PROGRAM_SEED = "42"
MIN_SAMPLES = 3
# one workload's set-up and measurement end within this, hung children included
LIMIT_S = 165.0
KEEP_INPUTS = 3

DATA_FILES = (
    "corpus.csv", "dtm.mtx", "dtm_index.csv", "year_counts.csv", "trend.csv",
    "top_terms.csv", "type_shares.csv", "trend.svg", "ca_coords.csv",
    "lda_model.txt", "lda_top_words.csv", "bigrams_edges.csv",
)
STAGES = ("ingest", "text", "eda", "lsa", "lda", "bigrams")
IMPORT_PROBES = ("cli", "pipeline", "eda", "lsa", "lda", "text_pipeline")
ENTRY = "import sys; from corpus_scope.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    docs: int | None  # None: the bundled demo corpus
    fmt: str
    flags: tuple[str, ...]
    iterations: int


# demo is the README quick start: the Gibbs sweep and interpreter set-up are
# nearly all of it. synth-large makes ingest, tokenizing, the DTM, its export
# and bigram counting dominate, with one sweep. synth-wide keeps the demo's
# heavy layers busy at another shape: k=50 over a 5000-term vocabulary, a
# 20-axis Lanczos CA instead of the dense path, and JSONL instead of CSV.
WORKLOADS = {
    "demo": Workload(None, "csv", (), 1000),
    "synth-large": Workload(
        10_000, "csv", ("--iters", "1", "--burn-in", "0", "--dims", "5"), 1
    ),
    "synth-wide": Workload(
        3_000, "jsonl",
        ("--topics", "50", "--vocab-size", "5000", "--dims", "20",
         "--iters", "2", "--burn-in", "0"),
        2,
    ),
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    out_dir: Path


def log(msg: str) -> None:
    print(msg, flush=True)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def child_env() -> dict[str, str]:
    """The caller's environment, plus the source tree on the import path
    (what an installed console script would see)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def launch(argv: list[str], out_dir: Path, deadline: float) -> Sample:
    """Run one child to completion; wall time around it, rusage of it alone.
    A child still running at ``deadline`` is killed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - started, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        out_dir=out_dir,
    )


def cli_argv(wl: Workload, input_path: Path, out_dir: Path) -> list[str]:
    return ["run", "--input", str(input_path), "--out", str(out_dir),
            "--seed", PROGRAM_SEED, *wl.flags]


class RunFailed(Exception):
    """A run exited non-zero or wrote the wrong bytes."""


class Checker:
    """Decides whether a run's data files are the right bytes."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = expected
        self.failures: list[str] = []

    def check(self, sample: Sample, what: str) -> dict | None:
        """Return the run report when the run is correct, else None."""
        try:
            return self._verify(sample)
        except RunFailed as exc:
            self.failures.append(f"{what}: {exc}")
            log(f"# FAILED {what}: {exc}")
            return None

    def _verify(self, sample: Sample) -> dict:
        if sample.code != 0:
            raise RunFailed(f"exit code {sample.code}")
        try:
            report = json.loads((sample.out_dir / "run_report.json").read_text())
        except (OSError, ValueError) as exc:
            raise RunFailed(f"no readable run_report.json ({exc})") from None
        reported = report.get("output_files", {})
        hashes = {}
        for name in DATA_FILES:
            path = sample.out_dir / name
            if not path.is_file():
                raise RunFailed(f"missing {name}")
            hashes[name] = sha256_file(path)
            if reported.get(name) != hashes[name]:
                raise RunFailed(f"{name} differs from its hash in run_report.json")
        if self.expected is None:
            self.expected = hashes
        for name in DATA_FILES:
            if hashes[name] != self.expected[name]:
                raise RunFailed(f"{name} differs from the expected bytes")
        return report


def load_pins(workload: str, seed: int, input_sha: str) -> dict[str, str] | None:
    """Pinned output hashes for this (workload, seed), if any.

    The demo input is the bundled corpus, the same for every seed. A pinned
    synthetic seed also pins the generated input, so a changed generator is
    reported as such instead of as a program fault.
    """
    pins = json.loads((BENCH_DIR / "pinned_hashes.json").read_text())[workload]
    entry = pins.get("any") or pins.get(str(seed))
    if entry is None:
        return None
    if entry["input_sha256"] != input_sha:
        raise SystemExit(f"perfbench: input for {workload} seed {seed} differs "
                         "from the pinned input; the generator changed")
    return entry["outputs"]


def prepare_input(name: str, wl: Workload, seed: int) -> Path:
    if wl.docs is None:
        return DEMO_INPUT
    folder = WORK / "inputs" / name
    path = folder / f"seed-{seed}" / f"corpus.{wl.fmt}"
    synth.write_corpus(path, wl.docs, seed, wl.fmt)
    # bound the cache: keep the most recently used seeds of this workload
    os.utime(path.parent)
    others = sorted(folder.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in others[KEEP_INPUTS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def warm_up(wl: Workload, input_path: Path, deadline: float) -> None:
    """Fill .pyc and page caches: read the input, run the CLI once on the
    demo corpus with two sweeps. Users pay these costs once, not per run."""
    input_path.read_bytes()
    out = WORK / "warmup"
    launch([sys.executable, "-c", ENTRY, "run", "--input", str(DEMO_INPUT),
            "--out", str(out), "--iters", "2", "--burn-in", "0"], out, deadline)
    shutil.rmtree(out, ignore_errors=True)


def environment() -> dict:
    """What the numbers depend on: interpreter, libraries, BLAS, CPU."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    env["blas_threads"] = _openblas_threads(Path(numpy.__file__).parent.parent / "numpy.libs")
    return env


def _openblas_threads(libdir: Path) -> int | None:
    import ctypes

    for lib_path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def stage_seconds(report: dict) -> dict[str, float]:
    return {s["name"]: float(s["seconds"]) for s in report["stages"]}


def kept_documents(out_dir: Path) -> int:
    with open(out_dir / "dtm_index.csv", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.startswith("doc,"))


def tail_percentile(values: list[float]) -> tuple[str, float | None]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"p-tail needs n>=11, have n={n}", None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return f"p{pct}", ordered[max(math.ceil(pct / 100 * n) - 1, 0)]


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "docs_per_s": "docs/s"}


def run_untraced(name: str, wl: Workload, input_path: Path, seconds: float,
                 checker: Checker, deadline: float) -> tuple[dict, int]:
    series: dict[str, list[float]] = {k: [] for k in E2E_UNITS}
    attempted = 0
    docs = None
    started = time.perf_counter()
    while attempted == 0 or time.perf_counter() < deadline and (
            attempted < MIN_SAMPLES or time.perf_counter() - started < seconds):
        out = WORK / "runs" / name / "untraced"
        sample = launch([sys.executable, "-c", ENTRY, *cli_argv(wl, input_path, out)], out,
                        deadline)
        attempted += 1
        report = checker.check(sample, f"untraced run {attempted}")
        if report is None:
            continue
        if docs is None:
            docs = kept_documents(out)
        series["wall_s"].append(sample.wall_s)
        series["cpu_s"].append(sample.cpu_s)
        series["peak_rss_mb"].append(sample.peak_rss_mb)
        series["setup_s"].append(sample.wall_s - sum(stage_seconds(report).values()))
        series["docs_per_s"].append(docs / sample.wall_s)
        log(f"#   run {attempted}: wall {sample.wall_s:.4f} s, cpu {sample.cpu_s:.4f} s, "
            f"rss {sample.peak_rss_mb:.1f} MB, setup {series['setup_s'][-1]:.4f} s")
    return series, attempted


def print_e2e(name: str, series: dict, attempted: int, failed: int) -> dict:
    metrics = {}
    log(f"# {name}: end-to-end, untraced, one CLI child per sample")
    for metric, unit in E2E_UNITS.items():
        values = series[metric]
        if not values:
            continue
        med = statistics.median(values)
        label, tail = tail_percentile(values)
        tail_txt = f"{label}={tail:.6g}" if tail is not None else label
        log(f"#   {metric:<12} {med:>12.6g} {unit:<7} median of n={len(values)}; {tail_txt}")
        metrics[metric] = {"value": med, "unit": unit}
    log(f"#   {'fail_ratio':<12} {failed / attempted:>12.6g} {'ratio':<7} "
        f"{failed} failed of {attempted} runs attempted")
    return metrics


def probe_import(module: str, deadline: float) -> float:
    """Cumulative import time of corpus_scope.<module> in a fresh interpreter."""
    target = f"corpus_scope.{module}"
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {target}"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: importing {target} did not finish in time") from None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == target:
            return int(parts[1]) / 1e6
    raise SystemExit(f"perfbench: no import time for {target}: {proc.stderr[-300:]}")


PER_LAYER_UNITS = {
    "corpus_ingest.parse_file_s": "s", "corpus_ingest.serialize_corpus_s": "s",
    "corpus_ingest.records": "count", "corpus_ingest.flagged": "count",
    "text_pipeline.build_sequences_s": "s", "text_pipeline.build_vocabulary_s": "s",
    "text_pipeline.build_dtm_s": "s", "text_pipeline.export_matrixmarket_s": "s",
    "text_pipeline.export_dtm_index_s": "s", "text_pipeline.tokens": "count",
    "text_pipeline.in_vocab_share": "ratio", "text_pipeline.dtm_nnz": "count",
    "text_pipeline.dtm_mb": "MB",
    "lsa.fit_ca_s": "s", "lsa.fit_ca_iterations": "count",
    "lsa.project_supplementary_s": "s", "lsa.representative_documents_s": "s",
    "lda.fit_lda_s": "s", "lda.token_sweeps": "count", "lda.us_per_token_sweep": "us",
    "lda.render_model_s": "s", "lda.top_words_per_topic_s": "s",
    "bigrams.count_bigrams_s": "s", "bigrams.threshold_graph_s": "s",
    "bigrams.export_graph_s": "s", "bigrams.pairs": "count",
    "bigrams.distinct_pairs": "count", "bigrams.kept_share": "ratio",
    "eda.s": "s", "svgplot.line_chart_s": "s",
    "pipeline.self_s": "s", "pipeline.output_mb": "MB",
    **{f"stage.{s}_s": "s" for s in STAGES},
    **{f"import.{m}_s": "s" for m in IMPORT_PROBES},
    "trace.overhead_s": "s",
}

# the base each count or ratio is taken over, printed beside it
BASES = {
    "corpus_ingest.flagged": "of corpus_ingest.records parsed",
    "text_pipeline.tokens": "post-stopword tokens",
    "text_pipeline.in_vocab_share": "in-vocabulary / post-stopword tokens",
    "lda.token_sweeps": "in-vocabulary tokens x iterations",
    "lda.us_per_token_sweep": "fit_lda_s / lda.token_sweeps",
    "bigrams.kept_share": "edges / bigrams.distinct_pairs",
    "pipeline.self_s": "run_pipeline span minus its traced child spans",
    "trace.overhead_s": "traced run_pipeline span minus untraced stage sum",
}


def layer_metrics(trace: dict, wl: Workload) -> dict[str, float]:
    """Per-layer busy seconds, counts and ratios from one traced run."""
    spans, counts = trace["spans"], trace["counts"]
    busy: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    children: dict[int, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        key = f"{s['layer']}.{s['name']}_s"
        busy[key] = busy.get(key, 0.0) + dur
        by_layer[s["layer"]] = by_layer.get(s["layer"], 0.0) + dur
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + dur
    root = next(s for s in spans if s["name"] == "run_pipeline")
    root_s = root["end"] - root["start"]
    tokens = counts.get("text_pipeline.tokens", 0)
    in_vocab = counts.get("text_pipeline.in_vocab_tokens", 0)
    distinct = counts.get("bigrams.distinct_pairs", 0)
    token_sweeps = in_vocab * wl.iterations
    # busy seconds of each reported function, 0 when the run never called it
    m = {key: busy.get(key, 0.0) for key in PER_LAYER_UNITS
         if key.endswith("_s") and key.split(".")[0] in LAYERS}
    m.update({
        "corpus_ingest.records": counts.get("corpus_ingest.records", 0),
        "corpus_ingest.flagged": counts.get("corpus_ingest.flagged", 0),
        "text_pipeline.tokens": tokens,
        "text_pipeline.in_vocab_share": in_vocab / tokens if tokens else 0.0,
        "text_pipeline.dtm_nnz": counts.get("text_pipeline.dtm_nnz", 0),
        "text_pipeline.dtm_mb": counts.get("text_pipeline.dtm_bytes", 0) / 2**20,
        "lsa.fit_ca_iterations": counts.get("lsa.fit_ca_iterations", 0),
        "lda.token_sweeps": token_sweeps,
        "lda.us_per_token_sweep": 1e6 * busy.get("lda.fit_lda_s", 0.0) / token_sweeps
        if token_sweeps else 0.0,
        "bigrams.pairs": counts.get("bigrams.pairs", 0),
        "bigrams.distinct_pairs": distinct,
        "bigrams.kept_share": counts.get("bigrams.edges", 0) / distinct if distinct else 0.0,
        "eda.s": by_layer.get("eda", 0.0),
        "pipeline.self_s": root_s - children.get(root["id"], 0.0),
        "trace.run_pipeline_s": root_s,
    })
    return m


def run_traced(name: str, wl: Workload, input_path: Path, seconds: float,
               checker: Checker, deadline: float) -> tuple[dict, int]:
    started = time.perf_counter()
    metrics: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        metrics.setdefault(key, []).append(value)

    for module in IMPORT_PROBES:
        add(f"import.{module}_s", probe_import(module, deadline))

    attempted = 0
    stage_sums: list[float] = []
    traced_totals: list[float] = []
    span_file = WORK / "trace" / name / "spans.json"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    while attempted == 0 or (time.perf_counter() < deadline
                             and time.perf_counter() - started < seconds):
        out = WORK / "runs" / name / "untraced"
        sample = launch([sys.executable, "-c", ENTRY, *cli_argv(wl, input_path, out)], out,
                        deadline)
        attempted += 1
        report = checker.check(sample, f"untraced run {attempted}")
        if report is not None:
            stages = stage_seconds(report)
            stage_sums.append(sum(stages.values()))
            for stage in STAGES:
                add(f"stage.{stage}_s", stages.get(stage, 0.0))

        out = WORK / "runs" / name / "traced"
        sample = launch([sys.executable, str(BENCH_DIR / "trace_run.py"), str(span_file),
                         *cli_argv(wl, input_path, out)], out, deadline)
        attempted += 1
        if checker.check(sample, f"traced run {attempted}") is not None:
            trace = json.loads(span_file.read_text())
            for key, value in layer_metrics(trace, wl).items():
                add(key, value)
            add("pipeline.output_mb",
                sum((out / f).stat().st_size for f in DATA_FILES) / 2**20)
            traced_totals.append(metrics["trace.run_pipeline_s"][-1])

    if stage_sums and traced_totals:
        add("trace.overhead_s",
            statistics.median(traced_totals) - statistics.median(stage_sums))
    log(f"# {name}: per-layer, traced in-process run(s) (spans in {span_file.relative_to(ROOT)}),"
        " import probes in fresh interpreters, stage seconds from untraced runs")
    result = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key not in metrics:
            continue
        values = metrics[key]
        med = statistics.median(values)
        base = f"  [{BASES[key]}]" if key in BASES else ""
        log(f"#   {key:<36} {med:>14.6g} {unit:<6} n={len(values)}{base}")
        result[key] = {"value": med, "unit": unit}
    return result, attempted


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Set up one workload, measure it, and return (metrics, attempted, failed)."""
    wl = WORKLOADS[name]
    setup_started = time.perf_counter()
    deadline = setup_started + LIMIT_S
    input_path = prepare_input(name, wl, seed)
    input_sha = sha256_file(input_path)
    checker = Checker(load_pins(name, seed, input_sha))
    warm_up(wl, input_path, deadline)
    log(f"# {name}: seed {seed}, input {input_path.relative_to(ROOT)} "
        f"sha256 {input_sha[:16]}, hashes {'pinned' if checker.expected else 'unpinned'}; "
        f"benchmark set-up {time.perf_counter() - setup_started:.3f} s")
    try:
        if trace:
            metrics, attempted = run_traced(name, wl, input_path, seconds, checker, deadline)
        else:
            series, attempted = run_untraced(name, wl, input_path, seconds, checker, deadline)
            metrics = print_e2e(name, series, attempted, len(checker.failures))
    finally:
        shutil.rmtree(WORK / "runs" / name, ignore_errors=True)
    return metrics, attempted, len(checker.failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="'all' runs every workload untraced, then traced, and "
                        "reports each metric as WORKLOAD/METRIC")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated input (the program seed stays 42)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least %d CLI runs)" % MIN_SAMPLES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "corpus_scope" / "cli.py").is_file():
        print(f"perfbench: no corpus-scope source under {SRC}", file=sys.stderr)
        return 2
    log("# env " + json.dumps(environment(), sort_keys=True))

    if args.workload == "all":
        plan = [(name, trace) for trace in (False, True) for name in WORKLOADS]
    else:
        plan = [(args.workload, bool(args.trace))]
    metrics: dict = {}
    attempted = failed = 0
    for name, trace in plan:
        found, tried, bad = measure(name, args.seed, args.seconds, trace)
        attempted += tried
        failed += bad
        if len(plan) == 1:
            metrics = found
        else:
            metrics.update({f"{name}/{key}": value for key, value in found.items()})

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
