"""demoscope benchmark: CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload cli-demo --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; the package is imported from ./src. Each
run generates its inputs from the seed (perfbench/gen.py), then runs
the workload's command chain (perfbench/workloads.py) as fresh
`demoscope` processes, one at a time, until --seconds have passed, and
checks every output against the generator's ground truth.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 alternates untraced chains with chains run through
perfbench/tracer.py and reports the per-layer metrics, including the
tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details (input digests, per-command times, the full span
table, failures) go to .perfbench/results/. Exit code 0 when every
operation passed its checks, 1 when one failed, 2 when the benchmark
cannot run here.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

import gen
import tracer
import workloads

SETUP_REPS = 3  # fresh `import demoscope.cli` processes per run
IMPORT_REPS = 3  # `-X importtime` processes per traced run
CMD_TIMEOUT = 170.0  # seconds; a hung command is killed and fails
SELF_TOL = 1e-6  # seconds; self times must add up to the root span
CLI = "from demoscope.cli import entry; entry()"  # the console script
IMPORTS = ("demoscope.cli", "scipy.stats", "scipy.sparse", "yaml")


def spawn(cmd, cwd: Path, env: dict, log: Path) -> dict:
    """Run one process to completion; wall time and its rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CMD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "start": t0,
        "end": t1,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under directory except manifest.json."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


class Workload:
    """One workload's generated inputs and the chains run over them."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root = root
        self.spec = workloads.WORKLOADS[name]
        self.work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        t0 = time.perf_counter()
        self.truth = gen.generate(self.spec, seed, self.work / "in")
        self.generate_s = time.perf_counter() - t0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup_times(self) -> list[float]:
        """Wall time of fresh interpreters that import demoscope.cli."""
        out = []
        for i in range(SETUP_REPS):
            p = spawn([sys.executable, "-c", "import demoscope.cli"], self.work, self.env,
                      self.work / "logs" / f"setup{i}.log")
            if p["rc"] != 0:
                raise RuntimeError(f"import demoscope.cli failed, see {self.work}/logs/setup{i}.log")
            out.append(p["end"] - p["start"])
        return out

    def import_times(self) -> dict[str, float]:
        """Cumulative import seconds of IMPORTS, median of IMPORT_REPS runs."""
        runs = []
        for _ in range(IMPORT_REPS):
            res = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import demoscope.cli"],
                cwd=self.work, env=self.env, capture_output=True, text=True, timeout=CMD_TIMEOUT,
            )
            seen = {}
            for line in res.stderr.splitlines():
                parts = line.removeprefix("import time:").split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    seen[parts[2].strip()] = int(parts[1]) / 1e6
            runs.append(seen)
        return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in IMPORTS}

    def chain(self, tag: str, traced: bool) -> dict:
        """Run the command chain once into work/tag and check its outputs."""
        cmds = workloads.commands(self.spec, tag)
        procs = []
        for name, argv in cmds:
            spans = self.work / "logs" / f"{tag}-{name}.spans.json"
            if traced:
                cmd = [sys.executable, str(self.root / "perfbench" / "tracer.py"), str(spans), *argv]
            else:
                cmd = [sys.executable, "-c", CLI, *argv]
            procs.append(spawn(cmd, self.work, self.env, self.work / "logs" / f"{tag}-{name}.log"))
        ops, quality = [], {}
        for (name, argv), p in zip(cmds, procs):
            out = self.work / argv[argv.index("--out-dir") + 1]
            problems = []
            if p["rc"] != 0:
                problems.append(f"{name}: exit code {p['rc']} (log: {self.work}/logs/{tag}-{name}.log)")
            else:
                try:
                    if not (out / "manifest.json").is_file():
                        problems.append(f"{name}: no manifest.json")
                    found, q = workloads.CHECKS[name](out, self.truth)
                    problems += found
                    for k, x in q.items():  # the chain's first source of a metric wins
                        quality.setdefault(k, x)
                except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
                    problems.append(f"{name}: unreadable output ({e!r})")
            op = {"command": name, "rc": p["rc"], "wall_s": p["end"] - p["start"],
                  "rss_mb": p["rss_mb"], "cpu_s": p["cpu_s"], "problems": problems,
                  "digests": digests(out) if out.is_dir() else {}}
            if traced:
                op["trace"] = self._spans(name, self.work / "logs" / f"{tag}-{name}.spans.json", problems)
            ops.append(op)
        return {
            "tag": tag,
            "traced": traced,
            "wall_s": procs[-1]["end"] - procs[0]["start"],
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "quality": quality,
            "ops": ops,
        }

    @staticmethod
    def _spans(name: str, path: Path, problems: list) -> dict:
        """Load one traced command's spans and self-test the tracer on them."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            problems.append(f"{name}: no span file ({e!r})")
            return {"spans": [], "counters": {}, "hook_errors": 0}
        spans = data["spans"]
        roots = [s for s in spans if s[3] == -1]
        if len(roots) != 1 or roots[0][0] != "cli.main":
            problems.append(f"{name}: expected one cli.main root span, got {[s[0] for s in roots]}")
        else:
            covered = sum(tracer.self_times(spans))
            root = roots[0][2] - roots[0][1]
            if abs(covered - root) > SELF_TOL:
                problems.append(f"{name}: self times sum to {covered!r}, root span is {root!r}")
        if data["counters"].get("bayes.em_trace_falls"):
            problems.append(f"{name}: an EM objective trace fell")
        return data

    def close(self, keep: bool):
        if not keep:
            shutil.rmtree(self.work, ignore_errors=True)


def compare(chain: dict, reference: dict, what: str):
    """Flag every command whose outputs differ from the reference chain."""
    for op, ref in zip(chain["ops"], reference["ops"]):
        if op["rc"] == 0 and ref["rc"] == 0 and op["digests"] != ref["digests"]:
            changed = sorted(k for k in op["digests"].keys() | ref["digests"].keys()
                             if op["digests"].get(k) != ref["digests"].get(k))
            op["problems"].append(f"{op['command']}: {what}: {changed}")


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(root, name, seed)
    setup = wl.setup_times()
    untraced, traced = [], []
    min_chains = 1 if trace else wl.spec.get("min_chains", 1)
    start = time.perf_counter()
    while True:
        i = len(untraced)
        # traced pairs alternate which side runs first
        if trace and i % 2:
            traced.append(wl.chain(f"t{i}", traced=True))
        untraced.append(wl.chain(f"u{i}", traced=False))
        if trace and not i % 2:
            traced.append(wl.chain(f"t{i}", traced=True))
        compare(untraced[-1], untraced[0], "output differs between runs of the same inputs")
        if trace:
            compare(traced[-1], untraced[0], "traced output differs from the untraced run")
        if len(untraced) >= min_chains and time.perf_counter() - start >= seconds:
            break
    imports = wl.import_times() if trace else {}
    chains = untraced + traced
    ops = [op for c in chains for op in c["ops"]]
    failures = [p for op in ops for p in op["problems"]]
    result = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": wl.truth["digests"],
        "generate_s": wl.generate_s,
        "setup_s": setup,
        "attempted": len(ops),
        "succeeded": sum(1 for op in ops if not op["problems"]),
        "failed": sum(1 for op in ops if op["problems"]),
        "failures": failures,
        "chains": [{k: v for k, v in c.items() if k != "ops"} for c in chains],
        "commands": [
            {k: v for k, v in op.items() if k not in ("trace", "digests")} | {"chain": c["tag"]}
            for c in chains for op in c["ops"]
        ],
    }
    values = end_to_end(untraced, setup, result)
    if trace:
        table, layer_values = per_layer(traced, untraced, imports)
        values.update(layer_values)
        result["span_table"] = table
    result["values"] = values
    wl.close(keep=bool(failures))
    return result


def end_to_end(untraced: list, setup: list, result: dict) -> dict:
    quality = untraced[0]["quality"]
    return {
        "wall_s": statistics.median(c["wall_s"] for c in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        "ok_ops_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        "auc": quality.get("auc", 0.0),
        "prevalence_acc": quality.get("prevalence_acc", 0.0),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: list, untraced: list, imports: dict) -> tuple[dict, dict]:
    """Span table and per-layer values, each a median over traced chains."""
    per_chain = []
    for c in traced:
        spans_by_cmd = [op["trace"]["spans"] for op in c["ops"]]
        table: dict[str, dict[str, float]] = {}
        for spans in spans_by_cmd:
            for fn, row in tracer.aggregate(spans).items():
                acc = table.setdefault(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
                for k in acc:
                    acc[k] += row[k]
        v = {f"{fn}.{k}": x for fn, row in table.items() for k, x in row.items()}
        counters: dict[str, float] = {}
        for op in c["ops"]:
            for k, x in op["trace"]["counters"].items():
                counters[k] = counters.get(k, 0) + x
        v["trace.hook_errors"] = sum(op["trace"]["hook_errors"] for op in c["ops"])

        def get(key):
            return v.get(key, 0.0)

        for k in ("data.rows_loaded", "data.nnz_loaded", "bayes.em_iterations", "bayes.em_trace_falls"):
            v[k] = counters.get(k, 0)
        v["data.load_corpus.rows_per_s"] = _ratio(v["data.rows_loaded"], get("data.load_corpus.s"))
        v["labeling.comments_per_s"] = _ratio(
            counters.get("labeling.comments", 0), get("labeling.extract_declarations.s"))
        # per estimate() call that computes naive Bayes posteriors at all
        under = [tracer.count_under(s, "bayes.predict_proba_matrix", "quantify.estimate")
                 for s in spans_by_cmd]
        v["quantify.estimate.posterior_passes"] = _ratio(
            sum(sum(u.values()) for u in under), sum(len(u) for u in under))
        v["data.to_csr_per_subset"] = _ratio(
            get("data.LabeledCorpus.to_csr.calls"), get("data.LabeledCorpus.subset.calls"))
        v["data.activities_per_fit"] = _ratio(
            get("data.LabeledCorpus.activities.calls"),
            get("bayes.fit_supervised.calls") + get("bayes.fit_semisupervised.calls"))
        for layer in tracer.LAYERS:
            v[f"layer.{layer}.self_s"] = sum(
                row["self_s"] for fn, row in table.items() if fn.startswith(layer + "."))
        v["trace.wall_s"] = c["wall_s"]
        per_chain.append(v)
    keys = set().union(*per_chain)
    values = {k: statistics.median(v.get(k, 0.0) for v in per_chain) for k in keys}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
        c["wall_s"] for c in untraced)
    values["proc.cpu_s"] = statistics.median(c["cpu_s"] for c in untraced)
    values.update({f"import.{m}.s": s for m, s in imports.items()})
    table = {k: x for k, x in values.items() if k.endswith((".calls", ".s", ".self_s"))}
    return table, values


def select(declared: list, values: dict) -> dict:
    """The declared metrics, by name. A function's .calls/.s/.self_s that
    never ran (or no longer exists) is 0; any other gap is a bug here."""
    out = {}
    for m in declared:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".calls", ".s", ".self_s")) and not name.startswith("import."):
            value = 0
        else:
            raise SystemExit(f"perfbench: metric {name!r} is declared but not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so spawn() kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "demoscope" / "cli.py").is_file():
        print("perfbench: src/demoscope/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        res["metrics"] = select(declared, res["values"])
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"== {name} (seed {args.seed}): {res['attempted']} operations, "
              f"{res['succeeded']} succeeded, {res['failed']} failed; "
              f"details in {path.relative_to(root)}")
        for fname, digest in res["inputs_sha256"].items():
            print(f"   input {fname:16s} sha256 {digest}")
        for failure in res["failures"]:
            print(f"   FAILED {failure}", file=sys.stderr)
        for metric, m in res["metrics"].items():
            print(f"   {metric:48s} {m['value']:>14.6g} {m['unit']}")
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        prefix = f"{name}/" if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: m for k, m in res["metrics"].items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
