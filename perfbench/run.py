"""svlie benchmark driver.

    python3 perfbench/run.py --workload h1-cases --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Prints one line per metric with its
unit, raw seconds and the measured reference-loop speed, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.

Each pass runs the workload's fixed op list in a fresh interpreter
(worker.py), one op at a time (a closed loop with one caller).  There are
two passes, and more while the next one still fits in ``--seconds``.
Each op's time is its median over the passes.  Times are rescaled to a
nominal host speed (refclock.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
SRC = ROOT / "src"

SETUP_ARGV = ["-m", "svlie.cli", "bracket", "--s", "1/2", "--lambda", "-1", "L[2]", "L[-2]"]
SETUP_EXPECTED = "-4*L[0] - 1/2*c"
BARE_ARGV = ["-c", "pass"]
SETUP_RUNS = 9
CLI_RUNS = 5
PASS_TIMEOUT_S = 120
PASSES_CAP_S = 120
# the keys of workloads.WORKLOADS; that module imports svlie, which this
# process does not
WORKLOADS = ("h1-cases", "lambda-sweep", "kernels", "identities")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(argv: list[str]) -> tuple[float, str]:
    """(raw seconds, stdout) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - t0, proc.stdout.strip()


def _time_starts(variants: dict[str, list[str]], runs: int) -> tuple[dict[str, list[float]], bool]:
    """Raw start times per variant, interleaved so that each round shares
    the host's drift; also whether the command printed the expected bracket.
    The first, untimed start writes the bytecode caches a user's install
    already has."""
    ok = _start(SETUP_ARGV)[1] == SETUP_EXPECTED
    times: dict[str, list[float]] = {k: [] for k in variants}
    for _ in range(runs):
        for key, argv in variants.items():
            raw, out = _start(argv)
            times[key].append(raw)
            if argv is SETUP_ARGV:
                ok = ok and out == SETUP_EXPECTED
    return times, ok


def _start_ratio(times: dict[str, list[float]], key: str) -> float:
    """Median of a variant's start time over the bare start of its round."""
    return statistics.median(t / b for t, b in zip(times[key], times["bare"]))


def measure_setup(runs: int) -> tuple[float, float, float, bool]:
    """Cold start of the CLI's bracket command: (normalised s, raw s, bare
    interpreter start ms, output ok), medians over the rounds."""
    times, ok = _time_starts({"bare": BARE_ARGV, "command": SETUP_ARGV}, runs)
    norm = _start_ratio(times, "command") * refclock.NOMINAL_START_S
    return norm, statistics.median(times["command"]), 1000 * statistics.median(times["bare"]), ok


def measure_cli_layers(runs: int) -> tuple[dict[str, tuple[float, float]], bool]:
    """Bare interpreter (loop-normalised), svlie.cli import and the command
    (start-normalised, as setup_s) as (normalised s, raw s)."""
    before = refclock.sample()
    times, ok = _time_starts(
        {"bare": BARE_ARGV, "import": ["-c", "import svlie.cli"], "command": SETUP_ARGV}, runs
    )
    loop_factor = refclock.factor(before, refclock.sample())
    bare = statistics.median(times["bare"])
    imp = _start_ratio(times, "import")
    cmd = _start_ratio(times, "command")
    raw_imp = statistics.median(times["import"])
    return {
        "cli.interpreter_s": (bare * loop_factor, bare),
        "cli.import_s": ((imp - 1) * refclock.NOMINAL_START_S, raw_imp - bare),
        "cli.command_s": (
            (cmd - imp) * refclock.NOMINAL_START_S,
            statistics.median(times["command"]) - raw_imp,
        ),
    }, ok


def run_pass(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if tiny:
        argv.append("--tiny")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {PASS_TIMEOUT_S} s", "elapsed": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": proc.stderr.strip()[-2000:], "elapsed": time.perf_counter() - t0}
    result = json.loads(lines[-1])
    result["elapsed"] = time.perf_counter() - t0
    result["trace_on"] = trace
    return result


def run_passes(workload: str, seed: int, seconds: float, traced: bool, tiny: bool) -> list[dict]:
    """Passes while the next one still fits in the budget: ``seconds``, but
    PASSES_CAP_S for the second, so that every run has two unless that
    would break the 180-s limit on a run.  A traced run alternates
    untraced and traced passes."""
    passes: list[dict] = []
    spent = 0.0
    while not passes or spent + spent / len(passes) <= (
        PASSES_CAP_S if len(passes) == 1 else seconds
    ):
        trace = traced and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, trace, tiny))
        spent += passes[-1]["elapsed"]
    return passes


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass between
    (i-1)/n and i/n.  Op times cluster by op kind, so a single order
    statistic jumps across the gaps between clusters from run to run; the
    weighted mean moves smoothly.  The Beta masses come from the midpoint
    rule on 64 points per order statistic."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64
    estimate = mass = 0.0
    for i, xi in enumerate(x):
        w = 0.0
        for k in range(steps):
            t = (i * steps + k + 0.5) / (n * steps)
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        estimate += w * xi
        mass += w
    return estimate / mass


def _pass_wall(p: dict) -> float:
    return sum(r["raw_s"] * r["factor"] for r in p["ops"])


def _op_medians(passes: list[dict]) -> tuple[list[float], list[float]]:
    """Each op's median normalised and raw time over the passes."""
    norm: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for p in passes:
        for r in p["ops"]:
            norm.setdefault(r["id"], []).append(r["raw_s"] * r["factor"])
            raw.setdefault(r["id"], []).append(r["raw_s"])
    return (
        [statistics.median(v) for v in norm.values()],
        [statistics.median(v) for v in raw.values()],
    )


def _ref_ms(passes: list[dict]) -> float:
    """Measured reference-loop time in ms, averaged over the passes' ops."""
    factors = [r["factor"] for p in passes for r in p["ops"]]
    return 1000 * refclock.NOMINAL_S * len(factors) / sum(factors)


def _tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for p in passes:
        if "crashed" in p:
            attempted += 1
            failed += 1
            errors.append(f"worker crashed: {p['crashed']}")
            continue
        for r in p["ops"]:
            attempted += 1
            if not r["ok"]:
                failed += 1
                errors.append(f"{r['id']}: {r['error']}")
    return attempted, failed, errors


def end_to_end(workload: str, args) -> tuple[dict, int, int, bool, list[str]]:
    setup_norm, setup_raw, bare_ms, setup_ok = measure_setup(2 if args.tiny else SETUP_RUNS)
    passes = run_passes(workload, args.seed, args.seconds, False, args.tiny)
    attempted, failed, errors = _tally(passes)
    good = [p for p in passes if "crashed" not in p]
    lines = [
        f"setup_s = {setup_norm:.4f} s (raw {setup_raw:.4f} s; bare interpreter start "
        f"{bare_ms:.1f} ms, nominal {1000 * refclock.NOMINAL_START_S:.0f} ms; median of "
        f"{2 if args.tiny else SETUP_RUNS} cold starts)"
    ]
    metrics = {"setup_s": (setup_norm, "s")}
    if good:
        ref = _ref_ms(good)
        lat, lat_raw = _op_medians(good)
        wall_norm, wall_raw = sum(lat), sum(lat_raw)
        rss = statistics.median(p["rss_mb"] for p in good)
        metrics.update(
            {
                "wall_s": (wall_norm, "s"),
                "op_p50_s": (hd_quantile(lat, 0.5), "s"),
                "op_p90_s": (hd_quantile(lat, 0.9), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
        )
        lines += [
            f"wall_s = {wall_norm:.4f} s (raw {wall_raw:.4f} s; {len(lat)} ops, each "
            f"its median over {len(good)} passes; reference loop {ref:.3f} ms, "
            f"nominal {1000 * refclock.NOMINAL_S:.3f} ms)",
            f"op_p50_s = {metrics['op_p50_s'][0]:.5f} s (raw {hd_quantile(lat_raw, 0.5):.5f} s; "
            f"{len(lat)} ops)",
            f"op_p90_s = {metrics['op_p90_s'][0]:.5f} s (raw {hd_quantile(lat_raw, 0.9):.5f} s; "
            f"{len(lat)} ops)",
            f"peak_rss_mb = {rss:.1f} MB (median over passes)",
        ]
    lines.append(f"ops_failed = {failed} of {attempted} ops attempted")
    if not setup_ok:
        errors.append(f"setup command did not print {SETUP_EXPECTED!r}")
    correct = failed == 0 and setup_ok and bool(good)
    return metrics, attempted, failed, correct, lines + errors


def per_layer_values(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass, as (value, raw seconds or
    None); None in place of the pair marks an absent function."""
    tr = traced["trace"]
    cache = traced["cache"]

    def layer(label: str, field: str):
        if label in tr["absent"]:
            return None
        entry = tr["layers"][label]
        return entry[field], entry.get(field[: -len("_s")] + "_raw_s")

    def counter(key: str):
        if key in tr["absent"] or key not in tr["counters"]:
            return None
        return tr["counters"][key], None

    def share(num, den):
        if num is None or den is None:
            return None
        return (num[0] / den[0] if den[0] else 0.0), None

    def cache_count(key: str):
        return None if cache is None else (cache[key], None)

    op_s = _pass_wall(traced)
    covered = sum(v["self_s"] for v in tr["layers"].values())
    solves = layer("cohomology.solve_h1", "calls")
    inserts = layer("linalg.RowEchelon.insert", "calls")
    catalog = [
        v
        for v in (
            layer("derivations.catalog_basis", "self_s"),
            layer("derivations.tensorized_algebra_family", "self_s"),
        )
        if v is not None
    ]
    return {
        "cohomology.solve_h1.calls": solves,
        "cohomology.solve_h1.total_s": layer("cohomology.solve_h1", "total_s"),
        "cohomology.assemble.calls": layer("cohomology.assemble", "calls"),
        "cohomology.assemble.self_s": layer("cohomology.assemble", "self_s"),
        "cohomology.assemble.rows": counter("cohomology.assemble.rows"),
        "cohomology.assemble.unknowns": counter("cohomology.assemble.unknowns"),
        "cohomology.inner_vectors.self_s": layer("cohomology.inner_vectors", "self_s"),
        "cohomology.certified": share(counter("cohomology.solve_h1.certified"), solves),
        "cohomology.verify_invariants_are_central.self_s": layer(
            "cohomology.verify_invariants_are_central", "self_s"
        ),
        "cohomology.verify_skew_image_lemma.self_s": layer(
            "cohomology.verify_skew_image_lemma", "self_s"
        ),
        "linalg.RowEchelon.insert.calls": inserts,
        "linalg.RowEchelon.insert.self_s": layer("linalg.RowEchelon.insert", "self_s"),
        "linalg.RowEchelon.insert.dependent_share": share(
            counter("linalg.RowEchelon.insert.dependent"), inserts
        ),
        "linalg.RowEchelon.kernel_basis.calls": layer("linalg.RowEchelon.kernel_basis", "calls"),
        "linalg.RowEchelon.kernel_basis.self_s": layer("linalg.RowEchelon.kernel_basis", "self_s"),
        "linalg.RowEchelon.kernel_basis.columns": counter("linalg.RowEchelon.kernel_basis.columns"),
        "algebra.center_in_window.calls": layer("algebra.center_in_window", "calls"),
        "algebra.center_in_window.self_s": layer("algebra.center_in_window", "self_s"),
        "algebra.bracket_basis.hits": cache_count("hits"),
        "algebra.bracket_basis.misses": cache_count("misses"),
        "algebra.bracket_basis.entries": cache_count("entries"),
        "algebra.check_jacobi.self_s": layer("algebra.check_jacobi", "self_s"),
        "algebra.bracket.calls": layer("algebra.bracket", "calls"),
        "derivations.catalog_basis.self_s": (
            (sum(v[0] for v in catalog), sum(v[1] for v in catalog)) if catalog else None
        ),
        "derivations.is_derivation.self_s": layer("derivations.is_derivation", "self_s"),
        "tensors.check_cojacobi_identity.self_s": layer("tensors.check_cojacobi_identity", "self_s"),
        "tensors.check_mybe.self_s": layer("tensors.check_mybe", "self_s"),
        "tensors.diag_action.calls": layer("tensors.diag_action", "calls"),
        "literals.parse_element.self_s": layer("literals.parse_element", "self_s"),
        "literals.parse_tensor2.self_s": layer("literals.parse_tensor2", "self_s"),
        "trace.overhead": (op_s / _pass_wall(untraced), None),
        "trace.uncovered_share": ((op_s - covered) / op_s, None),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name in ("cohomology.certified", "trace.overhead"):
        return "ratio"
    return "count"


def per_layer(workload: str, args) -> tuple[dict, int, int, bool, list[str]]:
    cli, cli_ok = measure_cli_layers(2 if args.tiny else CLI_RUNS)
    passes = run_passes(workload, args.seed, args.seconds, True, args.tiny)
    attempted, failed, errors = _tally(passes)
    traced = [p for p in passes if p.get("trace_on") and "crashed" not in p]
    untraced = [p for p in passes if not p.get("trace_on") and "crashed" not in p]
    metrics = {k: (v[0], "s") for k, v in cli.items()}
    lines = [
        f"{k} = {norm:.4f} s (raw {raw:.4f} s)"
        for k, (norm, raw) in cli.items()
    ]
    if traced and untraced:
        runs = [per_layer_values(t, u) for t, u in zip(traced, untraced)]
        for name in runs[0]:
            unit = _unit(name)
            if runs[0][name] is None:
                metrics[name] = (0, unit)
                lines.append(f"{name} = absent (not in this version of svlie)")
                continue
            value = statistics.median(r[name][0] for r in runs)
            metrics[name] = (value, unit)
            raw = runs[0][name][1]
            note = "" if raw is None else f" (raw {statistics.median(r[name][1] for r in runs):.6g} s)"
            lines.append(f"{name} = {value:.6g} {unit}{note}")
        lines.append(
            f"({len(runs)} traced passes, {traced[0]['trace']['spans']} spans in the first; "
            f"trace.uncovered_share is the share of op time outside every traced "
            f"function's self time; reference loop {_ref_ms(traced):.3f} ms)"
        )
    lines.append(f"ops_failed = {failed} of {attempted} ops attempted")
    if not cli_ok:
        errors.append(f"setup command did not print {SETUP_EXPECTED!r}")
    correct = failed == 0 and cli_ok and bool(traced) and bool(untraced)
    return metrics, attempted, failed, correct, lines + errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="six ops per pass (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "svlie" / "__init__.py").is_file():
        print(f"error: no svlie sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, correct, lines = measure(args.workload, args)
    for line in lines:
        print(f"{args.workload}: {line}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
