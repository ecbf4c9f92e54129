"""bimod benchmark: one closed-loop client driving ``bimod.cli.main`` over
seeded, generated input files.

    python3 bench/run.py --workload corpus-small --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload, one process each

Each request starts when the previous one returns.  A run makes as many whole
passes over the workload's request list as fit in ``--seconds`` at the
workload's typical pass time, and at least one.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` every request runs once untraced and once with spans around the
layers' public functions, over half as many passes, and the object carries
the per-layer metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import functools
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("corpus-small", "commutant-ladder", "conjugate-roundtrip")
SETUP_REPEATS = 21        # fresh imports per run, spread evenly between requests
TAIL_SAMPLES = 10          # the tail percentile keeps this many samples beyond it
RECHECK_SHARE = 0.05       # share of the measured time spent re-running requests
                           # for the determinism check when a run makes one pass

# The known defect (see known_defect) is accepted only while a sampled
# lambda' or lambda misses the exact value by at most this share, about four
# times the largest misses seen: 3.9e-3 (hilbert_extra, n = 4, seed 156) and
# 4.8e-3 (basic on expectation_2block, d = 8, seed 12).  A larger miss is a
# wrong result, not sampling slack.
LAMBDA_GAP = 0.02
KNOWN_DEFECT_PROBLEMS = ["exit status 1", "report not passed"]
WALL_LINE = re.compile(rb'^\s*"wall_time_ms": .*\n', re.M)


@dataclass
class Sample:
    name: str
    command: str
    latency: float
    status: int
    report: bytes
    error: str | None = None


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup() -> float:
    """Wall time for a fresh interpreter to import bimod.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bimod.cli"], env=_env(),
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def serve(req, workdir, reports, cli):
    """Run one request through ``bimod.cli.main``; time only that call."""
    argv = list(req.argv)
    if req.solution_from is not None:
        try:
            results = json.loads(reports[req.solution_from])["results"]
            solution = {"kind": "solution", "R": results["R"], "Rbar": results["Rbar"]}
        except (KeyError, ValueError):
            return Sample(req.name, req.command, 0.0, -1, b"",
                          f"no solution from {req.solution_from}")
        sol = workdir / (req.name.replace(":", "_") + "_solution.json")
        sol.write_text(json.dumps(solution))
        argv[2] = str(sol)
    out = workdir / "report.json"
    error = None
    t0 = time.perf_counter()
    try:
        status = cli.main(argv + ["--out", str(out)])
    except Exception as exc:  # a traceback from the program is a failed request
        status, error = -1, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    report = out.read_bytes() if error is None else b""
    out.unlink(missing_ok=True)
    return Sample(req.name, req.command, latency, status, report, error)


def measure(workload, passes, workdir, cli, rec=None):
    """``passes`` whole passes over the request list.  With a span recorder
    each request runs untraced and then traced, back to back, so that both
    runs see the same machine state.  Without one, SETUP_REPEATS set-up
    times are taken between requests, spread evenly over the run, so that
    they see the same spells of a slow or fast machine as the requests.
    Returns (untraced, traced, setup times)."""
    untraced, traced, setups = [], [], []
    total = passes * len(workload.requests)
    for _ in range(passes):
        plain, spanned = {}, {}
        for req in workload.requests:
            s = serve(req, workdir, plain, cli)
            plain[req.name] = s.report
            untraced.append(s)
            if rec is None:
                due = len(untraced) * SETUP_REPEATS // total - len(setups)
                setups += [time_setup() for _ in range(due)]
            else:
                rec.request = len(traced)
                with rec.tracing():
                    t = serve(req, workdir, spanned, cli)
                spanned[req.name] = t.report
                traced.append(t)
    return untraced, traced, setups


def recheck(samples, budget, workdir, workload, cli):
    """Re-run the cheapest requests (until ``budget`` seconds are spent) so
    that a single-pass run still checks that reports repeat byte for byte."""
    by_name = {r.name: r for r in workload.requests}
    reports = {s.name: s.report for s in samples}
    extra, spent = [], 0.0
    for s in sorted(samples, key=lambda s: s.latency):
        if extra and spent + s.latency > budget:
            break
        again = serve(by_name[s.name], workdir, reports, cli)
        extra.append(again)
        spent += again.latency
    return extra


# -- correctness ---------------------------------------------------------------


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * (1 + abs(b))


def check(sample, oracle) -> list[str]:
    """Failed checks of one request: exit status, the report's own verdict,
    and oracles computed by the benchmark from the generated inputs."""
    if sample.error is not None:
        return [f"raised {sample.error}"]
    problems = []
    if sample.status != 0:
        problems.append(f"exit status {sample.status}")
    rep = json.loads(sample.report)
    if rep.get("passed") is not True:
        problems.append("report not passed")
    res = rep.get("results", {})
    for key in ("r_num", "l_num"):
        if key in oracle and not _close(res.get(key, math.nan), oracle[key]):
            problems.append(f"{key}={res.get(key)} but the trace formula gives {oracle[key]}")
    if "eig_min" in oracle:
        problems += _best_constant_problems(res, oracle)
    if sample.command == "conjugate":
        tol = rep["tolerance"]
        for key in ("residual_1", "residual_2"):
            if not res.get(key, math.inf) <= tol:
                problems.append(f"{key}={res.get(key)} > tol {tol}")
    return problems


def _best_constant_problems(res, oracle) -> list[str]:
    """lambda' and lambda of a Hilbert space with weight T are the smallest
    and largest eigenvalue of T.  Every estimate is a certified one-sided
    bound, so lambda' may sit above eig_min and lambda below eig_max, each
    by at most LAMBDA_GAP relative."""
    problems = []
    for key, exact, side in (("lambda_prime_hat", oracle["eig_min"], 1.0),
                             ("lambda_hat", oracle["eig_max"], -1.0)):
        gap = side * (res.get(key, math.nan) - exact) / exact
        if not -1e-9 <= gap <= LAMBDA_GAP:
            problems.append(f"{key}={res.get(key)} is {gap:.3g} (relative) from the "
                            f"exact {exact} on the certified side")
    return problems


def known_defect(sample, path) -> bool:
    """The known defect: ``best_constants`` is a sampled estimate that can stop
    short of the exact constants, and two commands then exit 1 with every
    other criterion met.  ``basic`` fails only its Pimsner-Popa inequality,
    which uses that lambda' (basic:expectation_2block at seeds 0, 1, 5 and 12
    of corpus-small).  Its lambda' must lie within LAMBDA_GAP of the
    benchmark's own estimate, and the other residuals within the CLI's
    tol * (1 + ||index element||).  ``hilbert`` fails only its 1e-6 match of
    lambda and lambda' to the extreme eigenvalues of T; check() has already
    bounded that gap by LAMBDA_GAP.  Such a request counts as failed;
    it does not mark the run incorrect."""
    if sample.status != 1:
        return False
    if sample.command == "hilbert":
        return True
    if sample.command == "basic":
        rep = json.loads(sample.report)
        res = rep["results"]
        scale, reference = _basic_oracle(path)
        lam_prime = 1.0 / res["lambda_used"]
        limit = rep["tolerance"] * scale
        return (res["completely_positive"] and res["pp_inequality_min_eig"] < 0
                and res["idempotency_residual"] <= limit
                and res["conditional_residual"] <= limit
                and lam_prime - min(lam_prime, reference) <= LAMBDA_GAP * reference)
    return False


def _norm_ratio(X, vecs):
    """||_A<x, x>|| / ||<x, x>_B|| for each row x of ``vecs``: the ratio whose
    infimum is lambda'."""
    num = np.einsum("sp,sq,pqab->sab", vecs, vecs.conj(), X.left_gram)
    den = np.einsum("sp,sq,pqab->sab", vecs.conj(), vecs, X.right_gram)
    return np.linalg.eigvalsh(num)[:, -1] / np.linalg.eigvalsh(den)[:, -1]


def reference_lambda_prime(X, samples=2000, starts=4) -> float:
    """lambda' by the benchmark's own search, apart from the library's: the
    least ratio of ``samples`` random vectors, then Nelder-Mead from the
    ``starts`` best.  Every ratio it evaluates bounds lambda' from above."""
    from scipy.optimize import minimize
    rng = np.random.default_rng(0)
    d = X.dim
    vecs = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    ratios = _norm_ratio(X, vecs)
    best = float(ratios.min())
    def ratio(z):
        return float(_norm_ratio(X, (z[:d] + 1j * z[d:])[None, :])[0])
    for i in np.argsort(ratios)[:starts]:
        found = minimize(ratio, np.concatenate([vecs[i].real, vecs[i].imag]),
                         method="Nelder-Mead",
                         options={"xatol": 1e-10, "fatol": 1e-14, "maxfev": 20000})
        best = min(best, float(found.fun))
    return best


@functools.lru_cache(maxsize=None)
def _basic_oracle(path):
    """(scale of basic's tolerances, reference lambda') for an input file."""
    from bimod import basic_construction
    from bimod.cli import _as_bimodule, parse_spec
    X = _as_bimodule(*parse_spec(path))
    scale = 1.0 + float(basic_construction(X).F.index_element().norm())
    return scale, reference_lambda_prime(X)


def judge(samples, workload) -> dict:
    """Problems per sample index, each with whether the sample shows only the
    known defect.  A repeated request must give the same report bytes as its
    first run, once wall_time_ms is removed."""
    by_name = {r.name: r for r in workload.requests}
    problems, first = {}, {}
    for i, s in enumerate(samples):
        req = by_name[s.name]
        found = check(s, req.oracle)
        body = WALL_LINE.sub(b"", s.report)
        if first.setdefault(s.name, body) != body:
            found.append("report differs from the first run of this request")
        if found:
            known = found == KNOWN_DEFECT_PROBLEMS and known_defect(s, req.argv[1])
            problems[i] = (found, known)
    return problems


# -- metrics ---------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_SAMPLES samples beyond it
    (nearest-rank definition).  Below 2 * TAIL_SAMPLES samples that
    percentile lies under the median, which is no tail, so the slowest
    request (p100) stands in for it."""
    if n < 2 * TAIL_SAMPLES:
        return 100
    return min(99, (100 * (n - TAIL_SAMPLES)) // n)


def hd_quantile(values, q) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by a Beta((n+1) q, (n+1) (1-q)) distribution.  With
    few samples it is steadier than the one or two order statistics at q,
    which on commutant-ladder, at q = 0.5, are a single mindim and morita
    request each.  At q = 1 it is the largest value."""
    from scipy.special import betainc
    xs = np.sort(values)
    if q >= 1:
        return float(xs[-1])
    n = len(xs)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.linspace(0, 1, n + 1)))
    return float(weights @ xs)


def rate(samples):
    return len(samples) / sum(s.latency for s in samples)


def environment(args):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version()}


def run_workload(args) -> dict:
    sys.path[:0] = [str(SRC), str(HERE)]
    import bimod.cli as cli
    import inputs
    import spans

    env = environment(args)
    print("environment " + json.dumps(env))
    rec = spans.Recorder() if args.trace else None
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = inputs.build_workload(args.workload, args.seed, str(workdir))
        cli.main(["validate", workload.input_files[0], "--out", str(workdir / "warm.json")])
        # A fixed pass count per workload and --seconds keeps the sample count,
        # and so the tail percentile, the same on a fast or a slow machine.
        seconds = args.seconds / 2 if rec is not None else args.seconds
        passes = max(1, int(seconds // workload.pass_seconds))
        samples, traced, setups = measure(workload, passes, workdir, cli, rec)
        # before the checks: a failed basic loads scipy for its oracle
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed = samples + traced
        extra = []
        if passes == 1 and rec is None:
            extra = recheck(samples, RECHECK_SHARE * args.seconds, workdir, workload, cli)
        checked = timed + extra
        problems = judge(checked, workload)    # reads the input files of failed requests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}"
    (OUT / f"samples-{tag}.json").write_text(json.dumps(
        {"environment": env, "fields": ["name", "latency_s", "status"],
         "untraced": [[s.name, s.latency, s.status] for s in samples],
         "traced": [[s.name, s.latency, s.status] for s in traced]}))
    if rec is not None:
        rec.dump(OUT / f"spans-{tag}.json", env)

    failed = sum(1 for i in problems if i < len(timed))
    reported = set()
    for i, (found, known) in sorted(problems.items()):
        line = f"FAILED {checked[i].name}{' (known defect)' if known else ''}: {'; '.join(found)}"
        if line not in reported:
            reported.add(line)
            print(line)
    correct = all(known for _, known in problems.values())

    print(f"{args.workload}: {len(samples)} untraced requests in {passes} pass(es) of "
          f"{len(workload.requests)}, one closed-loop client")
    if rec is None:
        lat = [s.latency for s in samples]
        p_tail = tail_percentile(len(lat))
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "reports_per_s": (rate(samples), "1/s"),
            "req_p50_ms": (1000 * hd_quantile(lat, 0.5), "ms"),
            "req_tail_ms": (1000 * hd_quantile(lat, p_tail / 100), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        shown = dict(metrics, fail_frac=(failed / len(timed), "ratio"))
        notes = {"setup_s": f"median of {len(setups)} fresh imports of bimod.cli",
                 "req_p50_ms": f"Harrell-Davis median of {len(lat)} samples",
                 "req_tail_ms": f"Harrell-Davis p{p_tail} of {len(lat)} samples",
                 "fail_frac": f"{failed} of {len(timed)} requests failed"}
    else:
        failed_untraced = sum(1 for i in problems if i < len(samples))
        metrics = layer_metrics(rec, passes, samples, traced, cli)
        metrics["fail_frac"] = (failed_untraced / len(samples), "ratio")
        shown = metrics
        notes = {k: "computed count, not a measurement" for k in spans.COUNT_NAMES}
        ranked = sorted(spans.TRACED, key=lambda n: -metrics[f"{n}.self_s"][0])
        print("self time per pass, largest first: " + ", ".join(
            f"{n} {metrics[f'{n}.self_s'][0]:.3f}s" for n in ranked[:6]))
    for name, (value, unit) in shown.items():
        extra_note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:14.6g} {unit}{extra_note}")
    return {"correct": correct, "attempted": len(timed), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(rec, passes, untraced, traced, cli) -> dict:
    """Per-layer metrics of the traced run, per pass over the request list."""
    out = {}
    for name, (calls, self_s) in rec.self_times().items():
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    for cmd in cli.COMMANDS:
        lat = [s.latency for s in untraced if s.command == cmd]
        out[f"cli.{cmd}.p50_ms"] = (1000 * statistics.median(lat) if lat else 0.0, "ms")
    for key, total in rec.counts.items():
        out[key] = (total / passes, "bytes" if key.endswith("bytes") else "count")
    out["trace.overhead_reports_per_s"] = (rate(traced) - rate(untraced), "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bimod" / "cli.py").is_file():
        print(f"error: no bimod sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            child = subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env=_env(), cwd=ROOT)
            status = status or child.returncode
        return status
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
