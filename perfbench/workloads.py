"""The two benchmark workloads and the checks on their outputs.

Each workload makes one dataset from the seed (``setup``) and then runs a
fixed list of ``tvclust`` CLI calls (one "rep").  Every fit runs with
``--tol 0``, so it always runs exactly ``--max-iters`` iterations: the work
per rep does not depend on when a seed's sets happen to freeze.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Tolerances of the output checks.
F_MONOTONE_RTOL = 1e-9  # F_t >= F_{t-1} - 1e-9 * max(1, |F_{t-1}|)
BOUND_ATOL = 1e-10  # L - F >= -1e-10 and |L - F - gap| <= 1e-10
J_RTOL = 1e-12  # |J - D N sigma2| <= 1e-12 * max(1, J) on iso iterations
REFERENCE_RTOL = 1e-10  # final F against reference.json at the seeds it records
L_RTOL = 1e-11  # final L of an iso fit against the written model, recomputed


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a rep and the units (fits or restarts) it runs."""

    label: str
    argv: tuple
    units: tuple  # names of the fits or restarts, for failure counting
    iso: bool
    experiment_dir: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    c_true: int
    per_cluster_n: int
    box: tuple  # (lo, hi) on every axis
    dim: int
    gen_seed_offset: int
    spans: tuple  # spans a traced run must see (a missed hook shows here)

    def generator_spec(self, seed):
        from tvclust.data import GeneratorSpec

        return GeneratorSpec(
            kind="uniform",
            c_true=self.c_true,
            per_cluster_n=self.per_cluster_n,
            gen_sigma=1.0,
            domain_box=(tuple(self.box),) * self.dim,
            seed=self.gen_seed_offset + seed,
        )

    @property
    def n(self):
        return self.c_true * self.per_cluster_n


ISO_MAX_ITERS = 2
GMM_MAX_ITERS = 2
SMALL_RESTARTS = 4
SMALL_MAX_ITERS = 100

# Fits of fit-large: (algorithm, C, extra options, isotropic model).
LARGE_FITS = (
    ("kmeans", 100, (), True),
    ("kmeans_cprime", 100, ("--c-prime", "3"), True),
    ("lazy_kmeans", 100, ("--epsilon", "0.05"), True),
    ("em_gmm", 50, (), False),
    ("sigma_pi", 50, (), False),
)

WORKLOADS = {
    # Five fits on one 5000x16 dataset.  The three isotropic fits are ruled
    # by the (N, C, D) distance temporaries; the two general-model fits by
    # per-cluster Cholesky solves in log_joints and the m_step_general
    # einsum, with iso distances only in seeding.
    "fit-large": Workload(
        name="fit-large",
        c_true=100,
        per_cluster_n=50,
        # The offset makes a distance path that does not centre the data
        # lose ~1e-8 of L, which the L and reference checks catch.
        box=(1e5, 1e5 + 16.0),
        dim=16,
        gen_seed_offset=0,
        spans=(
            "models.squared_distances", "models.log_joints",
            "models.responsibilities_exact", "truncation.select_nearest",
            "truncation.lazy_reassign", "truncation.sigma_pi_scores",
            "truncation.truncated_responsibilities", "engine.seed",
            "engine.m_step_iso", "engine.m_step_general", "engine.step", "engine.run",
            "diagnostics.objective_j", "diagnostics.free_energy_trunc",
            "diagnostics.log_likelihood", "data.load_csv", "data.save_csv",
            "data.generate", "harness.emit", "cli.main",
        ),
    ),
    # Tiny matrices, many restarts on the harness pool.  Per-call cost
    # rules: the small distance calls take over half of the pool threads'
    # time, then the trace record and the loop's Python glue.
    "restarts-small": Workload(
        name="restarts-small",
        c_true=25,
        per_cluster_n=100,
        box=(0.0, 32.0),
        dim=2,
        gen_seed_offset=21,  # seed 0 gives the scripts/cprime_sweep.py dataset
        spans=(
            "models.squared_distances", "truncation.select_nearest",
            "truncation.truncated_responsibilities", "engine.m_step_iso",
            "engine.step", "engine.run", "diagnostics.free_energy_trunc",
            "data.load_csv", "harness.emit", "cli.main",
        ),
    ),
}


def calls(workload, work, seed):
    """The CLI calls of one rep, writing their outputs under ``work``."""
    data = str(work / "data.csv")
    common = ("--seeding", "dsquared", "--seed", str(seed), "--tol", "0")
    if workload.name == "fit-large":
        return [
            Call(
                label=algo,
                argv=("fit", "--data", data, "--algorithm", algo, "--c", str(c), *extra,
                      "--max-iters", str(ISO_MAX_ITERS if iso else GMM_MAX_ITERS), *common,
                      "--out", str(work / f"{algo}.jsonl"),
                      "--model-out", str(work / f"{algo}.model.json")),
                units=(algo,),
                iso=iso,
            )
            for algo, c, extra, iso in LARGE_FITS
        ]
    out = str(work / "experiment")
    return [
        Call(
            label="experiment",
            argv=("experiment", "--data", data, "--algorithm", "kmeans_cprime",
                  "--c", "25", "--c-prime", "2", "--max-iters", str(SMALL_MAX_ITERS),
                  *common, "--restarts", str(SMALL_RESTARTS), "--out", out),
            units=tuple(f"restart_{i:03d}" for i in range(SMALL_RESTARTS)),
            iso=True,
            experiment_dir=out,
        )
    ]


# ---------------------------------------------------------------------------
# output checks


def _read_trace(path):
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    return [json.loads(line) for line in lines if line]


def check_trace(records, iso, n, d):
    """Problems with one written trace; an empty list means it passed."""
    problems = []
    if not records:
        return ["empty trace"]
    prev = None
    for rec in records:
        it, f, ll, gap = rec["iter"], rec["F"], rec["L"], rec["gap"]
        values = (f, ll, gap, rec["J"], rec["sigma2"])
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"iter {it}: non-finite value")
            continue
        if ll - f < -BOUND_ATOL:
            problems.append(f"iter {it}: L - F = {ll - f!r} < -{BOUND_ATOL}")
        if abs(ll - f - gap) > BOUND_ATOL:
            problems.append(f"iter {it}: |L - F - gap| = {abs(ll - f - gap)!r}")
        if prev is not None:
            reseed = any("reseed" in e for e in rec.get("events", []))
            if f < prev - F_MONOTONE_RTOL * max(1.0, abs(prev)) and (iso or not reseed):
                problems.append(f"iter {it}: F fell from {prev!r} to {f!r}")
            if iso and abs(rec["J"] - d * n * rec["sigma2"]) > J_RTOL * max(1.0, rec["J"]):
                problems.append(f"iter {it}: J != D*N*sigma2")
        prev = f
    return problems


def iso_log_likelihood(points, means, sigma2):
    """Per-point log-likelihood of an isotropic model, on centred data.

    An independent recomputation of the L a fit reports for the model it
    writes, in row blocks so no (N, C, D) temporary is built.
    """
    import numpy as np

    centre = points.mean(axis=0)
    y, mu = points - centre, np.asarray(means) - centre
    c, d = mu.shape
    total = 0.0
    for lo in range(0, y.shape[0], 1024):
        diff = y[lo:lo + 1024, None, :] - mu[None, :, :]
        lj = -np.einsum("ncd,ncd->nc", diff, diff) / (2.0 * sigma2)
        top = lj.max(axis=1)
        total += float(np.sum(top + np.log(np.exp(lj - top[:, None]).sum(axis=1))))
    return total / y.shape[0] - math.log(c) - 0.5 * d * math.log(2.0 * math.pi * sigma2)


def check_call(workload, call, rc, stdout, points):
    """Check one call's outputs.

    Returns ``(finals, traces, problems)``, each keyed by unit (fit or
    restart): its final F, its trace records and the problems found.  A
    problem with the call as a whole is charged to every unit of the call.
    """
    finals, traces = {}, {}
    problems = {u: [] for u in call.units}

    def charge_all(msg):
        for u in call.units:
            problems[u].append(msg)

    if rc != 0:
        charge_all(f"exit code {rc}")
        return finals, traces, problems
    try:
        printed = json.loads(stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        charge_all("no JSON result on stdout")
        return finals, traces, problems
    n, d = workload.n, workload.dim
    if call.experiment_dir is None:
        (unit,) = call.units
        trace_path = call.argv[call.argv.index("--out") + 1]
        model_path = Path(call.argv[call.argv.index("--model-out") + 1])
        try:
            records = _read_trace(trace_path)
            model = json.loads(model_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            charge_all(f"unreadable output: {exc}")
            return finals, traces, problems
        problems[unit] += check_trace(records, call.iso, n, d)
        if records and printed.get("F") != records[-1]["F"]:
            problems[unit].append("printed F differs from the trace")
        if model.get("kind") != ("iso" if call.iso else "general"):
            problems[unit].append(f"model kind {model.get('kind')!r}")
        elif call.iso and records:
            want = iso_log_likelihood(points, model["means"], model["sigma2"])
            if abs(records[-1]["L"] - want) > L_RTOL * max(1.0, abs(want)):
                problems[unit].append(f"final L {records[-1]['L']!r} != {want!r} recomputed")
        if records:
            finals[unit], traces[unit] = records[-1]["F"], records
        return finals, traces, problems
    out = Path(call.experiment_dir)
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        charge_all(f"unreadable summary.json: {exc}")
        return finals, traces, problems
    if summary.get("failures") or printed.get("failures"):
        charge_all(f"failures reported: {summary.get('failures')!r}")
    per_restart = summary.get("final_F_per_restart", {})
    for i, unit in enumerate(call.units):
        try:
            records = _read_trace(out / f"trace_{i:03d}.jsonl")
        except (OSError, ValueError) as exc:
            problems[unit].append(f"unreadable trace: {exc}")
            continue
        problems[unit] += check_trace(records, call.iso, n, d)
        if not records:
            continue
        if per_restart.get(str(i)) != records[-1]["F"]:
            problems[unit].append("summary final F differs from the trace")
        finals[unit], traces[unit] = records[-1]["F"], records
    if finals and summary.get("best_final_F") != max(finals.values()):
        charge_all("best_final_F is not the largest final F")
    return finals, traces, problems


def check_reference(workload, seed, finals, reference):
    """Final F per unit against the values recorded for this seed, if any."""
    expected = reference["final_F"].get(str(seed), {}).get(workload.name, {})
    problems = {}
    for unit, want in expected.items():
        got = finals.get(unit)
        if got is None or abs(got - want) > REFERENCE_RTOL * max(1.0, abs(want)):
            problems[unit] = [f"final F {got!r} differs from reference {want!r}"]
    return problems
