"""The four benchmark workloads, their operations, oracle checks and probes.

Each workload is a closed loop: one caller issues the next call only after
the previous one returns.  CLI subcommands run in-process through
``sgdstab.cli.main(argv)``; functions the CLI does not expose are called
directly.  Package functions are always reached through their module
(``moments.covariance_limit``, not a local alias) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import io
import math
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import oracles
from inputs import Spec, generate
from sgdstab import cli, instances, linalg, moments, montecarlo, stability
from sgdstab.instances import Hyperparams
from sgdstab.montecarlo import SimConfig

REL_TOL = 1e-8  # agreement with an oracle eigenvalue, solve or recursion
CHAIN_SLACK = 1e-9  # ordering slack in the bound chain
MC_SIGMAS = 5.0  # Monte-Carlo agreement, in standard errors
# empirical_threshold must lie in [1 - 0.05, 1 + 0.10] x the oracle threshold.  On 40
# random d=4, n=8, B=2 instances at 8192 replicates it read 0.977 to 1.070 of the
# threshold: its early growth window biases it upward, so 5% above fails a correct run.
EMPIRICAL_BELOW, EMPIRICAL_ABOVE = 0.05, 0.10
ENUM_STEPS = 5  # recursion steps also checked against batch enumeration
ENUM_CAP = 10_000
ANALYZE_ETA_FRACTIONS = (0.5, 0.9, 1.2)
STABLE_FRACTION = 0.5  # step size, as a share of the threshold, of every stable run
WARM_SEED = 0


@dataclass
class Op:
    """One call of the closed loop.  ``call`` is timed; the rest runs outside the timing."""

    name: str
    kind: str  # throughput group, see run.KIND_METRICS
    work: float  # units of that group's throughput done by one call
    call: Callable[[], object]
    output: Callable[[object], dict]  # bytes that every repetition must reproduce exactly
    check: Callable[[object, dict], list]  # oracle check of the first repetition
    span: str | None = None  # span around the call in the traced run (CLI calls only)


def _cli_op(name, kind, work, argv, out: Path, check) -> Op:
    argv = [str(a) for a in argv] + ["--out", str(out)]

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sgdstab {argv[0]} exited {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def output(text):
        return {"stdout": text.encode(), "out": out.read_bytes()}

    return Op(name, kind, work, call, output, check, span=f"cli.{argv[0]}")


def _api_op(name, kind, work, module, function, args, check) -> Op:
    # The function is looked up on its module at call time, so the traced run's wrapper is used.
    return Op(
        name,
        kind,
        work,
        lambda: getattr(module, function)(*args),
        lambda value: {"value": np.asarray(value, dtype=float).tobytes()},
        check,
    )


def _csv(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode().strip().splitlines()
    return lines[0].split(","), np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _close(label: str, got: float, want: float, rel: float = REL_TOL) -> list[str]:
    if abs(got - want) <= rel * abs(want):
        return []
    return [f"{label}: got {got!r}, oracle {want!r}"]


def _ordered(chain) -> list[str]:
    """Each (label, value) is at most the next one, up to CHAIN_SLACK."""
    problems = []
    for (la, a), (lb, b) in zip(chain, chain[1:]):
        if a > b * (1.0 + CHAIN_SLACK):
            problems.append(f"bound chain: {la}={a!r} > {lb}={b!r}")
    return problems


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Workload:
    name = ""
    specs: tuple[Spec, ...] = ()
    warm_specs: tuple[Spec, ...] = ()  # tiny inputs for the warm-up inside each set-up pass

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.all_specs = self.specs + self.warm_specs
        self.insts = {spec.name: instances.make_instance(*self._arrays(spec), label=spec.name) for spec in self.all_specs}
        self.files = {spec.name: workdir / f"{spec.name}.json" for spec in self.all_specs}
        self._thresholds: dict[tuple[str, int], float] = {}
        # Building both operation lists computes every oracle threshold now, outside the timed set-up.
        self.ops()
        self.ops(warm=True)

    def thr(self, name: str, batch: int) -> float:
        """Oracle mean-square threshold; every step size is a fraction of one."""
        key = (name, batch)
        if key not in self._thresholds:
            self._thresholds[key] = oracles.threshold(self.insts[name].hessians, batch)
        return self._thresholds[key]

    def ops(self, warm: bool = False) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> dict[str, float]:
        return {}

    def setup_pass(self) -> None:
        """Build and save every input, then warm up on the tiny inputs."""
        for spec in self.all_specs:
            inst = instances.make_instance(*self._arrays(spec), label=spec.name)
            instances.save_instance(inst, self.files[spec.name])
        for op in self.ops(warm=True):
            op.call()

    def _arrays(self, spec: Spec):
        # Warm-up inputs do not depend on the seed, so that set-up does the same work in every run.
        if spec in self.warm_specs:
            return generate(spec, WARM_SEED, self.warm_specs.index(spec))
        return generate(spec, self.seed, self.specs.index(spec))

    def _sharpness(self, name: str) -> float:
        return float(np.linalg.eigvalsh(self.insts[name].hessians.mean(axis=0))[-1])

    def _initial_offset(self, name: str) -> np.ndarray:
        # The start point is an input the CLI derives from --seed; the oracles check the dynamics from it.
        return montecarlo.initial_offset(self.insts[name], SimConfig(steps=1, replicates=1, seed=self.seed))


class AnalyzeWorkload(Workload):
    analyze_batches: tuple[int, ...] = ()
    sweep_batches: tuple[int, ...] = ()
    rank_one_steps: int | None = None
    eta_count = 8

    def ops(self, warm=False):
        ops = []
        for spec in self.warm_specs if warm else self.specs:
            name = spec.name
            for b in self.analyze_batches:
                etas = [f * self.thr(name, b) for f in ANALYZE_ETA_FRACTIONS]
                ops.append(
                    _cli_op(
                        f"analyze {name} B={b}",
                        "analysis",
                        0.0,  # analyses are counted on the sweep, which covers every batch
                        ["analyze", self.files[name], "--batch", b, "--eta", *etas],
                        self.workdir / f"analyze-{name}-B{b}.csv",
                        partial(self._check_analyze, spec, b, etas),
                    )
                )
            thrs = [self.thr(name, b) for b in self.sweep_batches]
            lo, hi = 0.5 * min(thrs), 1.2 * max(thrs)
            argv = ["sweep", self.files[name], "--batches", *self.sweep_batches]
            argv += ["--eta-min", lo, "--eta-max", hi, "--eta-count", self.eta_count]
            if self.rank_one_steps is not None:
                argv += ["--rank-one-steps", self.rank_one_steps]
            ops.append(
                _cli_op(
                    f"sweep {name}",
                    "analysis",
                    len(self.sweep_batches),
                    argv,
                    self.workdir / f"sweep-{name}.csv",
                    partial(self._check_sweep, spec, lo, hi),
                )
            )
        return ops

    def _check_analyze(self, spec, batch, etas, text, files):
        thr = self.thr(spec.name, batch)
        mean_thr = 2.0 / self._sharpness(spec.name)
        fields = {}
        for line in text.splitlines():
            key, sep, value = line.partition(": ")
            if sep and not key.startswith("eta="):
                fields[key] = value
        kind = "regular" if spec.regular else "interpolating"
        problems = [] if fields.get("classification") == kind else [f"classification {fields.get('classification')!r}"]
        got = {k: float(fields[k]) for k in ("variance_threshold", "mean_threshold", "bound_eigvec", "bound_trace", "bound_rank_one")}
        problems += _close("variance_threshold", got["variance_threshold"], thr)
        problems += _close("mean_threshold", got["mean_threshold"], mean_thr)
        problems += _ordered([(k, got[k]) for k in ("variance_threshold", "bound_rank_one", "bound_eigvec", "mean_threshold")])
        problems += _ordered([(k, got[k]) for k in ("variance_threshold", "bound_trace")])
        header, rows = _csv(files["out"])
        if header != ["eta", "mean_stable", "var_stable"] or rows.shape != (len(etas), 3):
            return problems + [f"verdict CSV has header {header} and shape {rows.shape}"]
        for eta, (got_eta, mean_stable, var_stable) in zip(etas, rows):
            if got_eta != eta or bool(mean_stable) != (eta <= mean_thr) or bool(var_stable) != (eta <= thr):
                problems.append(f"verdict row eta={got_eta!r} ({mean_stable:g}, {var_stable:g}) vs oracle threshold {thr!r}")
        return problems

    def _check_sweep(self, spec, lo, hi, text, files):
        header, rows = _csv(files["out"])
        expected = ["batch", "eta", "two_over_eta", "generalized_sharpness", "rank_one_bound", "eigvec_bound", "sharpness"]
        if header != expected or rows.shape != (len(self.sweep_batches) * self.eta_count, 7):
            return [f"sweep CSV has header {header} and shape {rows.shape}"]
        lam = self._sharpness(spec.name)
        grid = np.tile(np.linspace(lo, hi, self.eta_count), len(self.sweep_batches))
        problems = []
        if not np.allclose(rows[:, 1], grid, rtol=1e-12, atol=0.0):
            problems.append("sweep eta grid differs from the requested linspace")
        if not np.allclose(rows[:, 2], 2.0 / rows[:, 1], rtol=1e-12, atol=0.0):
            problems.append("two_over_eta is not 2/eta")
        for b, _, _, gen_sharp, rank_one, eigvec, sharp in rows:
            if int(b) not in self.sweep_batches:
                problems.append(f"unexpected batch {b}")
                continue
            problems += _close(f"generalized_sharpness B={int(b)}", gen_sharp, 2.0 / self.thr(spec.name, int(b)))
            problems += _close(f"sharpness B={int(b)}", sharp, lam)
            problems += _ordered([("sharpness", sharp), ("eigvec", eigvec), ("rank_one", rank_one), ("generalized_sharpness", gen_sharp)])
        return problems


class AnalyzeDense(AnalyzeWorkload):
    """Below DENSE_CAP: dense C/D/E assembly, the D-identity self-check,
    per-eta projected eigensolves and rank-one ascent at 2000 steps."""

    name = "analyze-dense"
    specs = (Spec("dense-interpolating", 24, 16, 4, False), Spec("dense-regular", 24, 8, 2, True))
    warm_specs = (Spec("warm-dense", 3, 5, 1, True),)
    # analyze runs rank-one ascent at its fixed 2000 steps from 8 starts.  At B=4 it
    # took the full 16008 objective evaluations on 23 of 24 instances of seeds 41-52.
    # At B=1 it stops early after 923 to 12208 depending on the instance, so with
    # B=1 the work of a run, and its time, varied with the seed by 15% (IQR).
    analyze_batches = (4,)
    sweep_batches = (1, 4)
    rank_one_steps = 500

    def probes(self):
        rng = np.random.default_rng([self.seed, 1024])
        m = rng.standard_normal((1024, 1024))
        m = m + m.T
        return {"linalg.sym_eig.d1024.ms": 1e3 * median_seconds(lambda: linalg.sym_eig(m), 3)}


class AnalyzeOperator(AnalyzeWorkload):
    """Above DENSE_CAP: matrix-free power iteration, rank-one einsums over n,
    and an instance file that every command parses."""

    name = "analyze-operator"
    specs = (Spec("operator-regular", 96, 64, 24, True),)
    warm_specs = (Spec("warm-operator", 3, 9, 1, True),)
    # B=8 would need 480-650 power iterations depending on the seed; B=4 needs 164-202.
    sweep_batches = (1, 4)
    rank_one_steps = 50

    def probes(self):
        inst = self.insts["operator-regular"]
        apply = stability.curvature_operators(inst, 1, dense=False).curvature_sq
        x = np.random.default_rng([self.seed, 96]).standard_normal(inst.d * inst.d)
        seconds = median_seconds(lambda: apply(x), 5)
        flops = 4.0 * (inst.n + 1) * inst.d**3  # computed: n+1 sandwiches M -> A M A
        return {"stability.sandwich_apply.ms": 1e3 * seconds, "stability.sandwich_apply.gflop_per_s": flops / seconds / 1e9}


class Moments(Workload):
    """The exact moment recursion (stepping) and its fixed point (a dense d^2 solve)."""

    name = "moments"
    specs = (Spec("moments-d24", 24, 16, 4, True), Spec("moments-n256", 8, 256, 2, True))
    warm_specs = (Spec("warm-moments", 3, 5, 2, True),)
    # instance -> (batch, exact steps).  C(256, 4) > ENUM_CAP, so the n=256 stepper
    # validates its cross term by Monte Carlo in the constructor.
    runs = {"moments-d24": (2, 100), "moments-n256": (4, 200)}
    warm_runs = {"warm-moments": (2, 5)}

    def ops(self, warm=False):
        runs = self.warm_runs if warm else self.runs
        ops = []
        for name, (batch, steps) in runs.items():
            eta = STABLE_FRACTION * self.thr(name, batch)
            ops.append(
                _cli_op(
                    f"simulate --exact {name}",
                    "moment",
                    steps,
                    ["simulate", self.files[name], "--eta", eta, "--batch", batch, "--steps", steps, "--exact", "--seed", self.seed],
                    self.workdir / f"exact-{name}.csv",
                    partial(self._check_exact, name, batch, eta, steps),
                )
            )
        name = next(iter(runs))  # the limit solves use the first (d=24) instance
        batch = runs[name][0]
        inst = self.insts[name]
        hp = Hyperparams(eta=STABLE_FRACTION * self.thr(name, batch), batch=batch)
        for function, check in (("covariance_limit", self._check_limit), ("asymptotic_quantities", self._check_asymptotic)):
            ops.append(_api_op(f"{function} {name}", "limit", 1, moments, function, (inst, hp), partial(check, name, hp)))
        return ops

    def _check_exact(self, name, batch, eta, steps, text, files):
        inst = self.insts[name]
        h, g = inst.hessians, inst.gradients
        x0 = self._initial_offset(name)
        hbar = h.mean(axis=0)
        want = oracles.trajectory_columns(hbar, oracles.mixture_moments(h, g, eta, oracles.mixing_weight(inst.n, batch), x0, steps))
        header, rows = _csv(files["out"])
        if header != ["t", "trace_sigma_perp", "trace_sigma_par", "mu_norm", "loss_gap_estimate"] or rows.shape != (steps + 1, 5):
            return [f"trajectory CSV has header {header} and shape {rows.shape}"]
        got = rows[:, 1:]
        tol = REL_TOL * (np.max(np.abs(want), axis=0) + np.max(np.abs(want)) * 1e-6)
        problems = []
        if not np.array_equal(rows[:, 0], np.arange(steps + 1)):
            problems.append("trajectory step column is not 0..steps")
        if np.any(np.abs(got - want) > tol):
            t = int(np.argmax(np.any(np.abs(got - want) > tol, axis=1)))
            problems.append(f"step {t}: recursion {got[t].tolist()} vs mixture-form oracle {want[t].tolist()}")
        if math.comb(inst.n, batch) <= ENUM_CAP:
            enum = oracles.trajectory_columns(hbar, oracles.enumerated_moments(h, g, eta, batch, x0, ENUM_STEPS))
            if np.any(np.abs(got[: ENUM_STEPS + 1] - enum) > tol):
                problems.append("first steps differ from batch enumeration")
        return problems

    def _oracle_limit(self, name, hp):
        inst = self.insts[name]
        return oracles.limit_second_moment(inst.hessians, inst.gradients, hp.eta, oracles.mixing_weight(inst.n, hp.batch))

    def _check_limit(self, name, hp, value, files):
        inst = self.insts[name]
        p = oracles.mixing_weight(inst.n, hp.batch)
        residual = oracles.fixed_point_residual(inst.hessians, inst.gradients, hp.eta, p, value)
        problems = [] if residual <= REL_TOL else [f"fixed-point residual {residual:.3e}"]
        want = self._oracle_limit(name, hp)
        error = float(np.linalg.norm(value - want) / np.linalg.norm(want))
        return problems + ([] if error <= REL_TOL else [f"covariance limit differs from the dense solve by {error:.3e}"])

    def _check_asymptotic(self, name, hp, value, files):
        hbar = self.insts[name].hessians.mean(axis=0)
        sigma = self._oracle_limit(name, hp)
        want = (np.trace(sigma), 0.5 * np.trace(hbar @ sigma), np.trace(hbar @ hbar @ sigma))
        problems = []
        for label, got, w in zip(("dist_sq", "loss_gap", "grad_sq"), value, want):
            problems += _close(label, got, w)
        return problems

    def probes(self):
        rng = np.random.default_rng([self.seed, 576])
        factor = rng.standard_normal((576, 576))
        psd = factor @ factor.T
        name = "moments-d24"
        inst = self.insts[name]
        batch = self.runs[name][0]
        stepper = moments.ExactStepper(inst, Hyperparams(eta=STABLE_FRACTION * self.thr(name, batch), batch=batch))
        state = moments.point_state(self._initial_offset(name))
        step_s = median_seconds(lambda: stepper.step(state), 10)
        flops = 4.0 * inst.n * inst.d**3  # computed: n sandwiches A_i S A_i
        return {
            "linalg.pinv_psd.d576.ms": 1e3 * median_seconds(lambda: linalg.pinv_psd(psd), 3),
            "moments.ExactStepper.step.ms": 1e3 * step_s,
            "moments.ExactStepper.step.gflop_per_s": flops / step_s / 1e9,
        }


class MonteCarlo(Workload):
    """Monte-Carlo SGD: index draws, the batch kernel, the mixture process, bisection."""

    name = "montecarlo"
    specs = (Spec("mc-interpolating", 8, 16, 2, False), Spec("mc-regular", 32, 256, 4, True), Spec("mc-bisect", 4, 8, 2, False))
    warm_specs = (
        Spec("warm-mc-interpolating", 3, 6, 2, False),
        Spec("warm-mc-regular", 3, 8, 2, True),
        Spec("warm-mc-bisect", 2, 4, 1, False),
    )
    # role -> (batch, steps, replicates); sgd-* and mixture run at STABLE_FRACTION * threshold.
    sizes = {"sgd-interpolating": (2, 24, 8192), "sgd-regular": (8, 50, 500), "mixture": (2, 24, 8192), "bisect": (2, 24, 8192)}
    warm_sizes = {"sgd-interpolating": (2, 8, 64), "sgd-regular": (2, 8, 64), "mixture": (2, 8, 64), "bisect": (2, 24, 256)}
    bracket = (0.5, 1.5, 0.02)  # bisection bracket and tolerance, as shares of the threshold
    warm_bracket = (0.2, 3.0, 0.5)

    def ops(self, warm=False):
        interp, regular, bisect = (self.warm_specs if warm else self.specs)
        sizes = self.warm_sizes if warm else self.sizes
        ops = []
        for role, spec in (("sgd-interpolating", interp), ("sgd-regular", regular)):
            batch, steps, reps = sizes[role]
            eta = STABLE_FRACTION * self.thr(spec.name, batch)
            ops.append(
                _cli_op(
                    f"simulate {spec.name}",
                    "sgd",
                    reps * steps,
                    ["simulate", self.files[spec.name], "--eta", eta, "--batch", batch, "--steps", steps, "--replicates", reps, "--seed", self.seed],
                    self.workdir / f"sgd-{spec.name}.csv",
                    partial(self._check_mc, spec, eta, batch, None, steps, reps),
                )
            )
        batch, steps, reps = sizes["mixture"]
        eta = STABLE_FRACTION * self.thr(interp.name, batch)
        p = oracles.mixing_weight(interp.n, batch)
        ops.append(
            _cli_op(
                f"simulate --mixture-p {interp.name}",
                "mixture",
                reps * steps,
                ["simulate", self.files[interp.name], "--eta", eta, "--mixture-p", p, "--steps", steps, "--replicates", reps, "--seed", self.seed],
                self.workdir / f"mixture-{interp.name}.csv",
                partial(self._check_mc, interp, eta, None, p, steps, reps),
            )
        )
        batch, steps, reps = sizes["bisect"]
        lo, hi, tol = self.warm_bracket if warm else self.bracket
        thr = self.thr(bisect.name, batch)
        cfg = SimConfig(steps=steps, replicates=reps, seed=self.seed)
        args = (self.insts[bisect.name], batch, cfg, lo * thr, hi * thr, tol * thr)
        ops.append(
            _api_op(f"empirical_threshold {bisect.name}", "bisection", 1, montecarlo, "empirical_threshold", args, partial(self._check_bisection, thr))
        )
        return ops

    def _check_mc(self, spec, eta, batch, mixture_p, steps, reps, text, files):
        """trace_sigma_perp within MC_SIGMAS standard errors of the exact recursion at every step.

        Interpolating runs use the exact standard error from the fourth moment;
        the regular run uses the Gaussian value for the same mean and covariance.
        """
        header, rows = _csv(files["out"])
        expected = ["t", "trace_sigma_perp", "trace_sigma_par", "mu_norm", "loss_gap_estimate", "replicates", "diverged_count"]
        if header != expected or rows.shape != (steps + 1, 7):
            return [f"Monte-Carlo CSV has header {header} and shape {rows.shape}"]
        problems = []
        if np.any(rows[:, 5] != reps) or np.any(rows[:, 6] != 0):
            problems.append("replicate count or diverged count is wrong at a stable step size")
        inst = self.insts[spec.name]
        h, g = inst.hessians, inst.gradients
        x0 = self._initial_offset(spec.name)
        p_range = oracles.range_projector(h.mean(axis=0))
        if spec.regular:
            path = oracles.mixture_moments(h, g, eta, oracles.mixing_weight(inst.n, batch), x0, steps)
            mean = np.array([np.trace(p_range @ s @ p_range) for _, s in path])
            var = np.array([oracles.gaussian_square_norm_variance(mu, s, p_range) for mu, s in path])
        else:
            if mixture_p is None:
                contractions, weights = oracles.sgd_contractions(h, eta, batch)
            else:
                contractions, weights = oracles.mixture_contractions(h, eta, mixture_p)
            mean, var = oracles.interpolating_square_norm(contractions, weights, x0, p_range, steps)
        excess = np.abs(rows[:, 1] - mean) - (MC_SIGMAS * np.sqrt(var / reps) + 1e-9 * mean)
        if np.any(excess > 0):
            t = int(np.argmax(excess))
            problems.append(f"step {t}: trace_sigma_perp {rows[t, 1]!r} vs exact {mean[t]!r} (se {math.sqrt(var[t] / reps):.3e})")
        return problems

    def _check_bisection(self, thr, value, files):
        if (1.0 - EMPIRICAL_BELOW) * thr <= value <= (1.0 + EMPIRICAL_ABOVE) * thr:
            return []
        return [f"empirical threshold {value!r} is {value / thr:.4f} x the oracle threshold {thr!r}"]

    def probes(self):
        pool = instances.StreamPool()
        calls = 2000

        def block():
            for r in range(calls):
                pool.get(self.seed, 2 * r + 1)

        return {"instances.StreamPool.get.us": 1e6 * median_seconds(block, 5) / calls}


WORKLOADS = {cls.name: cls for cls in (AnalyzeDense, AnalyzeOperator, Moments, MonteCarlo)}
