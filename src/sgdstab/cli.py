"""Command-line front end.

Subcommands:
  gen       write a random instance file and print its classification
  analyze   print thresholds and necessary bounds for an instance
  sweep     emit a CSV of threshold quantities over a step-size grid
  simulate  run the exact moment recursion or a Monte-Carlo simulation
  verify    run the numerical property suites

Exit codes: 0 success, 1 usage, 2 input/validation, 3 verification
failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import kron_certify, montecarlo, moments, stability
from .instances import (
    Hyperparams, classify, fmt, gen_interpolating, gen_regular, load_instance, mixing_weight, save_instance, stream, write_csv,
)
from .linalg import ConvergenceError, lapack_eigh, null_projectors, unvec, vec
from .montecarlo import SimConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_NUMERICAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse takes only digit strings such as -1 or -.5 for negative numbers, so
        # -inf, -nan and -1e-3 would read as unknown options; every float is a value here.
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache  # built once per process: a build costs about ten parses
def _build_parser() -> _Parser:
    parser = _Parser(prog="sgdstab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.set_defaults(handler=_cmd_gen)
    p_gen.add_argument("--kind", choices=["interpolating", "regular"], required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--rank", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--grad-scale", type=float, default=1.0)
    p_gen.add_argument("--null-grad", action="store_true")
    p_gen.add_argument("--unit-sharpness", action="store_true")
    p_gen.add_argument("--out", required=True)

    p_an = sub.add_parser("analyze", help="print thresholds and bounds")
    p_an.set_defaults(handler=_cmd_analyze)
    p_an.add_argument("instance")
    p_an.add_argument("--batch", type=int, required=True)
    p_an.add_argument("--eta", type=float, nargs="*", default=None)
    p_an.add_argument("--out", default=None, help="optional CSV of per-eta classifications")

    p_sw = sub.add_parser("sweep", help="emit threshold quantities over a grid")
    p_sw.set_defaults(handler=_cmd_sweep)
    p_sw.add_argument("instance")
    p_sw.add_argument("--batches", type=int, nargs="+", required=True)
    p_sw.add_argument("--eta-min", type=float, required=True)
    p_sw.add_argument("--eta-max", type=float, required=True)
    p_sw.add_argument("--eta-count", type=int, required=True)
    p_sw.add_argument("--log-grid", action="store_true")
    p_sw.add_argument("--rank-one-steps", type=int, default=2000, help="iteration cap; the ascent stops on convergence")
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="moment recursion or Monte-Carlo run")
    p_sim.set_defaults(handler=_cmd_simulate)
    p_sim.add_argument("instance")
    p_sim.add_argument("--eta", type=float, required=True)
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--batch", type=int, default=None)
    group.add_argument("--mixture-p", type=float, default=None)
    p_sim.add_argument("--steps", type=int, default=1000)
    # Monte-Carlo settings: None marks "not given", which --exact requires.
    p_sim.add_argument("--replicates", type=int, default=None, help="Monte-Carlo only (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--divergence-factor",
        type=float,
        default=None,
        metavar="F",
        help="Monte-Carlo only (default 1e6): a replicate diverges, and is frozen, when "
        "|x_perp|^2 > F (1 + |x0_perp|^2) on the range of the mean Hessian",
    )
    p_sim.add_argument("--init-scale", type=float, default=1.0)
    p_sim.add_argument("--exact", action="store_true", help="run the closed-form moment recursion")
    p_sim.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the numerical property suites")
    p_ver.set_defaults(handler=_cmd_verify)
    p_ver.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=10)
    return parser


def _cmd_gen(args) -> int:
    if args.kind == "interpolating":
        inst = gen_interpolating(args.d, args.n, args.rank, args.seed, unit_sharpness=args.unit_sharpness)
    else:
        inst = gen_regular(
            args.d,
            args.n,
            args.rank,
            args.grad_scale,
            args.null_grad,
            args.seed,
            unit_sharpness=args.unit_sharpness,
        )
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    print(f"classification: {classify(inst).value}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    inst = load_instance(args.instance)
    eta_list = args.eta if args.eta else []
    verdict = stability.stability_verdict(inst, args.batch, eta_list)
    print(f"instance: {inst.label or args.instance} (d={inst.d}, n={inst.n})")
    print(f"classification: {verdict.classification.value}")
    print(f"batch: {args.batch}  p: {fmt(verdict.p)}")
    print(f"sharpness: {fmt(verdict.sharpness)}")
    print(f"mean_threshold: {fmt(verdict.mean_threshold)}")
    print(f"variance_threshold: {fmt(verdict.variance_threshold)}")
    print(f"bound_eigvec: {fmt(verdict.bound_eigvec)}")
    print(f"bound_trace: {fmt(verdict.bound_trace)}")
    print(f"bound_rank_one: {fmt(verdict.bound_rank_one)}")
    if args.batch == inst.n:
        print("GD regime: variance threshold coincides with the mean threshold")
    for row in verdict.rows:
        print(
            f"eta={fmt(row.eta)}: "
            f"{'MeanStable' if row.mean_stable else 'MeanUnstable'} "
            f"{'VarStable' if row.var_stable else 'VarUnstable'}"
        )
    if args.out:
        rows = ((fmt(row.eta), str(int(row.mean_stable)), str(int(row.var_stable))) for row in verdict.rows)
        write_csv(args.out, "eta,mean_stable,var_stable", rows)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    if args.eta_count < 1:
        raise _UsageError("eta grid must be non-empty")
    if not (math.isfinite(args.eta_min) and math.isfinite(args.eta_max) and 0 < args.eta_min <= args.eta_max):
        raise _UsageError("require finite 0 < eta-min <= eta-max")
    if args.rank_one_steps < 0:
        raise _UsageError("rank-one-steps must be nonnegative")
    for b in args.batches:
        mixing_weight(inst.n, b)  # ValueError unless 1 <= b <= n
    if args.eta_count == 1:
        grid = np.array([args.eta_min])
    elif args.log_grid:
        grid = np.geomspace(args.eta_min, args.eta_max, args.eta_count)
    else:
        grid = np.linspace(args.eta_min, args.eta_max, args.eta_count)
    batches = sorted(args.batches)
    _, lam, bounds = stability.sweep_bounds(inst, batches, args.rank_one_steps, args.seed)
    rows = [
        (str(b), fmt(eta), fmt(2.0 / eta), fmt(gen_sharp), fmt(rank_one_value), fmt(2.0 / eig_bound), fmt(lam))
        for b, (gen_sharp, rank_one_value, eig_bound) in zip(batches, bounds)
        for eta in grid
    ]
    write_csv(args.out, "batch,eta,two_over_eta,generalized_sharpness,rank_one_bound,eigvec_bound,sharpness", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    if args.exact:
        if args.batch is None:
            raise _UsageError("--exact requires --batch")
        for flag, value in (("--replicates", args.replicates), ("--divergence-factor", args.divergence_factor)):
            if value is not None:
                raise _UsageError(f"{flag} applies to Monte-Carlo runs, not to --exact")
        hp = Hyperparams(eta=args.eta, batch=args.batch)
        cfg = SimConfig(steps=args.steps, replicates=1, seed=args.seed, init_offset=args.init_scale)
        state = moments.point_state(montecarlo.initial_offset(inst, cfg))
        path = moments.iterate_moments(inst, hp, state, args.steps, keep_path=True)
        moments.write_trajectory_csv(args.out, inst, path)
        print(f"wrote {args.out} ({len(path)} rows)")
        return EXIT_OK
    cfg = SimConfig(
        steps=args.steps,
        replicates=1000 if args.replicates is None else args.replicates,
        seed=args.seed,
        divergence_factor=1e6 if args.divergence_factor is None else args.divergence_factor,
        init_offset=args.init_scale,
    )
    if args.mixture_p is not None:
        em = montecarlo.simulate_mixture(inst, args.eta, args.mixture_p, cfg)
    else:
        em = montecarlo.simulate_sgd(inst, Hyperparams(eta=args.eta, batch=args.batch), cfg)
    montecarlo.write_empirical_csv(args.out, em)
    print(f"wrote {args.out} (diverged={em.diverged}, diverged_count={em.diverged_count})")
    return EXIT_OK


# --------------------------------------------------------------------------
# verification suites


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, detail: str = "") -> None:
        """Count one trial; a failed one also counts a failure and, if given, sets the detail."""
        self.trials += 1
        if not ok:
            self.failures += 1
            self.detail = detail or self.detail


def _random_instance(rng: np.random.Generator):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(2, 7))
    rank = int(rng.integers(1, d + 1))
    return gen_interpolating(d, n, rank, int(rng.integers(0, 2**31)))


def _suite_kron(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 101)
    res_radius = PropertyResult("kron-spectral-radius-equals-top", 0, 0)
    res_psd = PropertyResult("kron-top-eigvec-psd", 0, 0)
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        members = np.stack([0.5 * (a + a.T) for a in rng.standard_normal((m, d, d))])
        report = kron_certify.certify(kron_certify.KronFamily.from_matrices(members))
        radius_ok = not abs(report.rho - report.lambda_max) > 1e-8 * max(1.0, report.rho)
        split_ok = not report.block_coupling > 1e-7
        detail = "symmetric and antisymmetric blocks couple" if radius_ok else "spectral radius differs from the top eigenvalue"
        res_radius.record(radius_ok and split_ok, detail)
        res_psd.record(not report.min_eig_of_top < -1e-7 * max(1.0, float(np.linalg.norm(report.top_eigvec_matrix))))
    return [res_radius, res_psd]


def _suite_thresholds(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 102)
    res_oracle = PropertyResult("oracle-q-equality", 0, 0)
    res_gd = PropertyResult("gd-recovery", 0, 0)
    res_mono = PropertyResult("threshold-monotonicity", 0, 0)
    res_chain = PropertyResult("bound-chain", 0, 0)
    res_spec = PropertyResult("threshold-spectrum-equivalence", 0, 0)
    for _ in range(trials):
        inst = _random_instance(rng)
        lam = stability.sharpness(inst)
        etas = [0.0, 0.3 / lam, 1.0 / lam, 2.2 / lam]
        for b in range(1, inst.n + 1):
            for eta in etas:
                q = kron_certify.second_moment_transition(inst, eta, b)
                q_ref = kron_certify.brute_force_transition(inst, eta, b)
                ok = not np.max(np.abs(q - q_ref)) > 1e-10 * max(1.0, float(np.max(np.abs(q_ref))))
                res_oracle.record(ok, f"batch={b}, eta={eta}")
        thresholds = [stability.variance_threshold(inst, b) for b in range(1, inst.n + 1)]
        res_gd.record(not abs(thresholds[-1] - 2.0 / lam) > 1e-9 * (2.0 / lam))
        res_mono.record(not any(t2 < t1 - 1e-9 * max(1.0, t1) for t1, t2 in zip(thresholds, thresholds[1:])))
        b = int(rng.integers(1, inst.n + 1))
        thr = thresholds[b - 1]
        gen_sharp = 2.0 / thr
        r1, _ = stability.rank_one_bound(inst, b, steps=400, seed=int(rng.integers(0, 2**31)))
        b14 = 2.0 / stability.necessary_bound_eigvec(inst, b)
        slack = 1e-9 * max(1.0, gen_sharp)
        ok = gen_sharp + slack >= r1 >= b14 - slack and b14 + slack >= lam
        res_chain.record(ok, f"chain {gen_sharp} >= {r1} >= {b14} >= {lam} violated")
        ok = True
        for factor in (0.2, 0.7, 0.99, 1.01, 1.5):
            eta = factor * thr
            lam_q = float(np.max(np.abs(lapack_eigh(kron_certify.second_moment_transition(inst, eta, b), vectors=False))))
            ok &= (eta <= thr) == (lam_q <= 1.0 + 1e-9)
        res_spec.record(ok)
    return [res_oracle, res_gd, res_mono, res_chain, res_spec]


def _suite_moments(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 103)
    res_fix = PropertyResult("covariance-limit-fixed-point", 0, 0)
    res_cons = PropertyResult("asymptotic-trace-consistency", 0, 0)
    res_walk = PropertyResult("null-walk-exact-slope", 0, 0)
    res_cross = PropertyResult("cross-term-enumeration", 0, 0)
    res_cross_mc = PropertyResult("cross-term-monte-carlo", 0, 0)
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 6))
        inst = gen_regular(d, n, d, 1.0, False, int(rng.integers(0, 2**31)))
        b = int(rng.integers(1, n + 1))
        thr = stability.variance_threshold(inst, b)
        hp = Hyperparams(eta=0.5 * thr, batch=b)
        closed = moments.cross_term(inst, hp.eta, b)
        ref = kron_certify.brute_force_cross_term(inst, hp.eta, b)
        defect = float(np.max(np.abs(closed - ref)))
        res_cross.record(not defect > 1e-10 * max(1.0, float(np.max(np.abs(ref)))), f"off batch enumeration by {defect:.3e}")
        mean, se = kron_certify.sampled_cross_term(inst, hp.eta, b)
        gap, band = np.abs(closed - mean), 5.0 * se
        beyond = float(np.max(gap - band))
        res_cross_mc.record(not np.any(gap > band + 1e-12), f"off the sampled mean by {beyond:.3e} beyond five standard errors")
        limit = moments.covariance_limit(inst, hp)
        # From x0 = 0 the mean stays 0 and Sigma' = Q Sigma + Sigma_v.  Every H_i has rank d, so
        # with rho(Q) < 1 the limit must be that map's unique, attracting fixed point.
        q = kron_certify.second_moment_transition(inst, hp.eta, b)
        sigma_v = hp.eta**2 * mixing_weight(n, b) * inst.gradient_second_moment()
        dense = unvec(np.linalg.solve(np.eye(d * d) - q, vec(sigma_v)), d)
        step = moments.ExactStepper(inst, hp).step(moments.MomentState(mean=np.zeros(d), second_moment=limit))
        tol = 1e-6 * max(1.0, float(np.linalg.norm(limit)))
        rho = float(np.max(np.abs(lapack_eigh(q, vectors=False))))
        values = lapack_eigh(limit, vectors=False)
        psd = not values[0] < -1e-8 * max(float(values[-1]), 1e-300)
        ok = not max(np.linalg.norm(dense - limit), np.linalg.norm(step.second_moment - limit)) > tol and rho < 1.0
        detail = f"d={d}, n={n}, batch={b}, rho(Q)={rho}"
        res_fix.record(ok and psd, detail if psd else f"{detail}: limit not PSD (lambda_min = {values[0]:.3e})")
        dist_sq, loss_gap, grad_sq = moments.asymptotic_quantities(inst, hp)
        hbar = inst.mean_hessian()
        checks = (
            abs(dist_sq - np.trace(limit)),
            abs(loss_gap - 0.5 * np.trace(hbar @ limit)),
            abs(grad_sq - np.trace(hbar @ hbar @ limit)),
        )
        res_cons.record(not max(checks) > 1e-9 * max(1.0, dist_sq))
        inst_w = gen_regular(max(d, 2), n, max(d, 2) - 1, 1.0, True, int(rng.integers(0, 2**31)))
        hp_w = Hyperparams(eta=0.3 / stability.sharpness(inst_w), batch=1)
        init = moments.point_state(np.zeros(inst_w.d))
        t_check = 7
        closed = moments.null_walk_second_moment(inst_w, hp_w, t_check, init)
        state_w = moments.iterate_moments(inst_w, hp_w, init, t_check)
        p_null, _ = null_projectors(inst_w.mean_hessian())
        iterated = float(np.trace(p_null @ state_w.second_moment @ p_null))
        res_walk.record(not abs(closed - iterated) > 1e-9 * max(1.0, abs(closed)))
    return [res_fix, res_cons, res_walk, res_cross, res_cross_mc]


def _suite_mixture(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 104)
    res_q = PropertyResult("mixture-transition-equality", 0, 0)
    res_cls = PropertyResult("mixture-classification-agreement", 0, 0)
    for k in range(trials):
        inst = _random_instance(rng)
        for b in range(1, inst.n + 1):
            p = mixing_weight(inst.n, b)
            eta = 0.8 / stability.sharpness(inst)
            q_mix = kron_certify.mixture_transition(inst, eta, p)
            q_ref = kron_certify.brute_force_transition(inst, eta, b)
            res_q.record(not np.max(np.abs(q_mix - q_ref)) > 1e-10 * max(1.0, float(np.max(np.abs(q_ref)))))
        if k == 0:
            inst_c = gen_interpolating(2, 4, 2, int(rng.integers(0, 2**31)))
            b = 2
            thr = stability.variance_threshold(inst_c, b)
            p = mixing_weight(inst_c.n, b)
            cfg = SimConfig(steps=24, replicates=8192, seed=int(rng.integers(0, 2**31)))
            for factor in (0.9, 1.1):
                hp = Hyperparams(eta=factor * thr, batch=b)
                em_sgd = montecarlo.simulate_sgd(inst_c, hp, cfg)
                em_mix = montecarlo.simulate_mixture(inst_c, hp.eta, p, cfg)
                cls_sgd = montecarlo.classify_unstable(em_sgd, cfg)
                cls_mix = montecarlo.classify_unstable(em_mix, cfg)
                ok = cls_sgd == cls_mix == (factor > 1.0)
                res_cls.record(ok, f"factor={factor}: sgd={cls_sgd}, mixture={cls_mix}")
    return [res_q, res_cls]


_SUITES = {
    "kron": _suite_kron,
    "thresholds": _suite_thresholds,
    "moments": _suite_moments,
    "mixture": _suite_mixture,
}


def run_suites(suite: str, seed: int, trials: int) -> list[PropertyResult]:
    names = list(_SUITES) if suite == "all" else [suite]
    results: list[PropertyResult] = []
    for name in names:
        results.extend(_SUITES[name](seed, trials))
    return results


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError("trials must be >= 1")
    results = run_suites(args.suite, args.seed, args.trials)
    any_failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"{status} {res.name} ({res.trials - res.failures}/{res.trials})"
        if res.detail and not res.passed:
            line += f" -- {res.detail}"
        print(line)
        any_failed |= not res.passed
    return EXIT_VERIFY if any_failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:  # InstanceFormatError is a ValueError; a bad path is an OSError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
