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
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kron_certify, montecarlo, moments, stability
from .instances import (
    Hyperparams,
    InstanceFormatError,
    _fmt,
    classify,
    gen_interpolating,
    gen_regular,
    load_instance,
    mixing_weight,
    save_instance,
    stream,
)
from .linalg import ConvergenceError, null_projectors
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgdstab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
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
    p_an.add_argument("instance")
    p_an.add_argument("--batch", type=int, required=True)
    p_an.add_argument("--eta", type=float, nargs="*", default=None)
    p_an.add_argument("--out", default=None, help="optional CSV of per-eta classifications")

    p_sw = sub.add_parser("sweep", help="emit threshold quantities over a grid")
    p_sw.add_argument("instance")
    p_sw.add_argument("--batches", type=int, nargs="+", required=True)
    p_sw.add_argument("--eta-min", type=float, required=True)
    p_sw.add_argument("--eta-max", type=float, required=True)
    p_sw.add_argument("--eta-count", type=int, required=True)
    p_sw.add_argument("--log-grid", action="store_true")
    p_sw.add_argument("--rank-one-steps", type=int, default=2000)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="moment recursion or Monte-Carlo run")
    p_sim.add_argument("instance")
    p_sim.add_argument("--eta", type=float, required=True)
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--batch", type=int, default=None)
    group.add_argument("--mixture-p", type=float, default=None)
    p_sim.add_argument("--steps", type=int, default=1000)
    p_sim.add_argument("--replicates", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--divergence-factor", type=float, default=1e6)
    p_sim.add_argument("--init-scale", type=float, default=1.0)
    p_sim.add_argument("--exact", action="store_true", help="run the closed-form moment recursion")
    p_sim.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="run the numerical property suites")
    p_ver.add_argument("--suite", choices=["kron", "thresholds", "moments", "mixture", "all"], default="all")
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
    print(f"batch: {args.batch}  p: {_fmt(verdict.p)}")
    print(f"sharpness: {_fmt(2.0 / verdict.mean_threshold) if math.isfinite(verdict.mean_threshold) else '0'}")
    print(f"mean_threshold: {_fmt(verdict.mean_threshold)}")
    print(f"variance_threshold: {_fmt(verdict.variance_threshold)}")
    print(f"bound_eigvec: {_fmt(verdict.bound_eigvec)}")
    print(f"bound_trace: {_fmt(verdict.bound_trace)}")
    print(f"bound_rank_one: {_fmt(verdict.bound_rank_one)}")
    if args.batch == inst.n:
        print("GD regime: variance threshold coincides with the mean threshold")
    for row in verdict.rows:
        print(
            f"eta={_fmt(row.eta)}: "
            f"{'MeanStable' if row.mean_stable else 'MeanUnstable'} "
            f"{'VarStable' if row.var_stable else 'VarUnstable'}"
        )
    if args.out:
        lines = ["eta,mean_stable,var_stable"]
        for row in verdict.rows:
            lines.append(f"{_fmt(row.eta)},{int(row.mean_stable)},{int(row.var_stable)}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    if args.eta_count < 1:
        raise _UsageError("eta grid must be non-empty")
    if args.eta_min <= 0 or args.eta_max < args.eta_min:
        raise _UsageError("require 0 < eta-min <= eta-max")
    for b in args.batches:
        if not 1 <= b <= inst.n:
            raise InstanceFormatError(f"batch size {b} out of range [1, {inst.n}]")
    if args.eta_count == 1:
        grid = np.array([args.eta_min])
    elif args.log_grid:
        grid = np.geomspace(args.eta_min, args.eta_max, args.eta_count)
    else:
        grid = np.linspace(args.eta_min, args.eta_max, args.eta_count)
    stability.require_valid(inst)
    lam = stability.sharpness(inst)
    lines = ["batch,eta,two_over_eta,generalized_sharpness,rank_one_bound,eigvec_bound,sharpness"]
    for b in sorted(args.batches):
        gen_sharp = stability.generalized_sharpness(inst, b)
        rank_one_value, _ = stability.rank_one_bound(inst, b, steps=args.rank_one_steps, seed=args.seed)
        eig_value = 2.0 / stability.necessary_bound_eigvec(inst, b)
        for eta in grid:
            row = (
                str(b),
                _fmt(eta),
                _fmt(2.0 / eta),
                _fmt(gen_sharp),
                _fmt(rank_one_value),
                _fmt(eig_value),
                _fmt(lam),
            )
            lines.append(",".join(row))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({len(lines) - 1} rows)")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    if args.exact:
        if args.batch is None:
            raise InstanceFormatError("--exact requires --batch")
        hp = Hyperparams(eta=args.eta, batch=args.batch)
        state = _exact_initial_state(inst, args)
        path = moments.iterate_moments(inst, hp, state, args.steps, keep_path=True)
        moments.write_trajectory_csv(args.out, inst, path)
        print(f"wrote {args.out} ({len(path)} rows)")
        return EXIT_OK
    cfg = SimConfig(
        steps=args.steps,
        replicates=args.replicates,
        seed=args.seed,
        divergence_factor=args.divergence_factor,
        init_offset=args.init_scale,
    )
    if args.mixture_p is not None:
        em = montecarlo.simulate_mixture(inst, args.eta, args.mixture_p, cfg)
    else:
        em = montecarlo.simulate_sgd(inst, Hyperparams(eta=args.eta, batch=args.batch), cfg)
    montecarlo.write_empirical_csv(args.out, em)
    print(f"wrote {args.out} (diverged={em.diverged}, diverged_count={em.diverged_count})")
    return EXIT_OK


def _exact_initial_state(inst, args):
    cfg = SimConfig(steps=1, replicates=1, seed=args.seed, init_offset=args.init_scale)
    x0 = montecarlo.initial_offset(inst, cfg)
    return moments.point_state(x0)


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


def _random_instance(rng: np.random.Generator, d_max=4, n_max=6, regular=False):
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(2, n_max + 1))
    rank = int(rng.integers(1, d + 1))
    seed = int(rng.integers(0, 2**31))
    if regular:
        return gen_regular(d, n, rank, 1.0, False, seed)
    return gen_interpolating(d, n, rank, seed)


def _suite_kron(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 101)
    failures_radius = 0
    failures_psd = 0
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        members = np.stack([0.5 * (a + a.T) for a in rng.standard_normal((m, d, d))])
        report = kron_certify.certify(kron_certify.KronFamily.from_matrices(members))
        if abs(report.rho - report.lambda_max) > 1e-8 * max(1.0, report.rho):
            failures_radius += 1
        if report.min_eig_of_top < -1e-7 * max(1.0, float(np.linalg.norm(report.top_eigvec_matrix))):
            failures_psd += 1
        if np.any(report.eigvec_symmetry_defects > 1e-7):
            failures_radius += 1
    return [
        PropertyResult("kron-spectral-radius-equals-top", trials, failures_radius),
        PropertyResult("kron-top-eigvec-psd", trials, failures_psd),
    ]


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
                res_oracle.trials += 1
                q = stability.second_moment_transition(inst, eta, b)
                q_ref = stability.brute_force_transition(inst, eta, b)
                if np.max(np.abs(q - q_ref)) > 1e-10 * max(1.0, float(np.max(np.abs(q_ref)))):
                    res_oracle.failures += 1
                    res_oracle.detail = f"batch={b}, eta={eta}"
        res_gd.trials += 1
        if abs(stability.variance_threshold(inst, inst.n) - 2.0 / lam) > 1e-9 * (2.0 / lam):
            res_gd.failures += 1
        res_mono.trials += 1
        thresholds = [stability.variance_threshold(inst, b) for b in range(1, inst.n + 1)]
        if any(t2 < t1 - 1e-9 * max(1.0, t1) for t1, t2 in zip(thresholds, thresholds[1:])):
            res_mono.failures += 1
        res_chain.trials += 1
        b = int(rng.integers(1, inst.n + 1))
        gen_sharp = 2.0 / stability.variance_threshold(inst, b)
        r1, _ = stability.rank_one_bound(inst, b, steps=400, seed=int(rng.integers(0, 2**31)))
        b14 = 2.0 / stability.necessary_bound_eigvec(inst, b)
        slack = 1e-9 * max(1.0, gen_sharp)
        if not (gen_sharp + slack >= r1 >= b14 - slack and b14 + slack >= lam):
            res_chain.failures += 1
            res_chain.detail = f"chain {gen_sharp} >= {r1} >= {b14} >= {lam} violated"
        res_spec.trials += 1
        thr = stability.variance_threshold(inst, b)
        ok = True
        for factor in (0.2, 0.7, 0.99, 1.01, 1.5):
            eta = factor * thr
            lam_q = float(np.max(np.abs(np.linalg.eigvalsh(stability.second_moment_transition(inst, eta, b)))))
            if (eta <= thr) != (lam_q <= 1.0 + 1e-9):
                ok = False
        if not ok:
            res_spec.failures += 1
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
        res_cross.trials += 1
        try:
            moments.cross_term(inst, hp.eta, b)
        except ConvergenceError:
            res_cross.failures += 1
        res_cross_mc.trials += 1
        try:
            moments.cross_term(inst, hp.eta, b, enum_cap=0)
        except ConvergenceError:
            res_cross_mc.failures += 1
        res_fix.trials += 1
        limit = moments.covariance_limit(inst, hp)
        state = moments.iterate_moments(inst, hp, moments.point_state(np.zeros(d)), 6000)
        _, p_range = null_projectors(inst.mean_hessian())
        proj = p_range @ state.second_moment @ p_range
        if np.linalg.norm(proj - limit) > 1e-6 * max(1.0, float(np.linalg.norm(limit))):
            res_fix.failures += 1
        res_cons.trials += 1
        dist_sq, loss_gap, grad_sq = moments.asymptotic_quantities(inst, hp)
        hbar = inst.mean_hessian()
        checks = (
            abs(dist_sq - np.trace(limit)),
            abs(loss_gap - 0.5 * np.trace(hbar @ limit)),
            abs(grad_sq - np.trace(hbar @ hbar @ limit)),
        )
        if max(checks) > 1e-9 * max(1.0, dist_sq):
            res_cons.failures += 1
        res_walk.trials += 1
        inst_w = gen_regular(max(d, 2), n, max(d, 2) - 1, 1.0, True, int(rng.integers(0, 2**31)))
        hp_w = Hyperparams(eta=0.3 / stability.sharpness(inst_w), batch=1)
        init = moments.point_state(np.zeros(inst_w.d))
        t_check = 7
        closed = moments.null_walk_second_moment(inst_w, hp_w, t_check, init)
        state_w = moments.iterate_moments(inst_w, hp_w, init, t_check)
        p_null, _ = null_projectors(inst_w.mean_hessian())
        iterated = float(np.trace(p_null @ state_w.second_moment @ p_null))
        if abs(closed - iterated) > 1e-9 * max(1.0, abs(closed)):
            res_walk.failures += 1
    return [res_fix, res_cons, res_walk, res_cross, res_cross_mc]


def _suite_mixture(seed: int, trials: int) -> list[PropertyResult]:
    rng = stream(seed, 104)
    res_q = PropertyResult("mixture-transition-equality", 0, 0)
    res_cls = PropertyResult("mixture-classification-agreement", 0, 0)
    for k in range(trials):
        inst = _random_instance(rng)
        for b in range(1, inst.n + 1):
            res_q.trials += 1
            p = mixing_weight(inst.n, b)
            eta = 0.8 / stability.sharpness(inst)
            q_mix = stability.mixture_transition(inst, eta, p)
            q_ref = stability.brute_force_transition(inst, eta, b)
            if np.max(np.abs(q_mix - q_ref)) > 1e-10 * max(1.0, float(np.max(np.abs(q_ref)))):
                res_q.failures += 1
        if k == 0:
            inst_c = gen_interpolating(2, 4, 2, int(rng.integers(0, 2**31)))
            b = 2
            thr = stability.variance_threshold(inst_c, b)
            p = mixing_weight(inst_c.n, b)
            cfg = SimConfig(steps=24, replicates=8192, seed=int(rng.integers(0, 2**31)))
            for factor in (0.9, 1.1):
                res_cls.trials += 1
                hp = Hyperparams(eta=factor * thr, batch=b)
                em_sgd = montecarlo.simulate_sgd(inst_c, hp, cfg)
                em_mix = montecarlo.simulate_mixture(inst_c, hp.eta, p, cfg)
                cls_sgd = montecarlo.classify_unstable(em_sgd, cfg)
                cls_mix = montecarlo.classify_unstable(em_mix, cfg)
                if cls_sgd != cls_mix or cls_sgd != (factor > 1.0):
                    res_cls.failures += 1
                    res_cls.detail = f"factor={factor}: sgd={cls_sgd}, mixture={cls_mix}"
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
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, InstanceFormatError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
