"""Command-line interface.

Subcommands: test, replicate, range, qest, simulate, thumb.  Reports
render as human-readable text, CSV, or versioned JSON (--format).
Defaults for alpha, beta, seed, trials, q_ceiling, and format can come
from an INI config file with a [defaults] section (--config); explicit
flags always win.  Only qest and simulate import numpy (through
varratio and mc); the other subcommands start without it.

Exit codes: 0 success (a no-solution result is a success), 2 usage or
data errors, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

from . import __version__
from .criterion import THUMB_RATIO, Criteria, NoSolution, q_interval, rule_of_thumb
from .distributional import (
    DistributionalNull,
    ExperimentDesign,
    ExperimentSummary,
    degrees_of_freedom,
    dist_test_from_t,
    replication_probability,
    t_statistic,
)
from .errors import DataFormatError, DomainError, SolverFailure
from .point import _check_n, point_test, power_replication_estimate

SCHEMA_VERSION = 1

_DESIGNS = {
    "one-sample": ExperimentDesign.ONE_SAMPLE,
    "paired": ExperimentDesign.PAIRED,
    "two-sample": ExperimentDesign.TWO_SAMPLE_EQUAL_N,
}

_DEFAULTS = {
    "alpha": 0.05,
    "beta": 0.5,
    "q_ceiling": 1e3,
    "seed": 0,
    "trials": 100_000,
    "format": "human",
}


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    import configparser

    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"bad config file {path!r}: {exc}") from exc
    if not parser.has_section("defaults"):
        return {}
    return dict(parser["defaults"])


def _setting(args: argparse.Namespace, config: dict[str, str], key: str, cast):
    given = getattr(args, key, None)
    if given is not None:
        return given
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise DataFormatError(f"config key {key!r}: {exc}") from exc
    return _DEFAULTS[key]


def _pick_format(args: argparse.Namespace, config: dict[str, str]) -> str:
    fmt = _setting(args, config, "format", str)
    if fmt not in ("json", "csv", "human"):
        raise DataFormatError(f"unknown format {fmt!r}")
    return fmt


def _fmt_human(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_result(command: str, result: dict, fmt: str) -> None:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "result": result}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        keys = sorted(result)
        writer = csv.writer(sys.stdout)
        writer.writerow(keys)
        writer.writerow([_fmt_csv(result[k]) for k in keys])
    else:
        width = max(len(k) for k in result)
        for key in result:
            sys.stdout.write(f"{key:<{width}}  {_fmt_human(result[key])}\n")


def _emit_rows(command: str, columns: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "rows": rows}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_csv(row[c]) for c in columns])
    else:
        cells = [[_fmt_human(row[c]) for c in columns] for row in rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(columns)
        ]
        sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in cells:
            sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _add_stat_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--design", choices=sorted(_DESIGNS), help="experiment design")
    sub.add_argument("--n", type=int, required=True, help="per-group sample size N")
    sub.add_argument("--mean", type=float, help="sample mean (or difference of means)")
    sub.add_argument("--sd", type=float, help="sample sd (first group for two-sample)")
    sub.add_argument("--mean2", type=float, help="second group mean (two-sample)")
    sub.add_argument("--sd2", type=float, help="second group sd (two-sample)")
    sub.add_argument("--t", type=float, help="precomputed t statistic")
    sub.add_argument("--nu", type=float, help="degrees of freedom (with --t)")


def _resolve_stats(args: argparse.Namespace) -> tuple[float, float, int]:
    """(t1, nu, n) from either a precomputed statistic or raw summaries."""
    if args.t is not None:
        if args.nu is None:
            raise DomainError("--t requires --nu")
        if args.mean is not None or args.sd is not None:
            raise DomainError("give either --t/--nu or --mean/--sd, not both")
        if args.mean2 is not None or args.sd2 is not None:
            raise DomainError("--mean2/--sd2 need --mean/--sd, not --t/--nu")
        return args.t, args.nu, _check_n(args.n)
    if args.design is None or args.mean is None or args.sd is None:
        raise DomainError("need --design, --n, --mean and --sd (or --t with --nu)")
    design = _DESIGNS[args.design]
    mean, sd = args.mean, args.sd
    if args.mean2 is not None or args.sd2 is not None:
        if design is not ExperimentDesign.TWO_SAMPLE_EQUAL_N:
            raise DomainError("--mean2/--sd2 apply only to the two-sample design")
        if args.mean2 is None or args.sd2 is None:
            raise DomainError("two-sample input needs both --mean2 and --sd2")
        mean = args.mean - args.mean2
        sd = math.sqrt((args.sd**2 + args.sd2**2) / 2.0)
    summary = ExperimentSummary(design=design, n=args.n, mean=mean, sd=sd)
    t1, nu = t_statistic(summary)
    return t1, nu, args.n


def _cmd_test(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    alpha = _setting(args, config, "alpha", float)
    t1, nu, n = _resolve_stats(args)
    null = DistributionalNull(args.q)
    z1 = t1 / math.sqrt(n)
    point = point_test(z1, n, nu, alpha)
    dist = dist_test_from_t(t1, nu, n, null, alpha)
    result = {
        "alpha": alpha,
        "q": args.q,
        "n": n,
        "nu": nu,
        "t": t1,
        "z": z1,
        "point_p_value": point.p_value,
        "point_z_crit": point.z_crit,
        "point_t_crit": point.t_crit,
        "point_significant": point.significant,
        "dist_p_value": dist.p_value,
        "dist_t_crit": dist.t_crit,
        "dist_z_crit": dist.t_crit / math.sqrt(n),
        "dist_significant": dist.significant,
        "asymptotic_z_bound": dist.asymptotic_bound_z,
    }
    _emit_result("test", result, fmt)
    return 0


def _cmd_replicate(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    alpha = _setting(args, config, "alpha", float)
    t1, nu, n = _resolve_stats(args)
    null = DistributionalNull(args.q)
    result = {
        "alpha": alpha,
        "q": args.q,
        "n": n,
        "nu": nu,
        "t": t1,
        "replication_probability": replication_probability(t1, alpha, nu, n, null),
        "power_replication_estimate": power_replication_estimate(t1, alpha, nu),
    }
    _emit_result("replicate", result, fmt)
    return 0


def _cmd_range(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    alpha = _setting(args, config, "alpha", float)
    beta = _setting(args, config, "beta", float)
    q_ceiling = _setting(args, config, "q_ceiling", float)
    criteria = Criteria(alpha=alpha, beta=beta)
    outcome = q_interval(args.t, criteria, args.nu, args.n, q_ceiling)
    base = {"alpha": alpha, "beta": beta, "n": args.n, "nu": args.nu, "t": args.t}
    if isinstance(outcome, NoSolution):
        thumb = rule_of_thumb(alpha, args.nu)
        result = {
            **base,
            "status": "no_solution",
            "r_min": outcome.r_min,
            "q_at_min": outcome.q_at_min,
            "thumb_t_bound": thumb.t_bound,
            "thumb_p_threshold": thumb.p_threshold,
        }
    else:
        result = {
            **base,
            "status": "ok",
            "q1": outcome.q1,
            "q2": outcome.q2,
            "gamma": outcome.gamma,
            "r_min": outcome.r_min,
            "q_at_min": outcome.q_at_min,
            "q2_censored": outcome.q2_censored,
        }
    _emit_result("range", result, fmt)
    return 0


def _site_predicate(spec: str):
    allowed = {s.strip() for s in spec.split(",") if s.strip()}
    if not allowed:
        raise DomainError("--sites lists no site identifiers")
    return lambda site: site in allowed


def _cmd_qest(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    from . import varratio

    dataset, report = varratio.load_csv(args.data, min_cell_n=args.min_cell_n)
    for lineno, reason in report.bad_rows:
        print(f"warning: {args.data} line {lineno}: {reason}", file=sys.stderr)
    for measure, site, count in report.dropped_cells:
        # A cell of a dropped measure may be big enough; the measure line covers it.
        if count < args.min_cell_n:
            print(
                f"warning: cell ({measure}, {site}) dropped: {count} observation(s) "
                f"< {args.min_cell_n}",
                file=sys.stderr,
            )
    for measure in report.dropped_measures:
        print(f"warning: measure {measure} dropped: fewer than 2 sites", file=sys.stderr)
    groups = varratio.load_groups(args.groups) if args.groups else None
    if args.sites is not None:
        dataset = varratio.restrict(dataset, _site_predicate(args.sites))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = varratio._cell_table(dataset, dataset.measures, args.ddof)
        rows = varratio._pool(table, groups)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    columns = ["group", "datapoints", "mean_q", "q025", "q975"]
    row_dicts = [
        {
            "group": r.group,
            "datapoints": r.datapoints,
            "mean_q": r.mean_q,
            "q025": r.q_lo,
            "q975": r.q_hi,
        }
        for r in rows
    ]
    _emit_rows("qest", columns, row_dicts, fmt)

    cells = [cell for per_measure in table.values() for cell in per_measure]
    if args.cells_out:
        varratio.write_cells_csv(cells, args.cells_out)
    if args.hist_out:
        varratio.write_histogram_csv([c.q for c in cells], args.hist_out)
    return 0


def _cmd_simulate(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    from .mc import SimConfig, fpr_vs_n, simulate_fpr, simulate_replication

    alpha = _setting(args, config, "alpha", float)
    seed = _setting(args, config, "seed", int)
    trials = _setting(args, config, "trials", int)
    design = _DESIGNS[args.design]
    try:
        n_values = [int(piece) for piece in str(args.n).split(",") if piece]
    except ValueError as exc:
        raise DomainError(f"bad --n value {args.n!r}: {exc}") from exc
    if not n_values:
        raise DomainError("--n lists no sample sizes")
    if args.mode == "replication" and args.t is None:
        raise DomainError("replication mode requires --t")
    if args.mode == "replication" and len(n_values) != 1:
        raise DomainError("replication mode takes a single --n")
    cfg = SimConfig(
        design=design,
        n=n_values[0],
        q_true=args.q_true,
        trials=trials,
        seed=seed,
    )
    if args.mode == "replication":
        variant = args.variant.replace("-", "_")
        rep = simulate_replication(args.t, cfg, alpha, variant)
        nu = degrees_of_freedom(design, cfg.n)
        formula = replication_probability(
            args.t, alpha, nu, cfg.n, DistributionalNull(cfg.q_true)
        )
        rows = [
            {
                "design": args.design,
                "n": cfg.n,
                "q_true": cfg.q_true,
                "alpha": alpha,
                "t": args.t,
                "variant": args.variant,
                "trials": rep.trials,
                "seed": seed,
                "rate": rep.rate,
                "mc_se": rep.mc_se,
                "p_r_formula": formula,
            }
        ]
    else:
        q_test = args.q_true if args.q_test is None else args.q_test
        if len(n_values) == 1:
            reports = [(cfg.n, simulate_fpr(cfg, alpha, q_test, args.two_sided))]
        else:
            reports = fpr_vs_n(cfg, alpha, n_values, q_test, args.two_sided)
        rows = [
            {
                "design": args.design,
                "n": n,
                "q_true": cfg.q_true,
                "q_test": q_test,
                "alpha": alpha,
                "two_sided": args.two_sided,
                "trials": rep.trials,
                "seed": seed,
                "rate": rep.rate,
                "mc_se": rep.mc_se,
            }
            for n, rep in reports
        ]
    _emit_rows("simulate", list(rows[0]), rows, fmt)
    return 0


def _cmd_thumb(args: argparse.Namespace, config: dict[str, str], fmt: str) -> int:
    alpha = _setting(args, config, "alpha", float)
    thumb = rule_of_thumb(alpha, args.nu)
    result = {
        "alpha": alpha,
        "nu": args.nu,
        "t_bound": thumb.t_bound,
        "p_threshold": thumb.p_threshold,
        "bound_over_quantile": THUMB_RATIO,
    }
    _emit_result("thumb", result, fmt)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "human"], default=None)
    common.add_argument("--config", default=None, help="INI file with a [defaults] section")

    parser = argparse.ArgumentParser(
        prog="distnull",
        description="Significance and replication testing against distributional nulls.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", parents=[common], help="significance test report")
    _add_stat_inputs(p_test)
    p_test.add_argument("--alpha", type=float, default=None)
    p_test.add_argument("--q", type=float, required=True, help="variance ratio of the null")
    p_test.set_defaults(func=_cmd_test)

    p_rep = sub.add_parser("replicate", parents=[common], help="replication probability")
    _add_stat_inputs(p_rep)
    p_rep.add_argument("--alpha", type=float, default=None)
    p_rep.add_argument("--q", type=float, required=True)
    p_rep.set_defaults(func=_cmd_replicate)

    p_range = sub.add_parser(
        "range", parents=[common], help="q-interval where a result meets both criteria"
    )
    p_range.add_argument("--t", type=float, required=True)
    p_range.add_argument("--nu", type=float, required=True)
    p_range.add_argument("--n", type=int, required=True)
    p_range.add_argument("--alpha", type=float, default=None)
    p_range.add_argument("--beta", type=float, default=None)
    p_range.add_argument("--q-ceiling", dest="q_ceiling", type=float, default=None)
    p_range.set_defaults(func=_cmd_range)

    p_qest = sub.add_parser(
        "qest", parents=[common], help="variance-ratio summary from a site,measure,value CSV"
    )
    p_qest.add_argument("--data", required=True, help="input CSV path")
    p_qest.add_argument("--groups", default=None, help="measure-group INI path")
    p_qest.add_argument("--sites", default=None, help="comma-separated site ids to keep")
    p_qest.add_argument("--min-cell-n", dest="min_cell_n", type=int, default=2)
    p_qest.add_argument("--ddof", type=int, choices=[0, 1], default=1)
    p_qest.add_argument("--cells-out", dest="cells_out", default=None)
    p_qest.add_argument("--hist-out", dest="hist_out", default=None)
    p_qest.set_defaults(func=_cmd_qest)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte-Carlo calibration runs")
    p_sim.add_argument("--mode", choices=["fpr", "replication"], default="fpr")
    p_sim.add_argument("--design", choices=sorted(_DESIGNS), default="one-sample")
    p_sim.add_argument("--n", required=True, help="sample size, or comma list for fpr sweeps")
    p_sim.add_argument("--q-true", dest="q_true", type=float, required=True)
    p_sim.add_argument("--q-test", dest="q_test", type=float, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument(
        "--two-sided",
        dest="two_sided",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="calibrate the two-sided rejection event to alpha (default)",
    )
    p_sim.add_argument("--t", type=float, default=None, help="first result (replication mode)")
    p_sim.add_argument(
        "--variant", choices=["shared-s", "independent-s"], default="shared-s"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_thumb = sub.add_parser(
        "thumb", parents=[common], help="q-free bound on the joint criterion"
    )
    p_thumb.add_argument("--alpha", type=float, default=None)
    p_thumb.add_argument("--nu", type=float, required=True)
    p_thumb.set_defaults(func=_cmd_thumb)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        config = _load_config(args.config)
        fmt = _pick_format(args, config)
        return args.func(args, config, fmt)
    except (DomainError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
