"""Command-line interface.

Subcommands: test, replicate, range, qest, simulate, thumb.  Reports
render as human-readable text, CSV, or versioned JSON (--format).
Settings: format (every subcommand), alpha (all but qest), beta and
q_ceiling (range), seed and trials (simulate).  Each comes from its flag,
else from the [defaults] section of the INI file given by --config (keys
spelt with underscores, values read literally, no % interpolation), else
its built-in default.  A key the subcommand does not take is ignored,
even if malformed.  Each subcommand imports only the layers it runs:
test and replicate load point and distributional, range and thumb load
criterion (with point), qest loads varratio and simulate loads mc (with
numpy).  --help, --version and usage errors import none of them.

Exit codes: 0 success (a no-solution result is a success), 2 usage or
data errors, 3 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings

from . import __version__
from .errors import DataFormatError, DomainError, SolverFailure

SCHEMA_VERSION = 1

# ExperimentDesign member names: distributional loads only where a design is used.
_DESIGNS = {
    "one-sample": "ONE_SAMPLE",
    "paired": "PAIRED",
    "two-sample": "TWO_SAMPLE_EQUAL_N",
}

_FORMATS = ("json", "csv", "human")


def _format(value: str) -> str:
    # Not a ValueError, so the message names the format rather than the key.
    if value not in _FORMATS:
        raise DataFormatError(f"unknown format {value!r}")
    return value


# Each value a flag or the config's [defaults] section may set: its built-in
# default and the cast a config string goes through.  Format comes first, so
# a bad format is reported before any other bad key; its flag is declared
# with choices on every subcommand, the others by _add_settings.
_SETTINGS = {
    "format": ("human", _format),
    "alpha": (0.05, float),
    "beta": (0.5, float),
    "q_ceiling": (1e3, float),
    "seed": (0, int),
    "trials": (100_000, int),
}


def _add_settings(sub: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), type=_SETTINGS[key][1], default=None)


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"bad config file {path!r}: {exc}") from exc
    if not parser.has_section("defaults"):
        return {}
    return dict(parser["defaults"])


def _resolve_settings(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Fill in each setting the subcommand takes that no flag gave: from
    config, else the built-in default.  Keys it does not take are ignored."""
    for key, (default, cast) in _SETTINGS.items():
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue
        if key in config:
            try:
                default = cast(config[key])
            except ValueError as exc:
                raise DataFormatError(f"config key {key!r}: {exc}") from exc
        setattr(args, key, default)


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


def _emit_json(command: str, key: str, value) -> None:
    import json

    doc = {"schema_version": SCHEMA_VERSION, "command": command, key: value}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_result(command: str, result: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(command, "result", result)
    elif fmt == "csv":
        _emit_rows(command, sorted(result), [result], fmt)
    else:
        width = max(len(k) for k in result)
        for key in result:
            sys.stdout.write(f"{key:<{width}}  {_fmt_human(result[key])}\n")


def _emit_rows(command: str, columns: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        _emit_json(command, "rows", rows)
    elif fmt == "csv":
        import csv

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
    _add_settings(sub, "alpha")
    sub.add_argument("--q", type=float, required=True, help="variance ratio of the null")


def _resolve_stats(args: argparse.Namespace) -> tuple[float, float, int]:
    """(t1, nu, n) from either a precomputed statistic or raw summaries."""
    from .distributional import ExperimentDesign, ExperimentSummary, t_statistic

    if args.t is not None:
        if args.nu is None:
            raise DomainError("--t requires --nu")
        if args.mean is not None or args.sd is not None:
            raise DomainError("give either --t/--nu or --mean/--sd, not both")
        if args.mean2 is not None or args.sd2 is not None:
            raise DomainError("--mean2/--sd2 need --mean/--sd, not --t/--nu")
        return args.t, args.nu, args.n
    if args.design is None or args.mean is None or args.sd is None:
        raise DomainError("need --design, --n, --mean and --sd (or --t with --nu)")
    design = ExperimentDesign[_DESIGNS[args.design]]
    if args.mean2 is not None or args.sd2 is not None:
        if design is not ExperimentDesign.TWO_SAMPLE_EQUAL_N:
            raise DomainError("--mean2/--sd2 apply only to the two-sample design")
        if args.mean2 is None or args.sd2 is None:
            raise DomainError("two-sample input needs both --mean2 and --sd2")
        summary = ExperimentSummary.two_sample(args.n, args.mean, args.sd, args.mean2, args.sd2)
    else:
        summary = ExperimentSummary(design=design, n=args.n, mean=args.mean, sd=args.sd)
    t1, nu = t_statistic(summary)
    return t1, nu, args.n


def _cmd_test(args: argparse.Namespace) -> int:
    from .distributional import DistributionalNull, dist_test_from_t

    t1, nu, n = _resolve_stats(args)
    null = DistributionalNull(args.q)
    # The point-form null is the distributional null at q = 0.
    point = dist_test_from_t(t1, nu, n, DistributionalNull(0.0), args.alpha)
    dist = dist_test_from_t(t1, nu, n, null, args.alpha)
    root_n = math.sqrt(n)
    result = {
        "alpha": args.alpha,
        "q": args.q,
        "n": n,
        "nu": nu,
        "t": t1,
        "z": t1 / root_n,
        "point_p_value": point.p_value,
        "point_z_crit": point.t_crit / root_n,
        "point_t_crit": point.t_crit,
        "point_significant": point.significant,
        "dist_p_value": dist.p_value,
        "dist_t_crit": dist.t_crit,
        "dist_z_crit": dist.t_crit / root_n,
        "dist_significant": dist.significant,
        "asymptotic_z_bound": dist.asymptotic_bound_z,
    }
    _emit_result("test", result, args.format)
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .distributional import DistributionalNull, replication_probability
    from .point import power_replication_estimate

    t1, nu, n = _resolve_stats(args)
    null = DistributionalNull(args.q)
    result = {
        "alpha": args.alpha,
        "q": args.q,
        "n": n,
        "nu": nu,
        "t": t1,
        "replication_probability": replication_probability(t1, args.alpha, nu, n, null),
        "power_replication_estimate": power_replication_estimate(t1, args.alpha, nu),
    }
    _emit_result("replicate", result, args.format)
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    import dataclasses

    from .criterion import Criteria, NoSolution, q_interval, rule_of_thumb

    criteria = Criteria(alpha=args.alpha, beta=args.beta)
    outcome = q_interval(args.t, criteria, args.nu, args.n, args.q_ceiling)
    result = {"alpha": args.alpha, "beta": args.beta, "n": args.n, "nu": args.nu, "t": args.t}
    if isinstance(outcome, NoSolution):
        thumb = rule_of_thumb(args.alpha, args.nu)._asdict()
        result.update(status="no_solution", **dataclasses.asdict(outcome))
        result.update({f"thumb_{key}": value for key, value in thumb.items()})
    else:
        result.update(status="ok", **dataclasses.asdict(outcome))
    _emit_result("range", result, args.format)
    return 0


def _site_predicate(spec: str):
    allowed = {s.strip() for s in spec.split(",") if s.strip()}
    if not allowed:
        raise DomainError("--sites lists no site identifiers")
    return lambda site: site in allowed


def _cmd_qest(args: argparse.Namespace) -> int:
    import dataclasses

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
        cells, rows = varratio.qest(dataset, groups)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    # GroupSummary's fields, in order, under the output's column names.
    columns = ["group", "datapoints", "mean_q", "q025", "q975"]
    row_dicts = [dict(zip(columns, dataclasses.astuple(r))) for r in rows]
    # The histogram goes first: it may refuse q, and then nothing is written.
    if args.hist_out:
        varratio.write_histogram_csv([c.q for c in cells], args.hist_out)
    if args.cells_out:
        varratio.write_cells_csv(cells, args.cells_out)
    _emit_rows("qest", columns, row_dicts, args.format)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .distributional import (
        DistributionalNull,
        ExperimentDesign,
        degrees_of_freedom,
        replication_probability,
    )
    from .mc import SimConfig, fpr_vs_n, simulate_fpr, simulate_replication

    design = ExperimentDesign[_DESIGNS[args.design]]
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
        trials=args.trials,
        seed=args.seed,
    )

    def row(n, rep, **columns):
        return {"design": args.design, "n": n, "q_true": cfg.q_true, **columns,
                "trials": rep.trials, "seed": args.seed, "rate": rep.rate, "mc_se": rep.mc_se}

    if args.mode == "replication":
        variant = args.variant.replace("-", "_")
        rep = simulate_replication(args.t, cfg, args.alpha, variant)
        nu = degrees_of_freedom(design, cfg.n)
        formula = replication_probability(
            args.t, args.alpha, nu, cfg.n, DistributionalNull(cfg.q_true)
        )
        columns = dict(alpha=args.alpha, t=args.t, variant=args.variant)
        rows = [{**row(cfg.n, rep, **columns), "p_r_formula": formula}]
    else:
        q_test = args.q_true if args.q_test is None else args.q_test
        if len(n_values) == 1:
            reports = [(cfg.n, simulate_fpr(cfg, args.alpha, q_test, args.two_sided))]
        else:
            reports = fpr_vs_n(cfg, args.alpha, n_values, q_test, args.two_sided)
        columns = dict(q_test=q_test, alpha=args.alpha, two_sided=args.two_sided)
        rows = [row(n, rep, **columns) for n, rep in reports]
    _emit_rows("simulate", list(rows[0]), rows, args.format)
    return 0


def _cmd_thumb(args: argparse.Namespace) -> int:
    from .criterion import THUMB_RATIO, rule_of_thumb

    result = {
        "alpha": args.alpha,
        "nu": args.nu,
        **rule_of_thumb(args.alpha, args.nu)._asdict(),
        "bound_over_quantile": THUMB_RATIO,
    }
    _emit_result("thumb", result, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default=None)
    common.add_argument("--config", default=None, help="INI file with a [defaults] section")

    parser = argparse.ArgumentParser(
        prog="distnull",
        description="Significance and replication testing against distributional nulls.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", parents=[common], help="significance test report")
    _add_stat_inputs(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_rep = sub.add_parser("replicate", parents=[common], help="replication probability")
    _add_stat_inputs(p_rep)
    p_rep.set_defaults(func=_cmd_replicate)

    p_range = sub.add_parser(
        "range", parents=[common], help="q-interval where a result meets both criteria"
    )
    p_range.add_argument("--t", type=float, required=True)
    p_range.add_argument("--nu", type=float, required=True)
    p_range.add_argument("--n", type=int, required=True)
    _add_settings(p_range, "alpha", "beta", "q_ceiling")
    p_range.set_defaults(func=_cmd_range)

    p_qest = sub.add_parser(
        "qest", parents=[common], help="variance-ratio summary from a site,measure,value CSV"
    )
    p_qest.add_argument("--data", required=True, help="input CSV path")
    p_qest.add_argument("--groups", default=None, help="measure-group INI path")
    p_qest.add_argument("--sites", default=None, help="comma-separated site ids to keep")
    p_qest.add_argument("--min-cell-n", dest="min_cell_n", type=int, default=2)
    p_qest.add_argument("--cells-out", dest="cells_out", default=None)
    p_qest.add_argument("--hist-out", dest="hist_out", default=None)
    p_qest.set_defaults(func=_cmd_qest)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte-Carlo calibration runs")
    p_sim.add_argument("--mode", choices=["fpr", "replication"], default="fpr")
    p_sim.add_argument("--design", choices=sorted(_DESIGNS), default="one-sample")
    p_sim.add_argument("--n", required=True, help="sample size, or comma list for fpr sweeps")
    p_sim.add_argument("--q-true", dest="q_true", type=float, required=True)
    p_sim.add_argument("--q-test", dest="q_test", type=float, default=None)
    _add_settings(p_sim, "alpha", "trials", "seed")
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
    _add_settings(p_thumb, "alpha")
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
        t = getattr(args, "t", None)
        if t is not None and not math.isfinite(t):
            raise DomainError(f"--t must be finite, got {t}")
        _resolve_settings(args, _load_config(args.config))
        return args.func(args)
    except (DomainError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
