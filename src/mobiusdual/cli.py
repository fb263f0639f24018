"""Command-line front end.

Commands: check, dual, sep, eig, cube, avail, sweep, simulate.  Inputs are
spec files (see :mod:`mobiusdual.specfile`); outputs are plot-ready
delimiter-separated tables under ``# key: value`` header lines that name the
model, parameters, tolerances and the dual's construction facts.  Exit codes: 0 success, 1 input/schema error, 2 structural
precondition failure, 3 numerical failure; every failure writes a
machine-readable JSON error block to stderr.

The environment variable MOBIUSDUAL_OUTPUT_DIR, when set, prefixes relative
--output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import convergence, duality, monotonicity
from .availability import DEFAULT_MULTIPLIER, availability_pipeline
from .chain import ROW_TOL, Chain, reverse, stationary
from .cube import (
    CubeWalkParams,
    axis_transformed_walk,
    nearest_neighbor_walk,
)
from .errors import (
    InexactSum,
    InputError,
    MobiusDualError,
    PreconditionError,
    PreconditionFailed,
    UpSetExplosion,
    exit_code,
)
from .specfile import (
    dual_header,
    fmt,
    label_str,
    load_model,
    nu_vector,
    parse_sweep,
    serialize_dual,
)

NOTION_COLUMNS = ("notion", "verdict", "worst_value", "witness", "tolerance")
CURVE_COLUMNS = ("n", "s", "tail", "formula", "empirical", "band_lo", "band_hi")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they exit 1 with a JSON block; the
    subcommand parsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# Every optional flag in help order; COMMANDS names those each command reads.
FLAGS = {
    "--direction": dict(choices=("down", "up"), default="down"),
    "--horizon": dict(type=int, default=200),
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=int, default=10000),
    "--tolerance-row": dict(type=float, default=ROW_TOL),
    "--tolerance-mono": dict(type=float, default=monotonicity.MONO_TOL),
    "--exact": dict(action="store_true",
                    help="re-run near-boundary verdicts in exact arithmetic"),
    "--multiplier": dict(type=float, default=DEFAULT_MULTIPLIER,
                         help="uniformization multiplier"),
    "--stop-below": dict(type=float, default=None,
                         help="truncate curves once s(n) falls below this "
                              "(default: avail at "
                              f"{convergence.STOP_BELOW_DEFAULT:g}, "
                              "sep and cube never)"),
}


def build_parser():
    """Each subcommand takes --input, --output and only the flags it reads,
    spelled in full, so any other flag is a usage error (a prefix could
    stand for a flag another command reads)."""
    parser = _Parser(
        prog="mobiusdual",
        description=(
            "Mobius-monotonicity analysis and strong stationary duals for "
            "ergodic chains on finite posets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, handler, flags in COMMANDS:
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="model spec file")
        p.add_argument("--output", help="output path (default: stdout)")
        for flag, kwargs in FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **kwargs)
    return parser


def _out_path(args):
    if args.output is None:
        return None
    path = args.output
    base = os.environ.get("MOBIUSDUAL_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _emit(args, text):
    path = _out_path(args)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _error_block(exc):
    """The JSON error block, with the set fields the error's class declares
    and its pipeline stage; a tuple is a list of label strings."""
    block = {
        "error": type(exc).__name__,
        "exit": exit_code(exc),
        "detail": str(exc),
    }
    for name in (*exc.fields, "stage"):
        value = getattr(exc, name, None)
        if name == "report" and value is not None:
            block.update(notion=value.notion, worst_value=fmt(value.worst_value))
        elif value is not None:
            block[name] = [label_str(e) for e in value] if isinstance(value, tuple) else value
    return json.dumps(block, sort_keys=True)


def _witness_str(witness):
    if witness is None:
        return "-"
    if isinstance(witness, tuple) and all(b in (0, 1) for b in witness):
        return label_str(witness)          # a single cube state
    if isinstance(witness, tuple) and len(witness) == 3 and isinstance(
        witness[2], tuple
    ):
        x, y, upset = witness
        inner = ",".join(label_str(e) for e in upset)
        return f"{label_str(x)}<={label_str(y)}:{{{inner}}}"
    if isinstance(witness, tuple):
        return ",".join(label_str(w) for w in witness)
    return label_str(witness)


def _resolve_chain(loaded, args, need_nu, need_law=True):
    """Turn a loaded model into (chain, law); a [cube] walk's chain carries
    the operator of its rates as ``chain.flips``.

    The law is the stationary law, solved once when ``nu: stationary`` or
    ``need_law`` needs it, else None.
    """
    law = None
    if loaded.kind == "cube":
        chain = nearest_neighbor_walk(loaded.cube, row_tol=args.tolerance_row)
        token = loaded.nu_token
        nu = None
        if loaded.exact_nu is not None:
            nu = np.array([float(v) for v in loaded.exact_nu])
        elif token in ("delta_min", "delta_max", "uniform"):
            nu = nu_vector(token, chain.poset)
        elif token == "stationary":
            law = stationary(chain)
            nu = law.pi
        elif need_nu:
            nu = nu_vector("delta_min", chain.poset)
        if nu is not None:
            chain = chain.with_nu(nu, row_tol=args.tolerance_row)
    elif loaded.kind == "chain":
        chain = loaded.chain
        if loaded.nu_token == "stationary":
            law = stationary(chain)
            chain = chain.with_nu(law.pi, row_tol=args.tolerance_row)
        if args.exact:
            _check_exact_sums(loaded)
        elif chain.exact is not None:
            chain = Chain(poset=chain.poset, P=chain.P, nu=chain.nu)
        if need_nu and chain.nu is None:
            raise InputError("this command needs an initial law: add a nu line")
    else:
        raise InputError(f"command {args.command!r} needs a chain or cube spec")
    if need_law and law is None:
        law = stationary(chain)
    return chain, law


def _check_exact_sums(loaded):
    """Raise InexactSum at the first row (in file order), then nu, of a
    [chain] whose exact entries do not sum to exactly 1: decimal rows that
    sum to 1 only within float rounding would make exact reruns decide on a
    kernel that is not stochastic."""
    named = [(label, loaded.chain.exact[loaded.poset.index(label)])
             for label in loaded.states_order]
    if loaded.exact_nu is not None:
        named.append(("nu", loaded.exact_nu))
    for name, values in named:
        total = sum(values)
        if total != 1:
            raise InexactSum(
                f"--exact needs entries that sum to exactly 1: {name} sums to {total}",
                row=name,
                exact_sum=str(total),
            )


def _table(header_lines, columns, rows):
    lines = [f"# {h}" for h in header_lines]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def _curve_table(header, horizon, **cols):
    """The CURVE_COLUMNS table for n = 0..horizon; a column that is not
    given, or ends before n, reads nan."""
    rows = []
    for n in range(horizon + 1):
        row = [str(n)]
        for name in CURVE_COLUMNS[1:]:
            v = cols.get(name)
            row.append(fmt(v[n]) if v is not None and n < len(v) else "nan")
        rows.append(row)
    return _table(header, CURVE_COLUMNS, rows)


def _model_line(loaded):
    if loaded is None:
        return None
    if loaded.kind == "cube":
        params = loaded.cube
        return (
            f"model: cube d={params.d} "
            "alpha=" + ",".join(fmt(a) for a in params.alpha) + " "
            "beta=" + ",".join(fmt(b) for b in params.beta)
        )
    if loaded.kind == "chain":
        return f"model: chain M={loaded.chain.size}"
    return f"model: rates d={loaded.rates.d}"


def _exact_notes(args, loaded, chain=None, law=None):
    """The header note of an --exact run that decides in floats: on a kernel
    generated from rates ([cube], [rates], or sweep points when ``loaded``
    is None), which has no exact entries to rerun on, or, given the chain
    and law of a dual, on a [chain] whose time reversal has none (see
    ``reverse``) for the dual's reversed-kernel precondition; else []."""
    if not args.exact:
        return []
    if loaded is None or loaded.kind in ("cube", "rates"):
        return ["exact: not available for generated kernels; float verdicts"]
    if law is not None and reverse(chain, law).exact is None:
        return ["exact: not available for the computed time reversal; "
                "float verdict on the reversed kernel"]
    return []


def _law_lines(law):
    """The stationary law's residual and the path that solved it."""
    return [f"stationary_residual: {fmt(law.residual)}",
            f"stationary_path: {law.path}"]


def _mono_header(args, extra=(), loaded=None, tolerances=True, dual_of=()):
    """The header of every command but ``dual``, one ``key: value`` fact per
    line: the command, input, model, the tolerance flags the command reads,
    the exact notes, then ``extra`` (the command's own facts, the law's, the
    dual's, and the horizon of a curve).  ``tolerances=False`` leaves out
    the tolerance line of a result that reads neither tolerance, and
    ``dual_of`` holds the chain and law of the dual a result is read from."""
    lines = [f"mobiusdual {args.command}", f"input: {args.input}"]
    model = _model_line(loaded)
    if model is not None:
        lines.append(model)
    if tolerances:
        lines.append("tolerances: " + " ".join(
            f"{k}={fmt(getattr(args, 'tolerance_' + k))}"
            for k in ("row", "mono") if "tolerance_" + k in args))
    lines += _exact_notes(args, loaded, *dual_of)
    lines.extend(extra)
    return tuple(lines)


def _skipped(reasons):
    """The one header line naming what a run went on without, and why."""
    return [f"skipped: {'; '.join(reasons)}"] if reasons else []


def _all_notion_rows(chain, args):
    """Mobius down/up, weak down/up and strong table rows, as the library
    reports them, with the reasons of skipped rows.

    A strong verdict past the up-set cap is a ``skipped`` row and a reason,
    so the other rows are still reported.
    """
    tol, p = args.tolerance_mono, chain.poset
    rows, skipped = _report_rows([
        monotonicity.mobius_monotone_down(chain, p, tol),
        monotonicity.mobius_monotone_up(chain, p, tol),
        monotonicity.weak_monotone(chain, p, "down", tol),
        monotonicity.weak_monotone(chain, p, "up", tol),
    ]), []
    try:
        rows += _report_rows([monotonicity.strong_stochastic_monotone(chain, tol=tol)])
    except UpSetExplosion as exc:
        rows.append(["strong_stochastic", "skipped", fmt(float("nan")), "-", fmt(tol)])
        skipped.append(f"strong_stochastic ({type(exc).__name__}: {exc})")
    return rows, skipped


def _report_rows(reports):
    return [
        [
            r.notion,
            "true" if r.verdict else "false",
            fmt(r.worst_value),
            _witness_str(r.witness),
            fmt(r.tolerance_used),
        ]
        for r in reports
    ]


def cmd_check(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    chain, _ = _resolve_chain(loaded, args, need_nu=False, need_law=False)
    rows, skipped = _all_notion_rows(chain, args)
    header = _mono_header(args, extra=_skipped(skipped), loaded=loaded)
    _emit(args, _table(header, NOTION_COLUMNS, rows))
    return 0


def _ssd(chain, law, args):
    """The dual in ``--direction``, preconditions decided at ``--tolerance-mono``."""
    return duality.build_ssd(
        chain, law, chain.poset, args.direction, mono_tol=args.tolerance_mono
    )


def cmd_dual(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    chain, law = _resolve_chain(loaded, args, need_nu=True)
    dual = _ssd(chain, law, args)
    notes = "".join(f"# {h}\n" for h in _exact_notes(args, loaded, chain, law))
    _emit(args, notes + serialize_dual(dual, chain.poset))
    return 0


def _optional_ssd(chain, law, args, skipped):
    """The dual as ``_ssd`` builds it and its header lines, or, when a
    precondition fails, None and no lines: the reason goes on ``skipped``
    and the run goes on without a dual."""
    try:
        dual = _ssd(chain, law, args)
    except PreconditionError as exc:
        skipped.append(f"dual ({type(exc).__name__}: {exc})")
        return None, ()
    return dual, dual_header(dual, chain.poset)


def _sep_columns(chain, law, dual, args, params):
    """The horizon and the curve columns: the separation curve, the dual's
    absorption tail when there is a dual, and the closed form, which only an
    admissible [cube] walk (its rates ``params``, else None) started from
    all-zeros has."""
    curve = convergence.separation_curve(
        chain, law, args.horizon, stop_below=args.stop_below
    )
    horizon = curve.horizon
    cols = {"s": curve.values}
    if dual is not None:
        cols["tail"] = convergence.absorption_tail(dual, horizon).tail
    if params is not None and chain.nu[0] == 1.0 and params.admissible:
        cols["formula"] = convergence.cube_separation_formula(
            params.alpha, params.beta, np.arange(horizon + 1)
        )
    return horizon, cols


def cmd_sep(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    chain, law = _resolve_chain(loaded, args, need_nu=True)
    skipped = []
    dual, dual_lines = _optional_ssd(chain, law, args, skipped)
    horizon, cols = _sep_columns(chain, law, dual, args, loaded.cube)
    header = _mono_header(
        args, extra=(*_law_lines(law), *dual_lines, *_skipped(skipped),
                     f"horizon: {horizon}"),
        loaded=loaded, dual_of=(chain, law),
    )
    _emit(args, _curve_table(header, horizon, **cols))
    return 0


def cmd_eig(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    if loaded.kind == "cube":
        params = loaded.cube
        values = convergence.cube_eigenvalues(params.alpha, params.beta)
        facts, dual_of = ("source: cube_closed_form",), ()
    else:
        chain, law = _resolve_chain(loaded, args, need_nu=False)
        if chain.nu is None:
            chain = chain.with_nu(law.pi)
        dual = _ssd(chain, law, args)
        rows, cols = np.nonzero(np.abs(dual.P_star) > args.tolerance_mono)
        if convergence.move_order(rows, cols) is None:
            raise PreconditionFailed(
                "dual is not triangular; eigenvalue read-off unavailable"
            )
        values = np.sort(np.diag(dual.P_star))[::-1]
        facts = ("source: dual_diagonal", *_law_lines(law),
                 *dual_header(dual, chain.poset))
        dual_of = (chain, law)
    header = _mono_header(args, extra=facts, loaded=loaded,
                          tolerances=loaded.kind != "cube", dual_of=dual_of)
    lines = [f"# {h}" for h in header] + [fmt(v) for v in values]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_cube(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    if loaded.kind != "cube":
        raise InputError("the cube command needs a [cube] generator spec")
    chain, law = _resolve_chain(loaded, args, need_nu=True)
    params = loaded.cube
    rows, skipped = _all_notion_rows(chain, args)
    dual, dual_lines = _optional_ssd(chain, law, args, skipped)
    eigenvalues = convergence.cube_eigenvalues(params.alpha, params.beta)
    facts = [
        f"admissible: {str(params.admissible).lower()}",
        "eigenvalues: " + " ".join(fmt(v) for v in eigenvalues),
        *_law_lines(law),
        *dual_lines,
        *_skipped(skipped),
    ]
    curve = ""
    if dual is not None:
        horizon, cols = _sep_columns(chain, law, dual, args, params)
        facts.append(f"horizon: {horizon}")
        curve = "\n" + _curve_table((), horizon, **cols)
    header = _mono_header(args, extra=facts, loaded=loaded)
    _emit(args, _table(header, NOTION_COLUMNS, rows) + curve)
    return 0


def cmd_avail(args):
    loaded = load_model(args.input)
    if loaded.kind != "rates":
        raise InputError("the avail command needs a [rates] spec")
    report = availability_pipeline(
        loaded.rates,
        multiplier=args.multiplier,
        direction=args.direction,
        horizon=args.horizon,
        stop_below=args.stop_below
        if args.stop_below is not None
        else convergence.STOP_BELOW_DEFAULT,
        single_moves_only=loaded.rates_single_moves,
        mono_tol=args.tolerance_mono,
    )
    rows = _report_rows(report.reports)
    for row in rows[2:]:
        row[0] = "reversed_" + row[0]
    facts = [
        f"uniformization_rate: {fmt(report.rate)}",
        f"multiplier: {fmt(args.multiplier)}",
        "stationary: " + " ".join(fmt(v) for v in report.law.pi),
        *_law_lines(report.law),
    ]
    curve = ""
    if report.stopped_at is not None:
        facts.append(f"pipeline stopped at: {report.stopped_at}")
    else:
        horizon = report.curve.horizon
        facts += [
            *dual_header(report.dual, report.chain.poset),
            f"mean_absorption: {fmt(report.tail.mean)}",
            f"sst_bound_ok: {str(report.bound.ok).lower()}",
            f"horizon: {horizon}",
        ]
        curve = "\n" + _curve_table((), horizon, s=report.curve.values,
                                     tail=report.tail.tail)
    header = _mono_header(args, extra=facts, loaded=loaded)
    _emit(args, _table(header, NOTION_COLUMNS, rows) + curve)
    return 0


def cmd_sweep(args):
    d, alphas, betas, kappas = parse_sweep(args.input)
    rows = []
    for a in alphas:
        for b in betas:
            for k in kappas:
                rows.append(_sweep_point(d, float(a), float(b), float(k), args))
    text = _table(
        _mono_header(args, extra=(f"d: {d}",)),
        ("alpha", "beta", "kappa", "status", "mobius_down_reversed",
         "worst_value", "dual_ok"),
        rows,
    )
    _emit(args, text)
    return 0


def _sweep_point(d, a, b, k, args):
    out = [fmt(a), fmt(b), fmt(k)]
    try:
        params = CubeWalkParams(d=d, alpha=(a,) * d, beta=(b,) * d)
        if k > 0:
            chain = axis_transformed_walk(params, k, row_tol=args.tolerance_row)
        else:
            chain = nearest_neighbor_walk(params, row_tol=args.tolerance_row)
        chain = chain.with_nu(nu_vector("delta_min", chain.poset),
                              row_tol=args.tolerance_row)
        law = stationary(chain)
        try:
            rep = duality.build_ssd(
                chain, law, chain.poset, "down", mono_tol=args.tolerance_mono
            ).reversed_report
            dual_ok = "true"
        except PreconditionFailed as exc:
            # g = nu/pi passes from delta_min, so the failing report is the
            # reversal's
            rep, dual_ok = exc.report, "false"
        out += ["ok", "true" if rep.verdict else "false",
                fmt(rep.worst_value), dual_ok]
    except MobiusDualError as exc:
        out += [type(exc).__name__, "-", "nan", "false"]
    return out


def cmd_simulate(args):
    loaded = load_model(args.input, row_tol=args.tolerance_row)
    chain, law = _resolve_chain(loaded, args, need_nu=True)
    dual = _ssd(chain, law, args)
    result = convergence.simulate_absorption(
        dual, args.samples, args.seed, horizon=args.horizon
    )
    analytic = convergence.absorption_tail(dual, args.horizon)
    header = _mono_header(
        args,
        extra=(
            f"samples: {args.samples}",
            f"seed: {args.seed}",
            f"confidence: {fmt(result.confidence)}",
            f"sampler: {result.sampler}",
            *_law_lines(law),
            *dual_header(dual, chain.poset),
            f"horizon: {args.horizon}",
        ),
        loaded=loaded, dual_of=(chain, law),
    )
    _emit(args, _curve_table(
        header, args.horizon, tail=analytic.tail, empirical=result.tail,
        band_lo=result.lower, band_hi=result.upper,
    ))
    return 0


_VERDICTS = ("--tolerance-row", "--tolerance-mono", "--exact")
_CURVES = ("--direction", "--horizon", "--stop-below")

# (name, help, handler, the flags besides --input and --output it reads)
COMMANDS = (
    ("check", "decide all monotonicity notions for a kernel", cmd_check,
     _VERDICTS),
    ("dual", "construct and serialize the strong stationary dual", cmd_dual,
     ("--direction", *_VERDICTS)),
    ("sep", "separation-distance curve (plus dual tail when available)",
     cmd_sep, (*_CURVES, *_VERDICTS)),
    ("eig", "eigenvalues via the cube closed form or the dual diagonal",
     cmd_eig, ("--direction", *_VERDICTS)),
    ("cube", "generate a cube walk and run the full analysis", cmd_cube,
     (*_CURVES, *_VERDICTS)),
    ("avail", "availability pipeline from breakdown/repair rates", cmd_avail,
     (*_CURVES, "--multiplier", "--tolerance-mono", "--exact")),
    ("sweep", "map admissibility over an (alpha, beta, kappa) grid", cmd_sweep,
     _VERDICTS),
    ("simulate", "Monte Carlo absorption-time tail of the dual", cmd_simulate,
     ("--direction", "--horizon", "--seed", "--samples", *_VERDICTS)),
)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # counts from the command line are refused before any model is loaded
        if "horizon" in args:
            convergence.check_horizon(args.horizon)
        if "samples" in args:
            convergence.check_samples(args.samples)
        return args.handler(args)
    except MobiusDualError as exc:
        sys.stderr.write(_error_block(exc) + "\n")
        return exit_code(exc)
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": "IOError", "exit": 1, "detail": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
