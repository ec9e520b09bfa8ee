"""Command-line entry point: regenerate any paper artifact, or serve batches.

Usage::

    repro-swaps table1
    repro-swaps table3
    repro-swaps figure3 ... figure9
    repro-swaps solve --pstar 2.0 [--collateral 0.5]
    repro-swaps solve --pstar 2.0 --law merton:jump_intensity=0.05
    repro-swaps sweep --pstars 1.6,2.0,2.4 [--legacy]
    repro-swaps sweep --law regime:sigma_turbulent=0.2
    repro-swaps validate --pstar 2.0 --paths 50000
    repro-swaps backtest --market jumps --law merton
    repro-swaps graph --parties 3 --replay
    repro-swaps graph --parties 2 --packets 4 --step-time 1.0
    repro-swaps graph --spec spec.json --n-lattice 9
    repro-swaps batch requests.jsonl --workers 4 --cache-dir cache
    repro-swaps batch requests.jsonl --metrics-out metrics.prom
    repro-swaps batch requests.jsonl --fault-plan plan.json
    repro-swaps stats requests.jsonl
    repro-swaps serve --port 8100 --workers 4 --queue-depth 32
    repro-swaps serve --port 8100 --replicas 4
    repro-swaps serve --port 8100 --fault-plan plan.json
    repro-swaps warm --out surface.srf --axis pstar:1.2:3.0:65
    repro-swaps serve --port 8100 --surface surface.srf --tolerance 1e-3
    repro-swaps all

(or ``python -m repro.cli ...``).

Every subcommand accepts ``--json``, which wraps its output in one
machine-readable envelope ``{"ok": ..., "result": ..., "error": ...}``
-- the same in-band error style the ``batch`` command uses per line.
Without ``--json``, output is human text (or, for ``batch``, the
historical JSON-lines stream, byte-for-byte unchanged).

``batch`` reads one JSON request per line (``kind`` = ``solve`` or
``validate``; see :mod:`repro.service.requests`) from a file or stdin
(``-``) and emits one JSON result line per request, errors included.
``--metrics-out`` additionally writes the process metrics registry
(cache hits, per-stage latency histograms, pool gauges; see
:mod:`repro.obs`) in Prometheus text format after the run, and
``--log-out`` tees structured JSON-lines trace events to a file.
``stats`` runs an (optional) batch quietly and prints the registry
snapshot itself. The exit status of ``batch`` is 0 iff every line
parsed as JSON.

``serve`` starts the HTTP layer (:mod:`repro.server`) on
``--host``/``--port`` and blocks until SIGTERM/SIGINT, then drains
gracefully; ``--queue-depth`` bounds concurrent admission, and the
batch flags (``--workers``, ``--cache-dir``, ``--cache-entries``,
``--metrics-out``) configure the service behind it. ``--replicas N``
swaps in the sharded topology (:mod:`repro.server.aio`): the same
event-loop front end as a router on the bind port, consistent-hashing
each request's canonical key across N replica subprocesses, so every
shard's cache stays hot for its keyslice.

``graph`` solves a multi-party / packetized swap graph
(:mod:`repro.swapgraph`) as an extensive-form game: ``--parties N``
builds an N-party cycle (``--parties 2`` the paper-shaped two-party
swap), ``--packets K`` splits every leg into K sequential packets, and
``--spec FILE`` loads an arbitrary :class:`SwapGraphSpec` JSON
document instead. ``--replay`` re-runs the solved equilibrium strategy
on simulated chains (:mod:`repro.chain`) and checks the empirical
success rate against the game-theoretic prediction.

``warm`` precomputes an equilibrium surface (:mod:`repro.surface`)
over axes given as repeatable ``--axis name:lo:hi:points`` flags and
writes a checksummed, memory-mapped artifact to ``--out``. Pointing
``batch``, ``serve`` or ``sweep`` at it with ``--surface`` installs
certified interpolation as the first answer tier; tolerance-less
requests stay exact unless ``--tolerance`` grants a default error
budget.

Invalid artifact names and invalid ``--pstar``/``--collateral`` values
exit non-zero with a one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import (
    figure2_timeline,
    figure3_alice_t3,
    figure4_bob_t2,
    figure5_alice_t1,
    figure6_success_rate,
    figure7_bob_t2_collateral,
    figure8_t1_collateral,
    figure9_sr_collateral,
    table1_balance_change,
    table3_default_parameters,
)
from repro.core import SwapParameters

__all__ = ["main"]

# (exit_status, result) -- result is a string for text commands, or an
# already-JSON-safe object for commands with structured output
CommandOutcome = Tuple[int, object]


def _artifact_commands() -> Dict[str, Callable[[], str]]:
    return {
        "table1": lambda: table1_balance_change()[1],
        "table3": lambda: table3_default_parameters()[1],
        "figure2": lambda: figure2_timeline().render(),
        "figure3": lambda: figure3_alice_t3().render(),
        "figure4": lambda: figure4_bob_t2().render(),
        "figure5": lambda: figure5_alice_t1().render(),
        "figure6": lambda: figure6_success_rate().render(),
        "figure7": lambda: figure7_bob_t2_collateral().render(),
        "figure8": lambda: figure8_t1_collateral().render(),
        "figure9": lambda: figure9_sr_collateral().render(),
    }


def _params_with_law(args: argparse.Namespace) -> SwapParameters:
    """Default parameters, with ``--law`` applied when given.

    ``parse_law`` raises ``ValueError`` for unknown kinds or malformed
    ``kind:key=value,...`` tokens, which :func:`main` turns into a
    clean one-line error.
    """
    params = SwapParameters.default()
    law = getattr(args, "law", None)
    if law:
        from repro.stochastic.law import parse_law

        params = params.replace(law=parse_law(law))
    return params


def _cmd_solve(args: argparse.Namespace) -> str:
    from repro.api import solve
    from repro.service.requests import SolveRequest

    params = _params_with_law(args)
    # constructing the request validates pstar/collateral with clean errors
    request = SolveRequest(
        pstar=args.pstar, collateral=args.collateral, params=params
    )
    if request.collateral > 0.0:
        eq = solve(params, request.pstar, collateral=request.collateral)
        region = "; ".join(
            f"({lo:.4f}, {hi:.4f})" for lo, hi in eq.bob_t2_region.intervals
        )
        return (
            f"Collateral game at P* = {eq.pstar}, Q = {eq.collateral}\n"
            f"  Alice reveal threshold : {eq.p3_threshold:.4f}\n"
            f"  Bob continuation region: {region or 'empty'}\n"
            f"  Alice t1 cont/stop     : {eq.alice_t1.cont:.4f} / {eq.alice_t1.stop:.4f}\n"
            f"  Bob   t1 cont/stop     : {eq.bob_t1.cont:.4f} / {eq.bob_t1.stop:.4f}\n"
            f"  engaged                : {eq.engaged}\n"
            f"  success rate (Eq. 40)  : {eq.success_rate:.4f}"
        )
    return solve(params, request.pstar).summary()


def _cmd_sweep(args: argparse.Namespace) -> object:
    """Success-rate curve over a ``P*`` grid, engine-vectorised by default.

    ``--legacy`` answers the same grid with one scalar backward
    induction per point -- the reference path the grid engine is
    property-tested against; the two outputs agree to ~1e-12.
    """
    params = _params_with_law(args)
    if args.pstars is not None:
        try:
            pstars = [float(token) for token in args.pstars.split(",") if token.strip()]
        except ValueError:
            raise ValueError(f"--pstars must be comma-separated numbers, got {args.pstars!r}")
    else:
        if args.points < 1:
            raise ValueError(f"--points must be positive, got {args.points}")
        from repro.core import feasible_pstar_range

        bounds = feasible_pstar_range(params)
        if bounds is None:
            raise ValueError("no feasible P* range under the default parameters")
        lo, hi = bounds
        pstars = [
            lo + (hi - lo) * (i + 0.5) / args.points for i in range(args.points)
        ]
    if not pstars:
        raise ValueError("empty P* grid")

    if args.surface is not None:
        if args.legacy:
            raise ValueError("--surface and --legacy are mutually exclusive")
        from repro.service import SwapService

        with SwapService(surface=args.surface) as service:
            if service.surface is None:
                raise ValueError(f"could not load surface artifact {args.surface}")
            tolerance = args.tolerance
            if tolerance is None:  # pointing at a surface opts in; use its default
                tolerance = service.surface.spec.default_tolerance
            items = service.sweep(
                pstars,
                params=params,
                collateral=args.collateral,
                tolerance=tolerance,
            )
        rates = [float(item.unwrap().success_rate) for item in items]
        return {
            "pstars": pstars,
            "success_rate": rates,
            "collateral": args.collateral,
            "engine": "chain",
            "sources": [item.source for item in items],
            "tolerance": tolerance,
        }

    if args.legacy:
        from repro.core.backward_induction import BackwardInduction
        from repro.core.collateral import CollateralBackwardInduction

        if args.collateral > 0.0:
            rates = [
                CollateralBackwardInduction(params, k, args.collateral).success_rate()
                for k in pstars
            ]
        else:
            rates = [BackwardInduction(params, k).success_rate() for k in pstars]
    else:
        from repro.core.engine import solve_grid

        rates = [
            float(rate)
            for rate in solve_grid(
                params, pstars, collateral=args.collateral
            ).success_rate
        ]
    return {
        "pstars": pstars,
        "success_rate": rates,
        "collateral": args.collateral,
        "engine": "scalar" if args.legacy else "grid",
    }


def _cmd_validate(args: argparse.Namespace) -> str:
    from repro.api import validate as validate_point
    from repro.service.requests import ValidateRequest

    params = _params_with_law(args)
    ValidateRequest(  # validates pstar/collateral/paths with clean errors
        pstar=args.pstar,
        collateral=args.collateral,
        n_paths=args.paths,
        seed=args.seed,
        params=params,
    )
    outcome = validate_point(
        params,
        args.pstar,
        collateral=args.collateral,
        n_paths=args.paths,
        seed=args.seed,
        protocol_level=args.protocol_level,
    )
    empirical, analytic = outcome.empirical, outcome.analytic
    level = "protocol" if args.protocol_level else "strategy"
    verdict = "PASS" if outcome.passed else "MISMATCH"
    return (
        f"Monte Carlo validation ({level} level, {args.paths} paths)\n"
        f"  analytic SR : {analytic:.4f}\n"
        f"  empirical SR: {empirical.success_rate:.4f} "
        f"(95% CI [{empirical.ci_low:.4f}, {empirical.ci_high:.4f}])\n"
        f"  {verdict}: analytic value "
        f"{'inside' if outcome.passed else 'outside'} the CI"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-swaps",
        description="Regenerate artifacts from the HTLC atomic-swap paper.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help='emit one {"ok", "result", "error"} JSON envelope',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in list(_artifact_commands()) + ["all"]:
        sub.add_parser(name, parents=[common], help=f"print {name}")

    solve = sub.add_parser("solve", parents=[common], help="solve one swap game")
    solve.add_argument("--pstar", type=float, default=2.0)
    solve.add_argument("--collateral", type=float, default=0.0)
    _add_law_argument(solve)

    sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="success-rate curve over a P* grid (one vectorised solve)",
    )
    sweep.add_argument(
        "--pstars",
        default=None,
        help="comma-separated P* grid (default: --points over the feasible range)",
    )
    sweep.add_argument(
        "--points",
        type=int,
        default=33,
        help="grid size when --pstars is not given",
    )
    sweep.add_argument("--collateral", type=float, default=0.0)
    sweep.add_argument(
        "--legacy",
        action="store_true",
        help="one scalar backward induction per point (reference path)",
    )
    sweep.add_argument(
        "--surface",
        default=None,
        metavar="PATH",
        help="answer through a precomputed surface artifact (repro-swaps warm)",
    )
    sweep.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="interpolation error budget for --surface (default: the "
        "artifact's); 0 demands exactness",
    )
    _add_law_argument(sweep)

    validate = sub.add_parser(
        "validate", parents=[common], help="Monte Carlo vs analytic SR"
    )
    validate.add_argument("--pstar", type=float, default=2.0)
    validate.add_argument("--paths", type=int, default=50_000)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--collateral", type=float, default=0.0)
    validate.add_argument("--protocol-level", action="store_true")
    _add_law_argument(validate)

    graph = sub.add_parser(
        "graph",
        parents=[common],
        help="solve a multi-party / packetized swap graph",
    )
    graph.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="SwapGraphSpec JSON document (overrides --parties/--pstar)",
    )
    graph.add_argument(
        "--parties",
        type=int,
        default=2,
        help="cycle size when --spec is not given (2 = the paper's "
        "two-party swap)",
    )
    graph.add_argument(
        "--packets",
        type=int,
        default=1,
        help="split every leg into K sequential packets",
    )
    graph.add_argument("--pstar", type=float, default=2.0)
    graph.add_argument(
        "--collateral",
        type=float,
        default=0.0,
        help="per-party collateral posted at initiation",
    )
    graph.add_argument(
        "--step-time",
        type=float,
        default=None,
        help="hours between decision steps (default: the largest "
        "confirmation delay)",
    )
    graph.add_argument(
        "--n-lattice",
        type=int,
        default=None,
        help="price-lattice branching factor (default: auto-sized; "
        "forces lattice mode even for paper-shaped specs)",
    )
    graph.add_argument(
        "--replay",
        action="store_true",
        help="replay the equilibrium on simulated chains",
    )
    graph.add_argument("--replay-paths", type=int, default=400)
    graph.add_argument(
        "--seed", type=int, default=None, help="replay RNG seed"
    )

    backtest = sub.add_parser(
        "backtest",
        parents=[common],
        help="walk-forward backtest on a synthetic market",
    )
    backtest.add_argument(
        "--market", choices=["gbm", "regime", "jumps"], default="gbm"
    )
    backtest.add_argument(
        "--law",
        choices=["lognormal", "merton", "regime"],
        default="lognormal",
        help="price law each rolling window is calibrated to "
        "(lognormal = the paper's GBM estimator)",
    )
    backtest.add_argument("--hours", type=int, default=1200)
    backtest.add_argument("--seed", type=int, default=0)

    market = sub.add_parser(
        "market",
        parents=[common],
        help="heterogeneous-population failure rate vs volatility",
    )
    market.add_argument("--pairs", type=int, default=30)
    market.add_argument("--seed", type=int, default=0)

    uncertainty = sub.add_parser(
        "uncertainty",
        parents=[common],
        help="success rate under belief uncertainty about alpha",
    )
    uncertainty.add_argument("--pstar", type=float, default=2.0)
    uncertainty.add_argument("--spread", type=float, default=0.2)

    experiments = sub.add_parser(
        "experiments",
        parents=[common],
        help="run the full reproduction record (EXPERIMENTS.md)",
    )
    experiments.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )

    export = sub.add_parser(
        "export", parents=[common], help="write per-figure CSV data files"
    )
    export.add_argument("--out", default="results")

    batch = sub.add_parser(
        "batch", parents=[common], help="serve JSON-lines solve/validate requests"
    )
    _add_batch_arguments(batch)

    stats = sub.add_parser(
        "stats",
        parents=[common],
        help="print the metrics-registry snapshot (optionally after a batch)",
    )
    stats.add_argument(
        "input",
        nargs="?",
        default=None,
        help="optional request file to serve first ('-' = stdin)",
    )
    stats.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    stats.add_argument(
        "--cache-dir", default=None, help="directory for the persistent cache"
    )
    stats.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="bound on disk-cache entries (oldest pruned on write)",
    )
    stats.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request seconds budget (needs --workers > 1)",
    )
    stats.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="snapshot rendering (Prometheus text or JSON)",
    )
    _add_surface_arguments(stats)

    serve = sub.add_parser(
        "serve",
        parents=[common],
        help="serve the solver over HTTP until SIGTERM/SIGINT",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8100, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="shard across N replica subprocesses behind a router "
        "(0 = one server answering from its own service)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="max concurrently admitted API requests (excess sheds 429)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=1 << 20,
        help="request-body ceiling (larger uploads get 413)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-request wall-clock budget in seconds (504 past it)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="grace period for in-flight requests at shutdown",
    )
    serve.add_argument(
        "--cache-dir", default=None, help="directory for the persistent cache"
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="bound on disk-cache entries (oldest pruned on write)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-solve pool budget (needs --workers > 1)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="flush the metrics registry (Prometheus text) here on drain",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject faults per this JSON plan (chaos testing; see repro.faults)",
    )
    serve.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        help="sharded tier: actively probe each replica's /readyz every "
        "N seconds, ejecting/readmitting on the hash ring (default: off)",
    )
    serve.add_argument(
        "--probe-failures",
        type=int,
        default=3,
        help="consecutive probe failures before a replica is ejected",
    )
    serve.add_argument(
        "--no-supervise",
        dest="supervise",
        action="store_false",
        help="sharded tier: do not restart replicas that die "
        "(default: the router supervises its own replicas)",
    )
    serve.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        help="supervisor: base restart delay, doubled per consecutive "
        "death up to --restart-backoff-cap, with jitter",
    )
    serve.add_argument(
        "--restart-backoff-cap",
        type=float,
        default=10.0,
        help="supervisor: ceiling on the restart backoff delay",
    )
    serve.add_argument(
        "--flap-limit",
        type=int,
        default=5,
        help="supervisor: deaths within --flap-window before a "
        "crash-looping replica is parked (no more restarts)",
    )
    serve.add_argument(
        "--flap-window",
        type=float,
        default=30.0,
        help="supervisor: sliding window (seconds) for the flap detector",
    )
    serve.add_argument(
        "--admin-token",
        default=None,
        metavar="TOKEN",
        help="enable the router's /admin/v1/* control surface, "
        "authenticated by this bearer token (default: disabled)",
    )
    serve.add_argument(
        "--router-cache",
        type=int,
        default=0,
        help="router-side hot-key response cache capacity (entries; "
        "0 = off, invalidated on every topology change)",
    )
    serve.add_argument(
        "--overload-target",
        type=float,
        default=None,
        help="admission gate: sliding-p95 latency (seconds) above which "
        "load is shed pre-deadline (default: deadline / 2)",
    )
    _add_surface_arguments(serve)

    admin = sub.add_parser(
        "admin",
        parents=[common],
        help="drive a running router's /admin/v1/* control surface",
    )
    admin.add_argument(
        "action",
        choices=("topology", "add", "remove"),
        help="topology: print ring + replica states; add: grow the "
        "fleet by one replica; remove: drain and stop one replica",
    )
    admin.add_argument(
        "name",
        nargs="?",
        default=None,
        help="replica name (required for remove; optional label for "
        "add with --replica-url)",
    )
    admin.add_argument(
        "--url",
        required=True,
        metavar="URL",
        help="the router's base URL, e.g. http://127.0.0.1:8100",
    )
    admin.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help="bearer token (must match the router's --admin-token)",
    )
    admin.add_argument(
        "--replica-url",
        default=None,
        metavar="URL",
        help="add: adopt an externally managed replica at this URL "
        "instead of spawning a supervised subprocess",
    )

    warm = sub.add_parser(
        "warm",
        parents=[common],
        help="precompute an equilibrium surface artifact for --surface",
    )
    warm.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="artifact output path (written atomically)",
    )
    warm.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="NAME:LO:HI:POINTS",
        help="one grid axis (repeatable; a pstar axis is required; "
        "names: pstar, collateral, alpha, r, sigma, tau_a, tau_b, ...)",
    )
    warm.add_argument(
        "--collateral",
        type=float,
        default=0.0,
        help="fixed Q when collateral is not an axis",
    )
    warm.add_argument(
        "--tolerance",
        type=float,
        default=1e-3,
        help="default answer tolerance recorded in the artifact",
    )
    warm.add_argument(
        "--quad-order",
        type=int,
        default=None,
        help="Gauss-Legendre order for the builder's solves",
    )
    warm.add_argument(
        "--scan-points",
        type=int,
        default=512,
        help="threshold-scan resolution for the builder's solves",
    )

    return parser


def _add_law_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--law",
        default=None,
        metavar="KIND[:K=V,...]",
        help="price law for the swap (default lognormal); e.g. "
        "'merton:jump_intensity=0.05,jump_mean=-0.08' or "
        "'regime:sigma_turbulent=0.2'",
    )


def _add_surface_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--surface",
        default=None,
        metavar="PATH",
        help="precomputed surface artifact (repro-swaps warm) as the "
        "first answer tier",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="service-wide interpolation error budget; without it, "
        "tolerance-less requests stay exact",
    )


def _add_batch_arguments(batch: argparse.ArgumentParser) -> None:
    batch.add_argument(
        "input",
        nargs="?",
        default="-",
        help="request file, one JSON object per line ('-' = stdin)",
    )
    batch.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial)"
    )
    batch.add_argument(
        "--cache-dir", default=None, help="directory for the persistent cache"
    )
    batch.add_argument(
        "--cache-entries",
        type=int,
        default=None,
        help="bound on disk-cache entries (oldest pruned on write)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request seconds budget (needs --workers > 1)",
    )
    batch.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry (Prometheus text) here after the run",
    )
    batch.add_argument(
        "--log-out",
        default=None,
        metavar="PATH",
        help="append structured JSON-lines trace events to this file",
    )
    batch.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="inject faults per this JSON plan (chaos testing; see repro.faults)",
    )
    _add_surface_arguments(batch)


def _cmd_graph(args: argparse.Namespace) -> object:
    """Solve (and optionally chain-replay) one swap graph."""
    from repro.api import swap_graph
    from repro.swapgraph import SwapGraphSpec

    if args.spec is not None:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read {args.spec}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.spec} is not valid JSON: {exc}") from None
        spec = SwapGraphSpec.from_dict(document)
    elif args.parties == 2:
        spec = SwapGraphSpec.two_party(
            SwapParameters.default(),
            pstar=args.pstar,
            packets=args.packets,
            collateral=args.collateral,
        )
    else:
        spec = SwapGraphSpec.cycle(
            args.parties,
            packets=args.packets,
            p0=args.pstar,
            collateral=args.collateral,
        )
    if args.step_time is not None:
        spec = spec.replace(step_time=args.step_time)

    result = swap_graph(
        spec,
        n_lattice=args.n_lattice,
        replay=args.replay,
        replay_paths=args.replay_paths,
        seed=args.seed,
    )
    if args.json:
        return result.to_dict()
    eq = result.equilibrium
    lines = [
        f"Swap graph: {len(spec.parties)} parties, {len(spec.edges)} edges, "
        f"{spec.packets} packet(s)",
        f"  solver mode   : {eq.mode}"
        + (f" ({eq.node_count} nodes, m={eq.n_lattice})" if eq.node_count else ""),
        f"  initiated     : {eq.initiated}",
        f"  success rate  : {eq.success_rate:.4f} (conditional on initiation)",
    ]
    for name in sorted(eq.utilities):
        lines.append(f"  utility {name:<6}: {eq.utilities[name]:.4f}")
    if result.replay is not None:
        replay = result.replay
        verdict = "PASS" if replay.passed else "MISMATCH"
        lines.append(
            f"  chain replay  : {verdict} -- empirical "
            f"{replay.empirical_rate:.4f} vs predicted "
            f"{replay.predicted_rate:.4f} over {replay.n_paths} paths "
            f"({replay.mechanical_failures} mechanical failures)"
        )
    return "\n".join(lines)


def _cmd_backtest(args: argparse.Namespace) -> str:
    from repro.marketdata import (
        JumpDiffusionGenerator,
        PlainGBMGenerator,
        RegimeSwitchingGenerator,
        SwapBacktester,
    )
    from repro.stochastic.rng import RandomState

    rng = RandomState(args.seed)
    if args.market == "gbm":
        series = PlainGBMGenerator(mu=0.002, sigma=0.08).generate(
            2.0, args.hours, rng
        )
    elif args.market == "regime":
        series, _regimes = RegimeSwitchingGenerator().generate(2.0, args.hours, rng)
    else:
        series = JumpDiffusionGenerator().generate(2.0, args.hours, rng)
    report = SwapBacktester(
        SwapParameters.default(), window=168, step=24, law_kind=args.law
    ).run(series)
    return (
        f"backtest on {args.market} market ({args.law} calibration):\n"
        f"{report.describe()}"
    )


def _cmd_market(args: argparse.Namespace) -> str:
    from repro.simulation.population import PopulationSpec, volatility_failure_curve

    curve = volatility_failure_curve(
        SwapParameters.default(),
        PopulationSpec(),
        sigmas=(0.03, 0.06, 0.1, 0.15),
        n_pairs=args.pairs,
        seed=args.seed,
    )
    lines = ["sigma  participation  failure"]
    for outcome in curve:
        lines.append(
            f"{outcome.sigma:5.2f}  {outcome.participation_rate:13.1%}  "
            f"{outcome.failure_rate:7.1%}"
        )
    return "\n".join(lines)


def _cmd_uncertainty(args: argparse.Namespace) -> str:
    from repro.core.bayesian import BayesianSwapGame, TypeDistribution
    from repro.core.backward_induction import BackwardInduction

    params = SwapParameters.default()
    complete = BackwardInduction(params, args.pstar).success_rate()
    centre = params.alice.alpha
    if args.spread <= 0.0:
        belief = TypeDistribution.point(centre)
    else:
        belief = TypeDistribution.uniform(
            [max(centre - args.spread, 0.0), centre, centre + args.spread]
        )
    game = BayesianSwapGame(params, args.pstar, belief, belief)
    return (
        f"complete-information SR : {complete:.4f}\n"
        f"realised SR (belief +/- {args.spread:g}) : "
        f"{game.realised_success_rate():.4f}\n"
        f"ex-ante SR              : {game.ex_ante_success_rate():.4f}\n"
        f"Alice initiates         : {game.alice_initiates()}"
    )


def _read_request_lines(source: str) -> List[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror}") from exc


def _serve_batch(
    lines: List[str],
    workers: int,
    cache_dir: Optional[str],
    timeout: Optional[float],
    cache_entries: Optional[int] = None,
    fault_plan: Optional[str] = None,
    surface: Optional[str] = None,
    tolerance: Optional[float] = None,
) -> Tuple[bool, List[dict]]:
    """Parse and execute a JSON-lines batch.

    Thin wrapper over :func:`repro.service.jsonl.serve_lines` (the same
    wire logic ``POST /v1/batch`` speaks) that constructs a one-shot
    service from the CLI flags. ``fault_plan`` (a JSON file path)
    activates deterministic fault injection; a malformed plan raises
    ``ValueError`` -> clean exit 2 in :func:`main`. ``surface``
    installs a precomputed artifact as the first answer tier.
    """
    from repro.service import SwapService, serve_lines

    with SwapService(
        max_workers=workers,
        cache_dir=cache_dir,
        cache_entries=cache_entries,
        timeout=timeout,
        faults=fault_plan,
        surface=surface,
        tolerance=tolerance,
    ) as service:
        return serve_lines(service, lines)


def _cmd_batch(args: argparse.Namespace) -> CommandOutcome:
    """Serve a JSON-lines request stream; one result record per request.

    Exit status 0 iff every non-blank input line parsed as JSON.
    Semantically invalid requests (bad field values, unknown kinds) and
    solver failures still produce a structured error record but do not
    fail the run -- they are results, not stream corruption.
    """
    log_handle = None
    if args.log_out is not None:
        from repro.obs.logging import JsonLinesLogger, set_logger

        log_handle = open(args.log_out, "a", encoding="utf-8")
        previous_logger = set_logger(JsonLinesLogger(log_handle))
    try:
        lines = _read_request_lines(args.input)
        all_parsed, records = _serve_batch(
            lines,
            args.workers,
            args.cache_dir,
            args.timeout,
            cache_entries=args.cache_entries,
            fault_plan=args.fault_plan,
            surface=args.surface,
            tolerance=args.tolerance,
        )
    finally:
        if log_handle is not None:
            from repro.obs.logging import set_logger

            set_logger(previous_logger)
            log_handle.close()

    if args.metrics_out is not None:
        from repro.obs import write_metrics

        write_metrics(args.metrics_out)
    return (0 if all_parsed else 1), records


def _cmd_stats(args: argparse.Namespace) -> CommandOutcome:
    """Print the metrics-registry snapshot, optionally after a batch."""
    from repro.obs import get_registry, to_prometheus_text

    if args.input is not None:
        lines = _read_request_lines(args.input)
        _serve_batch(
            lines,
            args.workers,
            args.cache_dir,
            args.timeout,
            cache_entries=args.cache_entries,
            surface=args.surface,
            tolerance=args.tolerance,
        )
    if args.format == "json" or args.json:
        return 0, get_registry().snapshot()
    return 0, to_prometheus_text(get_registry())


def _cmd_serve(args: argparse.Namespace) -> CommandOutcome:
    """Run the HTTP server until SIGTERM/SIGINT, then drain."""
    from repro.server import ServerConfig, serve

    # ServerConfig validation raises ValueError -> clean exit 2 in main()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_body_bytes=args.max_body_bytes,
        deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        cache_dir=args.cache_dir,
        cache_entries=args.cache_entries,
        timeout=args.timeout,
        metrics_out=args.metrics_out,
        fault_plan=args.fault_plan,
        surface=args.surface,
        tolerance=args.tolerance,
        replicas=args.replicas,
        probe_interval=args.probe_interval,
        probe_failures=args.probe_failures,
        supervise=args.supervise,
        restart_backoff=args.restart_backoff,
        restart_backoff_cap=args.restart_backoff_cap,
        flap_limit=args.flap_limit,
        flap_window=args.flap_window,
        admin_token=args.admin_token,
        router_cache=args.router_cache,
        overload_target=args.overload_target,
    )
    status = serve(config)
    return status, {"ok": status == 0, "drained": status == 0}


def _cmd_admin(args: argparse.Namespace) -> CommandOutcome:
    """Drive a running router's admin surface over HTTP."""
    from repro.server.client import ServerReplyError, SwapClient

    client = SwapClient(args.url, admin_token=args.token)
    try:
        if args.action == "topology":
            return 0, client.admin_topology()
        if args.action == "add":
            return 0, client.admin_add(url=args.replica_url, name=args.name)
        if args.name is None:
            raise ValueError("admin remove needs a replica name")
        return 0, client.admin_remove(args.name)
    except ServerReplyError as exc:
        # the router's typed envelope, surfaced as a clean CLI error
        raise ValueError(str(exc)) from None


def _cmd_warm(args: argparse.Namespace) -> object:
    """Precompute a surface artifact from ``--axis`` specs.

    Exact solves fill the grid; midpoint probes certify a per-cell
    interpolation error bound. The resulting file is self-describing
    (axes, parameters, checksum) and memory-mapped at load time.
    """
    from repro.surface import AxisSpec, SurfaceSpec, warm_surface

    if not args.axis:
        raise ValueError("at least one --axis name:lo:hi:points is required")
    axes = tuple(AxisSpec.parse(token) for token in args.axis)
    spec = SurfaceSpec(
        axes=axes,
        params=SwapParameters.default(),
        collateral=args.collateral,
        default_tolerance=args.tolerance,
    )
    kwargs = {"scan_points": args.scan_points}
    if args.quad_order is not None:
        kwargs["quad_order"] = args.quad_order
    surface = warm_surface(spec, args.out, **kwargs)
    return surface.info()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns the exit status, never raises for
    invalid values)."""
    from repro.service.errors import ServiceError, ServiceErrorInfo

    args = build_parser().parse_args(argv)
    json_mode = getattr(args, "json", False)
    try:
        status, result = _dispatch(args)
    except ValueError as exc:
        info = ServiceErrorInfo(code="invalid_value", message=str(exc))
        _emit_failure(info, json_mode)
        return 2
    except ServiceError as exc:
        _emit_failure(ServiceErrorInfo.from_exception(exc), json_mode)
        return 2
    _emit_success(args, status, result, json_mode)
    return status


def _emit_failure(info, json_mode: bool) -> None:
    if json_mode:
        envelope = {"ok": False, "result": None, "error": info.to_dict()}
        print(json.dumps(envelope, separators=(",", ":")))
    else:
        print(f"error: {info.message}", file=sys.stderr)


def _emit_success(args, status: int, result, json_mode: bool) -> None:
    if json_mode:
        envelope = {"ok": status == 0, "result": result, "error": None}
        print(json.dumps(envelope, separators=(",", ":")))
    elif args.command == "batch":
        # the historical JSON-lines stream: one record per request line
        for record in result:
            print(json.dumps(record, separators=(",", ":")))
    elif isinstance(result, str):
        print(result)
    else:
        print(json.dumps(result, indent=2, sort_keys=True))


def _dispatch(args: argparse.Namespace) -> CommandOutcome:
    artifacts = _artifact_commands()
    if args.command in artifacts:
        return 0, artifacts[args.command]()
    if args.command == "all":
        sections = []
        for name, producer in artifacts.items():
            sections.append(f"\n===== {name} =====\n{producer()}")
        return 0, "\n".join(sections)
    if args.command == "solve":
        return 0, _cmd_solve(args)
    if args.command == "sweep":
        return 0, _cmd_sweep(args)
    if args.command == "validate":
        return 0, _cmd_validate(args)
    if args.command == "graph":
        return 0, _cmd_graph(args)
    if args.command == "backtest":
        return 0, _cmd_backtest(args)
    if args.command == "market":
        return 0, _cmd_market(args)
    if args.command == "uncertainty":
        return 0, _cmd_uncertainty(args)
    if args.command == "experiments":
        from repro.analysis.experiments import render_markdown, run_all_experiments
        from repro.service import SwapService

        with SwapService(max_workers=args.workers) as service:
            results = run_all_experiments(service=service)
        text = render_markdown(results)
        text += f"\n\n{sum(r.holds for r in results)}/{len(results)} claims hold"
        return 0, text
    if args.command == "export":
        from pathlib import Path

        from repro.analysis.export import export_all_figures

        written = export_all_figures(Path(args.out))
        return 0, "\n".join(f"wrote {path}" for path in written.values())
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "admin":
        return _cmd_admin(args)
    if args.command == "warm":
        return 0, _cmd_warm(args)
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
