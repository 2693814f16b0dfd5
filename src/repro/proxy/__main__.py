"""Command-line demo of the asyncio Gage deployment.

Usage::

    python -m repro.proxy [--duration 5] [--backends 2] \
        [--subscriber gold.example.com:120:60] \
        [--subscriber flood.example.com:25:150]

Each ``--subscriber`` is ``host:reservation_grps:offered_rps``.  Starts
the back ends and proxy on localhost, drives the offered load, prints a
per-subscriber report, and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, Tuple

from repro.proxy.demo import run_demo


def parse_subscriber(raw: str) -> Tuple[str, float, float]:
    """Parse one host:reservation:rate triple."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "expected host:reservation_grps:offered_rps, got {!r}".format(raw)
        )
    return parts[0], float(parts[1]), float(parts[2])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.proxy",
        description="Run the Gage asyncio proxy demo on localhost.",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of offered load (default: 4)")
    parser.add_argument("--backends", type=int, default=2,
                        help="number of back-end servers (default: 2)")
    parser.add_argument("--time-scale", type=float, default=0.25,
                        help="shrink modeled back-end service times (default: 0.25)")
    parser.add_argument(
        "--subscriber",
        action="append",
        type=parse_subscriber,
        metavar="HOST:GRPS:RPS",
        help="host:reservation_grps:offered_rps (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    subscribers = args.subscriber or [
        ("gold.example.com", 120.0, 60.0),
        ("flood.example.com", 25.0, 150.0),
    ]
    reservations: Dict[str, float] = {host: grps for host, grps, _ in subscribers}
    rates: Dict[str, float] = {host: rate for host, _, rate in subscribers}

    result = asyncio.run(
        run_demo(
            reservations=reservations,
            rates=rates,
            duration_s=args.duration,
            num_backends=args.backends,
            time_scale=args.time_scale,
        )
    )
    print("{:<24} {:>11} {:>9} {:>9} {:>10}".format(
        "subscriber", "reservation", "completed", "refused", "mean lat"))
    for host, grps in reservations.items():
        print("{:<24} {:>11.0f} {:>9} {:>9} {:>8.1f}ms".format(
            host,
            grps,
            result.completed.get(host, 0),
            result.refused.get(host, 0) + result.errors.get(host, 0),
            1000 * result.mean_latency_s(host),
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
