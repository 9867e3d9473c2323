"""Command-line front end: orbit queries, certification runs, and renderings.

Every invocation prints a deterministic report.  Exit codes follow the
query's answer: 0 when the report passes, 1 when a verification or a yes/no
question comes back negative, 2 on usage errors.  JSON output is emitted
with sorted keys so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .orbits import (
    Partition,
    box_move_witness,
    box_moves_from,
    covers_of,
    is_adjacent,
    partitions_of,
    reduction_path,
)
from .pyramids import (
    Pyramid,
    align_for_theorem,
    good_pair,
    left_aligned_offsets,
    render,
    render_tikz,
)
from .reduction import adjacency_data, build_chain, build_reduction
from .screening import fourier_signs, screening_coeffs, screening_pair

#: verify-all refuses larger sweeps.  The full N <= 16 sweep (2159 box-move
#: pairs, 618 of them at N = 16) takes about 3 s serially on one core of a
#: 2-vCPU x86-64 VM.
MAX_VERIFY_N = 16

#: orbits refuses larger N.  sl_N has p(N) orbits: 5604 at N = 30 (about
#: 1 s and 53 MB for `orbits 30 --json` on a 2-vCPU x86-64 VM), but about
#: 1.9e8 at N = 100, which would exhaust memory.
MAX_ORBITS_N = 30

#: The largest N each verb that takes partitions accepts; larger input exits 2
#: before any work.  The README gives the slowest input measured at each bound.
MAX_N = {"adjacent": 10000, "render": 10000, "path": 500, "reduce": 300,
         "check-star": 300, "chain": 40, "screenings": 16}

_EXIT_CODES = {"pass": 0, "fail": 1, "error": 2}


@dataclass
class Report:
    """Outcome of one command: a status, a one-line summary, and a payload."""

    status: str
    summary: str
    payload: dict
    lines: tuple = ()
    renderings: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]

    def to_json(self) -> dict:
        return {"status": self.status, "summary": self.summary, "payload": self.payload}


def emit(report: Report, format: str) -> str:
    """Serialize a report: 'json' always works, 'ascii'/'tikz' when rendered."""
    if format == "json":
        return json.dumps(report.to_json(), sort_keys=True, indent=2)
    if format in ("ascii", "tikz"):
        text = report.renderings.get(format)
        if text is None:
            raise ValueError(f"report carries no {format} rendering")
        return text
    raise ValueError(f"unsupported format {format!r}")


def _partition(text: str) -> Partition:
    try:
        parts = tuple(int(piece) for piece in text.split(","))
        if 0 in parts:  # Partition drops zero parts; a typed zero is a typo
            raise ValueError("parts must be positive")
        return Partition(parts)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"invalid partition {text!r}: {exc}")


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def cmd_orbits(args) -> Report:
    if args.n < 1:
        raise ValueError(f"N must be positive, got {args.n}")
    if args.n > MAX_ORBITS_N:
        raise ValueError(f"N must be at most {MAX_ORBITS_N}, got {args.n}")
    orbits = sorted(partitions_of(args.n), key=lambda p: p.parts, reverse=True)
    payload = {
        "n": args.n,
        "count": len(orbits),
        "orbits": [
            {
                "partition": p.to_json(),
                "covered_by": sorted(c.to_json() for c in covers_of(p)),
            }
            for p in orbits
        ],
    }
    lines = tuple(
        f"{p} covered by " + (
            ", ".join(map(repr, sorted(covers_of(p), key=lambda q: q.parts)))
            or "nothing (maximal)"
        )
        for p in orbits
    )
    return Report("pass", f"{len(orbits)} nilpotent orbits of sl_{args.n}", payload, lines)


def cmd_adjacent(args) -> Report:
    lam, mu = args.lam, args.mu
    witness = box_move_witness(lam, mu)
    adjacent = is_adjacent(lam, mu)
    payload = {
        "lam": lam.to_json(),
        "mu": mu.to_json(),
        "adjacent": adjacent,
        "satisfies_box_move": witness is not None,
        "box_move": list(witness) if witness is not None else None,
    }
    if adjacent:
        i, j = witness
        summary = f"{lam} -> {mu}: adjacent (box moves row {j} -> row {i})"
        return Report("pass", summary, payload)
    detail = "box move exists but is not a covering" if witness else "no box move"
    return Report("fail", f"{lam} -> {mu}: not adjacent ({detail})", payload)


def cmd_path(args) -> Report:
    chain = reduction_path(args.lam, args.mu)
    steps = chain.to_json()
    payload = {"steps": steps, "length": len(steps) - 1}
    lines = (" -> ".join(map(repr, chain.steps)),)
    summary = f"{args.lam} reaches {args.mu} in {len(steps) - 1} step(s)"
    return Report("pass", summary, payload, lines)


def _pair_renderings(source: Pyramid, target: Pyramid) -> dict:
    ascii_text = "\n".join(
        [f"source {source.partition}:", render(source, "ascii"), "",
         f"target {target.partition}:", render(target, "ascii")]
    )
    return {"ascii": ascii_text, "tikz": render_tikz(source, target)}


def cmd_reduce(args) -> Report:
    datum = build_reduction(args.lam, args.mu)
    summary = (
        f"{args.lam} -> {args.mu}: certified "
        f"({datum.membership_certified_by})"
    )
    return Report(
        "pass",
        summary,
        datum.to_json(),
        lines=(datum.summary(),),
        renderings=_pair_renderings(datum.pyr_lam, datum.pyr_mu),
    )


def cmd_chain(args) -> Report:
    data = build_chain(args.lam, args.mu)
    payload = {
        "lam": args.lam.to_json(),
        "mu": args.mu.to_json(),
        "steps": [
            {
                "lam": d.lam.to_json(),
                "mu": d.mu.to_json(),
                "case": d.adjacency.case,
                "membership_certified_by": d.membership_certified_by,
            }
            for d in data
        ],
    }
    lines = tuple(d.summary() for d in data)
    summary = f"{args.lam} -> {args.mu}: {len(data)} certified step(s)"
    return Report("pass", summary, payload, lines)


def cmd_check_star(args) -> Report:
    # build_reduction raises unless the certificate passes
    cert = build_reduction(args.lam, args.mu).certificate
    summary = f"{args.lam} -> {args.mu}: compatibility certificate passes"
    return Report("pass", summary, cert.to_json())


def cmd_screenings(args) -> Report:
    lam = args.lam
    if args.mu is None:
        pair = good_pair(Pyramid(lam, left_aligned_offsets(lam)))
        sset = screening_coeffs(pair)
        payload = {"mode": "good-pair", "set": sset.to_json()}
        lines = tuple(
            f"i={i} {case}: {poly!r}"
            for i, (case, poly) in enumerate(zip(sset.cases, sset.coefficients), start=1)
        )
        summary = f"{lam}: {len(sset.cases)} screening coefficient(s)"
        return Report("pass", summary, payload, lines)

    source, target = screening_pair(build_reduction(lam, args.mu))
    signs = fourier_signs(source, target)
    matched = all(s is not None for s in signs)
    payload = {
        "mode": "reduction",
        "source": source.to_json(),
        "target": target.to_json(),
        "fourier_match": matched,
        "signs": list(signs),
    }
    lines = tuple(
        f"i={i} {case}: {poly!r}  (sign {sign})"
        for i, (case, poly, sign) in enumerate(
            zip(target.cases, target.coefficients, signs), start=1
        )
    )
    verdict = "matches up to sign" if matched else "MISMATCH"
    summary = f"{lam} -> {args.mu}: Fourier comparison {verdict}"
    return Report("pass" if matched else "fail", summary, payload, lines)


def cmd_render(args) -> Report:
    if args.mu is None:
        pyramid = Pyramid(args.lam, left_aligned_offsets(args.lam))
        renderings = {"ascii": render(pyramid, "ascii"), "tikz": render(pyramid, "tikz")}
        summary = f"pyramid of {args.lam}"
    else:
        adj = adjacency_data(args.lam, args.mu)
        renderings = _pair_renderings(
            align_for_theorem(args.lam, adj.i, adj.j, "source"),
            align_for_theorem(args.lam, adj.i, adj.j, "target"),
        )
        summary = f"aligned pyramid pair {args.lam} -> {args.mu}"
    payload = {"ascii": renderings["ascii"], "tikz": renderings["tikz"]}
    return Report("pass", summary, payload, (renderings["ascii"],), renderings)


def _verify_pair(pair) -> dict:
    lam, mu = pair
    try:
        datum = build_reduction(Partition(lam), Partition(mu))
        return {
            "lam": list(lam),
            "mu": list(mu),
            "ok": True,
            "membership_certified_by": datum.membership_certified_by,
        }
    except Exception as exc:  # failures are reported, never thrown
        return {"lam": list(lam), "mu": list(mu), "ok": False, "detail": str(exc)}


def verify_all(n_max: int, workers: Optional[int] = None) -> Report:
    """Run the full reduction pipeline on every box-move pair with N <= n_max."""
    if not (1 <= n_max <= MAX_VERIFY_N):
        raise ValueError(f"--max-n must be between 1 and {MAX_VERIFY_N}, got {n_max}")
    if workers is None:
        workers = int(os.environ.get("SLRED_WORKERS", "1") or "1")
    if workers < 1:
        raise ValueError(f"the worker count must be positive, got {workers}")
    pairs = [
        (lam.parts, mu.parts)
        for n in range(2, n_max + 1)
        for lam in partitions_of(n)
        for mu, _rows in box_moves_from(lam)
    ]
    workers = min(workers, os.cpu_count() or 1, len(pairs))
    if workers > 1:
        from multiprocessing import Pool  # only pooled sweeps pay its import

        with Pool(workers) as pool:
            rows = pool.map(_verify_pair, pairs)
    else:
        rows = [_verify_pair(pair) for pair in pairs]
    rows.sort(key=lambda row: (sum(row["lam"]), row["lam"], row["mu"]))
    failures = [row for row in rows if not row["ok"]]
    payload = {"max_n": n_max, "checked": len(rows), "failed": len(failures), "pairs": rows}
    lines = tuple(
        ("ok   " if row["ok"] else "FAIL ")
        + f"[{','.join(map(str, row['lam']))}] -> [{','.join(map(str, row['mu']))}]"
        + ("" if row["ok"] else f": {row['detail']}")
        for row in rows
    )
    if failures:
        return Report("fail", f"{len(failures)} of {len(rows)} pairs failed", payload, lines)
    return Report("pass", f"{len(rows)} box-move pairs for N <= {n_max}: all certified", payload, lines)


def cmd_verify_all(args) -> Report:
    return verify_all(args.max_n, args.workers)


# ----------------------------------------------------------------------
# parsing and dispatch
# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slred",
        description="Exact certification toolkit for nilpotent-orbit reductions of sl_N.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, renders=False):
        output = p.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="print the full report as JSON")
        if renders:
            output.add_argument("--ascii", action="store_true", help="print the ascii rendering")
            output.add_argument("--tikz", action="store_true", help="print the TikZ rendering")
        p.add_argument("--quiet", action="store_true", help="suppress summary output")

    p = sub.add_parser("orbits", help="list the nilpotent orbits of sl_N with cover relations")
    p.add_argument("n", type=int, help=f"the rank N (<= {MAX_ORBITS_N})")
    common(p)
    p.set_defaults(handler=cmd_orbits)

    p = sub.add_parser("adjacent", help="decide adjacency of two orbits")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    common(p)
    p.set_defaults(handler=cmd_adjacent)

    p = sub.add_parser("path", help="adjacent chain between comparable orbits")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    common(p)
    p.set_defaults(handler=cmd_path)

    p = sub.add_parser("reduce", help="build and certify one reduction datum")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    common(p, renders=True)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("chain", help="certify every step of the chain between two orbits")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    common(p)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("check-star", help="compatibility certificate for an adjacent pair")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition)
    common(p)
    p.set_defaults(handler=cmd_check_star)

    p = sub.add_parser("screenings", help="screening coefficients of a pair or a single orbit")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition, nargs="?", default=None)
    common(p)
    p.set_defaults(handler=cmd_screenings)

    p = sub.add_parser("render", help="ascii or TikZ pyramid pictures")
    p.add_argument("lam", type=_partition)
    p.add_argument("mu", type=_partition, nargs="?", default=None)
    common(p, renders=True)
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser("verify-all", help="run the reduction pipeline on all box-move pairs")
    p.add_argument("--max-n", type=int, default=6, help=f"largest N to sweep (<= {MAX_VERIFY_N})")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: SLRED_WORKERS or 1)",
    )
    common(p)
    p.set_defaults(handler=cmd_verify_all)

    return parser


def _print_report(report: Report, args) -> None:
    wants_render = getattr(args, "ascii", False) or getattr(args, "tikz", False)
    if args.json:
        print(emit(report, "json"))
        return
    if wants_render:
        print(emit(report, "tikz" if getattr(args, "tikz", False) else "ascii"))
        return
    if args.quiet:
        return
    print(report.summary)
    for line in report.lines:
        print(line)


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader left early (`slred orbits 30 | head -1`).  Point stdout
        # at devnull so the flush at exit cannot raise again, as the signal
        # module's documentation recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before the report was written", file=sys.stderr)
        return 1
    return code


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        bound = MAX_N.get(args.verb)
        if bound is not None:
            n = max(p.n for p in (args.lam, args.mu) if p is not None)
            if n > bound:
                raise ValueError(f"N must be at most {bound} for {args.verb}, got {n}")
        report = args.handler(args)
    except (ValueError, TypeError) as exc:
        report = Report("error", str(exc), {})
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            print(emit(report, "json"))
        return report.exit_code
    except RuntimeError as exc:
        report = Report("fail", str(exc), {})
        print(f"verification failed: {exc}", file=sys.stderr)
        if args.json:
            print(emit(report, "json"))
        return report.exit_code
    _print_report(report, args)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
