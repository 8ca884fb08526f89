"""Command-line interface.

One binary with subcommands; a diagram comes from a JSON file, a builtin
name, or the seeded random generator. Output is byte-deterministic: fixed
line order, plain decimal integers, torsion rendered as Z/d tokens. The
--json flag switches to a machine format with the same values. The rep
coordinates and Euler entries printed by spinc are handlebody coordinates:
the class of a_lam is given by its pairings <c_i, a_lam> with the curves c_i
of cut system lam, in the order the diagram lists them. An --act file still
gives ambient vectors a_1, a_2, a_3, so its meaning does not depend on the
curves. The basis cocycles and Gram matrix printed by form are built in the
curve bases too: they may change under a handleslide, while rank,
signature, parity and unimodularity do not. The three-way H2 check of
homology has two legs, each against H1 read off the invariant factors of
all 3g curves, independently of the homology complex: H2 of the complex
against H2 that Poincare duality and universal coefficients give from that
H1 and chi, and tors H1 of the complex against the torsion of that H1.

Each ``cmd_*`` handler returns its payload, its text lines and its verdict.
``main`` owns the frame (``command:`` and ``diagram:`` lines, or the JSON
document ``{"command", "diagram", "result"}``), the validity rule (every
subcommand but ``validate`` refuses an invalid diagram) and the exit codes.

A well-formed argv, such as every golden case, is read by ``_read_argv``;
any other argv, help and every usage error included, goes to the argparse
parser of ``build_parser``, which is imported only then.

Exit codes: 0 success (and diagram valid), 1 invalid diagram or rep, or a
refused computation (a spin listing over spin.MAX_LISTED structures),
2 unreadable or malformed input (including a file that is not UTF-8, JSON
with an integer longer than Python's integer-string digit limit or nested
too deep to parse, a label that is not one line of printable text, and a
--genus, a JSON genus or a --builtin connected sum of genus above
MAX_GENUS = 100, refused before any diagram is built),
3 internal error (a bug, such as a broken internal invariant; reported as
one ``error: internal:`` line on stderr, never as a traceback),
141 stdout closed before the output was written, as when piped into
``head`` (128 + SIGPIPE, the status a shell gives a process that SIGPIPE
ended; nothing goes to stderr).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

# Each subcommand imports the modules it reads when it runs, so a call loads
# only those (see "CLI start-up" in README.md).
from .diagram import (
    SYSTEM_NAMES,
    CycleConditionError,
    TrisectionDiagram,
    _span_quotient,
    builtin,
    builtin_genus,
    diagram_from_curves,
    ensure_valid,
    euler_characteristic,
    random_diagram,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .pairings import H2DualRep, OneOneCocycle

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141

MAX_GENUS = 100


class CliInputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _fmt_vec(v) -> str:
    return "[" + ", ".join(str(int(x)) for x in v) + "]"


def _group_doc(h) -> dict:
    return {"rank": h.rank, "torsion": list(h.torsion), "text": str(h)}


def _cocycle_doc(c: OneOneCocycle) -> dict:
    """The ambient blocks of a cocycle, as form and spinc print them."""
    return {"b1": list(c.b1), "b2": list(c.b2), "b3": list(c.b3)}


def _cocycle_line(c: OneOneCocycle) -> str:
    return " ".join(f"{name}={_fmt_vec(block)}" for name, block in _cocycle_doc(c).items())


def _read_json_object(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliInputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # the only other ValueError: the integer digit limit
        raise CliInputError(f"{path}: invalid JSON: integer has too many digits") from exc
    except RecursionError as exc:
        raise CliInputError(f"{path}: invalid JSON: nested too deep") from exc
    if not isinstance(data, dict):
        raise CliInputError(f"{path}: expected a JSON object")
    return data


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is an int


def _curve_list(data, key: str, source: str):
    curves = data.get(key)
    if not isinstance(curves, list) or not all(
        isinstance(c, list) and all(_is_int(e) for e in c) for c in curves
    ):
        raise CliInputError(f"{source}: field {key!r} must be a list of integer vectors")
    return curves


def _diagram_from_file(path: str) -> TrisectionDiagram:
    data = _read_json_object(path)
    missing = [k for k in ("genus", *SYSTEM_NAMES) if k not in data]
    if missing:
        raise CliInputError(f"{path}: missing fields {', '.join(missing)}")
    if not _is_int(data["genus"]):
        raise CliInputError(f"{path}: field 'genus' must be an integer")
    if data["genus"] > MAX_GENUS:
        raise CliInputError(f"{path}: field 'genus' must be at most {MAX_GENUS}")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise CliInputError(f"{path}: field 'label' must be a string")
    if label is not None and not label.isprintable():
        # a newline in the label would print lines of its own into the output
        raise CliInputError(f"{path}: field 'label' must be printable text on one line")
    try:
        systems = [_curve_list(data, name, path) for name in SYSTEM_NAMES]
        return diagram_from_curves(data["genus"], *systems, label=label)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _load_diagram(args) -> TrisectionDiagram:
    have_path = args.path is not None
    have_builtin = args.builtin is not None
    have_random = args.genus is not None or args.seed is not None
    if sum((have_path, have_builtin, have_random)) != 1:
        raise CliInputError(
            "choose exactly one diagram source: a file path, --builtin, or --genus with --seed"
        )
    if have_path:
        return _diagram_from_file(args.path)
    if have_builtin:
        try:
            genus = builtin_genus(args.builtin)
        except KeyError as exc:
            raise CliInputError(exc.args[0]) from exc
        if genus > MAX_GENUS:
            raise CliInputError(f"--builtin has genus {genus}, above the bound {MAX_GENUS}")
        return builtin(args.builtin)
    if args.genus is None or args.seed is None:
        raise CliInputError("random diagrams need both --genus and --seed")
    if not 0 <= args.genus <= MAX_GENUS:
        raise CliInputError(f"--genus must be between 0 and {MAX_GENUS}")
    return random_diagram(args.genus, args.seed)


def cmd_validate(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    report = d.validation
    payload = {
        "genus": d.genus,
        "valid": report.is_valid,
        "checks": [{"name": name, "ok": ok} for name, ok in report.checks],
        "k_values": list(report.k_values) if report.k_values is not None else None,
        "euler_characteristic": euler_characteristic(d) if report.is_valid else None,
    }
    lines = [f"genus: {d.genus}"]
    lines += [f"check {name}: {'pass' if ok else 'FAIL'}" for name, ok in report.checks]
    if report.k_values is not None:
        lines.append(f"k-values: {_fmt_vec(report.k_values)}")
        lines.append(f"euler characteristic: {euler_characteristic(d)}")
    lines.append(f"verdict: {'valid' if report.is_valid else 'invalid'}")
    return payload, lines, report.is_valid


def cmd_homology(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    """Homology groups and the three-way H2 check.

    H1 is also read off the curves alone, as Z^2g modulo the span of all 3g
    curves, independently of the homology complex. The check passes when H2
    of the complex equals H2 that Poincare duality and universal
    coefficients give from that H1 and chi, and tors H1 of the complex
    equals the torsion of that H1.
    """
    from .complexes import HomologyGroup, betti_numbers, homology_groups

    groups = homology_groups(d)
    b1, torsion = _span_quotient([c for cs in d.systems for c in cs.curves], 2 * d.genus)
    law_middle = HomologyGroup(euler_characteristic(d) - 2 + 2 * b1, torsion)
    agreed = groups[2] == law_middle and groups[1].torsion == torsion
    payload = {
        "groups": {f"H_{k}": _group_doc(h) for k, h in enumerate(groups)},
        "betti": betti_numbers(d),
        "three_way_h2_check": "pass" if agreed else "fail",
    }
    lines = [f"H_{k}: {h}" for k, h in enumerate(groups)]
    lines.append(f"three-way H2 check: {'pass' if agreed else 'fail'}")
    return payload, lines, agreed


def cmd_diamond(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    """The Cech diamond, cohomology and the Serre duality line.

    ``serre duality: pass`` is a rank-symmetry law on one complex, not a
    second route to the same values: the diamond's outer columns are
    constants, so the check compares b1 with b3, both ranks of the homology
    complex. That is a real duality law, but no independent computation.
    """
    from .complexes import cohomology_groups, hodge_diamond, serre_duality_holds

    diamond = hodge_diamond(d)
    serre = serre_duality_holds(diamond)
    cohomology = cohomology_groups(d)
    payload = {
        "grid": [[_group_doc(h) for h in row] for row in diamond.grid],
        "cohomology": {f"H^{k}": _group_doc(h) for k, h in enumerate(cohomology)},
        "serre_duality": "pass" if serre else "fail",
    }
    lines = []
    for i, row in enumerate(diamond.grid):
        cells = " | ".join(f"{h}" for h in row)
        lines.append(f"cech degree {i}: {cells}")
    lines += [f"H^{k}: {h}" for k, h in enumerate(cohomology)]
    lines.append(f"serre duality: {'pass' if serre else 'fail'}")
    return payload, lines, serre


def cmd_form(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    from .pairings import h2_basis_cocycles, intersection_form

    form = intersection_form(d)
    basis = h2_basis_cocycles(d)
    payload = {
        "rank": form.rank,
        "gram": [list(row) for row in form.gram],
        "signature": list(form.signature),
        "parity": form.parity,
        "unimodular": form.unimodular,
        "basis": [_cocycle_doc(c) for c in basis],
    }
    lines = [f"rank: {form.rank}"]
    for row in form.gram:
        lines.append(f"gram: {_fmt_vec(row)}")
    lines.append(f"signature: ({form.signature[0]}, {form.signature[1]})")
    lines.append(f"parity: {form.parity}")
    lines.append(f"unimodular: {'yes' if form.unimodular else 'no'}")
    lines += [f"basis cocycle: {_cocycle_line(c)}" for c in basis]
    return payload, lines, True


def cmd_spin(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    from .spin import enumerate_spin

    structures = enumerate_spin(d)
    payload = {
        "count": len(structures),
        "structures": [list(q.basis_values) for q in structures],
    }
    lines = [f"spin structures: {len(structures)}"]
    lines += [f"q-values: {_fmt_vec(q.basis_values)}" for q in structures]
    return payload, lines, True


def _rep_from_file(d: TrisectionDiagram, path: str) -> H2DualRep:
    from .pairings import H2DualRep

    data = _read_json_object(path)
    lifts = []
    for key in ("a1", "a2", "a3"):
        vec = data.get(key)
        if not isinstance(vec, list) or not all(_is_int(e) for e in vec):
            raise CliInputError(f"{path}: field {key!r} must be an integer vector")
        if len(vec) != 2 * d.genus:
            raise CliInputError(
                f"{path}: field {key!r} must have length {2 * d.genus} for this diagram"
            )
        lifts.append(tuple(vec))
    return H2DualRep.from_lifts(d, tuple(lifts))


def cmd_spinc(d: TrisectionDiagram, args) -> tuple[dict, list[str], bool]:
    from .spinc import act, base_ledger, c1_difference, is_admissible

    ledger = base_ledger(d)
    payload = {
        "base_euler": [list(e) for e in ledger.euler],
        "admissible": is_admissible(ledger),
        "action": None,
    }
    lines = ["base euler: " + " ".join(_fmt_vec(e) for e in ledger.euler)]
    if args.act is not None:
        rep = _rep_from_file(d, args.act)
        moved = act(ledger, rep)
        diff = c1_difference(moved, ledger)
        payload["action"] = {
            "rep_coords": [list(c) for c in rep.coords],
            "euler": [list(e) for e in moved.euler],
            "admissible": is_admissible(moved),
            "c1_difference": _cocycle_doc(diff),
        }
        lines.append("rep coords: " + " ".join(_fmt_vec(c) for c in rep.coords))
        lines.append("euler after action: " + " ".join(_fmt_vec(e) for e in moved.euler))
        lines.append(f"admissible after action: {'yes' if is_admissible(moved) else 'no'}")
        lines.append(f"c1 difference: {_cocycle_line(diff)}")
    else:
        lines.append(f"admissible: {'yes' if is_admissible(ledger) else 'no'}")
    return payload, lines, True


_HANDLERS = {
    "validate": cmd_validate,
    "homology": cmd_homology,
    "diamond": cmd_diamond,
    "form": cmd_form,
    "spin": cmd_spin,
    "spinc": cmd_spinc,
}

_DESCRIPTIONS = {
    "validate": "check the three cut systems and report k-values",
    "homology": "integral homology H_0..H_4 with the three-way H2 cross-check",
    "diamond": "3x3 cohomology diamond, assembled H^k and the Serre rank check",
    "form": "intersection form: Gram matrix, signature, parity, unimodularity",
    "spin": "enumerate spin structures as quadratic enhancements",
    "spinc": "Spin^C ledger: base Euler classes, optional homology action",
}


# The one table of options, in help order after the diagram path: flag,
# type (bool for a flag without a value), help and the subcommands that take
# it. The attribute is the flag without its dashes, as argparse names it.
_ALL = tuple(_HANDLERS)
_OPTIONS = (
    ("--builtin", str, "builtin diagram name, e.g. CP2 or CP2#CP2bar", _ALL),
    ("--genus", int, "genus for a random diagram", _ALL),
    ("--seed", int, "seed for a random diagram", _ALL),
    ("--json", bool, "machine-readable output", _ALL),
    ("--act", str, "JSON file with ambient lifts a1, a2, a3", ("spinc",)),
)


def _read_argv(argv) -> SimpleNamespace | None:
    """The attributes ``build_parser().parse_args(argv)`` gives, or None.

    Reads only a well-formed argv: a subcommand, then in any order the
    ``_OPTIONS`` it takes and at most one path, where no value starts with
    "-", each int value passes int() and no option repeats. Every other
    argv, from help to an abbreviation, "--opt=value" or "--", gets None
    and is left to argparse, the one grammar and the only source of help
    and error text. Every golden argv has this shape, and importing
    argparse and building its parser took about 3 ms of a 43 ms call
    (Python 3.11).
    """
    if not argv or argv[0] not in _HANDLERS:
        return None
    command, *rest = argv
    types = {flag: kind for flag, kind, _, commands in _OPTIONS if command in commands}
    args = {flag[2:]: False if kind is bool else None for flag, kind in types.items()}
    args.update(command=command, handler=_HANDLERS[command], path=None)
    seen = set()
    tokens = iter(rest)
    try:
        for token in tokens:
            kind = types.get(token)
            if kind is bool:
                name, value = token[2:], True
            elif kind is not None:
                name, value = token[2:], next(tokens, "-")
                if value.startswith("-"):
                    return None
                value = kind(value)
            elif token.startswith("-"):
                return None
            else:
                name, value = "path", token
            if name in seen:
                return None
            seen.add(name)
            args[name] = value
    except ValueError:  # an int value that int() refuses
        return None
    return SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="trihodge",
        description="Exact integer invariants of closed 4-manifolds from trisection diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=_DESCRIPTIONS[name])
        p.add_argument("path", nargs="?", help="diagram JSON file")
        for flag, kind, text, commands in _OPTIONS:
            if name in commands:
                how = {"action": "store_true"} if kind is bool else {"type": kind}
                p.add_argument(flag, help=text, **how)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_PARSE if exc.code else EXIT_OK
    try:
        d = _load_diagram(args)
        if args.command != "validate":
            ensure_valid(d)
        payload, lines, ok = args.handler(d, args)
        if args.json:
            import json

            doc = {"command": args.command, "diagram": d.describe(), "result": payload}
            output = json.dumps(doc, sort_keys=True, indent=2)
        else:
            output = "\n".join([f"command: {args.command}", f"diagram: {d.describe()}", *lines])
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CycleConditionError as exc:
        print(f"error: rep rejected: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left in the buffer to devnull, so
        # the flush at interpreter exit finds no broken pipe to report
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return EXIT_OK if ok else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
