"""Command line surface: dimensions, basis enumeration, generator matrix
construction, verification suites, branching tables.

Exit codes: 0 success, 1 failed verification, 2 invalid weight or
configuration or an unwritable output path or standard output,
3 construction failure, 4 internal error (any other exception, reported
as one stderr line).
"""

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
import tempfile

from .exact import format_rational, parse_rational
from .patterns import (DimensionCapError, check_weight_gl, check_weight_so,
                       enumerate_patterns_a, enumerate_patterns_b)
from .glrep import build_gl
from .sorep import ConstructionError, build_so
from .checks import (branching_multiplicity, freudenthal_multiplicities,
                     run_verification, weyl_dim)

DEFAULT_CAP = 5000


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, choices=["A", "B"],
                        dest="algebra")
    common.add_argument("--rank", required=True, type=int)
    common.add_argument("--weight", required=True,
                        help="comma-separated exact rationals, halves as p/2")
    common.add_argument("--format", default="json", choices=["json", "csv"])
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--level", default="fast", choices=["fast", "full"])
    common.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="largest dimension the command will allocate")
    common.add_argument("--deform-trace", action="store_true",
                        help="print each deformed raising entry to stderr "
                             "as its expansion t^v ... t^0 before the limit")
    p = argparse.ArgumentParser(
        prog="gtrep",
        description="exact generator matrices over pattern bases")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("dim", parents=[common],
                   help="print the Weyl dimension")
    sub.add_parser("patterns", parents=[common],
                   help="enumerate the pattern basis")
    sub.add_parser("build", parents=[common],
                   help="construct all generator matrices")
    sub.add_parser("verify", parents=[common],
                   help="run the verification suite")
    sub.add_parser("branch", parents=[common],
                   help="branching table to the rank n-1 subalgebra")
    return p


def _weight_of(args):
    if args.rank < 1:
        raise CliError(2, "rank must be at least 1")
    toks = [t.strip() for t in args.weight.split(",")]
    if len(toks) != args.rank:
        raise CliError(2, "expected %d weight entries, got %d"
                       % (args.rank, len(toks)))
    try:
        vals = tuple(parse_rational(t) for t in toks)
    except ValueError as e:
        raise CliError(2, str(e))
    try:
        if args.algebra == "A":
            return check_weight_gl(vals)
        return check_weight_so(vals)
    except ValueError as e:
        raise CliError(2, str(e))


def _cap_guard(args, lam):
    dim = weyl_dim(args.algebra, lam)
    if dim > args.cap:
        raise CliError(2, "dimension %d exceeds cap %d" % (dim, args.cap))
    return dim


def _to_devnull(stream):
    # after a write error: the interpreter flushes the stream again at
    # exit, and with its fd on /dev/null that flush cannot fail again
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


def _say(text):
    # a message line on stderr; a stderr that cannot take it changes no
    # exit code
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)


def _emit(produce, out):
    # produce(write) writes the output piece by piece, to stdout or to the
    # --out target; sys.stdout is looked up now, since callers swap it
    if out is None:
        try:
            produce(sys.stdout.write)
            sys.stdout.flush()
        except OSError as e:
            _to_devnull(sys.stdout)
            raise CliError(2, "cannot write standard output: %s"
                           % (e.strerror or e))
        return
    try:
        # symlinks are followed, so the link stays and its target changes
        path = os.path.realpath(out)
        try:
            regular = stat.S_ISREG(os.stat(path).st_mode)
        except FileNotFoundError:
            regular = True
        if regular:
            _replace(path, produce)
        else:
            # a device or FIFO is written in place, never replaced
            with open(path, "w") as f:
                produce(f.write)
    except OSError as e:
        raise CliError(2, "cannot write %s: %s" % (out, e.strerror or e))


def _replace(path, produce):
    # a unique temp file in the target directory, renamed over the target;
    # mkstemp makes it private, so give it the mode open() would have
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=".gtrep-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            produce(f.write)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _text(text):
    # a producer that writes one prepared string
    return lambda write: write(text)


def _json_only(args):
    if args.format != "json":
        raise CliError(2, "csv format only applies to build output")


def _build_rep(args, lam):
    trace = [] if args.deform_trace else None
    if args.algebra == "A":
        rep = build_gl(lam, cap=args.cap)
    else:
        rep = build_so(lam, cap=args.cap, trace=trace)
    if trace:
        # requested output, like stdout: a write error on it exits 2
        try:
            for k, src, tgt, val in trace:
                sys.stderr.write("deform: level=%d source=%d target=%d "
                                 "value=%s\n" % (k, src, tgt, val))
            sys.stderr.flush()
        except OSError as e:
            _to_devnull(sys.stderr)
            raise CliError(2, "cannot write standard error: %s"
                           % (e.strerror or e))
    return rep


# Build and patterns documents in the layout of json.dumps(indent=2). The
# encoder writes every JSON structure; only the entry rows of `build`, its
# bulk, are written from format strings. The encoder escapes newlines inside
# strings, so every raw newline it emits is layout.
_ENCODE = json.JSONEncoder(indent=2).encode


def _head(args, lam, patterns, write):
    # the header fields, then the basis, leaving the top-level object open;
    # every module has at least one pattern. One encoder pass writes the
    # whole basis, since each pass leaves its nested closures as reference
    # cycles; it asks default for each pattern's JSON when it reaches it,
    # and the text before that goes out then, shifted to depth 1, so each
    # write holds one pattern
    head = _ENCODE({"algebra": {"type": args.algebra, "rank": args.rank},
                    "highest_weight": [format_rational(x) for x in lam],
                    "dimension": len(patterns)})
    # the header object without its closing "\n}"
    write(head[:-2] + ',\n  "basis": ')
    text = []

    def default(p):
        write("".join(text).replace("\n", "\n  "))
        text.clear()
        return p.to_json()

    for chunk in json.JSONEncoder(indent=2, default=default).iterencode(
            patterns):
        text.append(chunk)
    write("".join(text).replace("\n", "\n  "))


class _Texts(dict):
    # the text of each index, made from a "%d" template when first asked for
    def __init__(self, template):
        super().__init__()
        self.template = template

    def __missing__(self, i):
        text = self[i] = self.template % i
        return text


# the most entry rows one write holds: a block's rows go out a piece at a
# time, so no block is ever held as one string
ROWS_PER_WRITE = 1024


def _entries(op, rows, cols, value, sep):
    # the entries of op in sorted order, each as its row index's text
    # (rows[r]), its column index's text (cols[c]) and its value's text
    # joined, in pieces of at most ROWS_PER_WRITE entries with sep between
    # any two; an empty op gives one empty piece. The value's text comes
    # from the "%s" template value, as Fraction.__str__ prints it, once per
    # value object (op holds them, so ids stay fixed)
    ent = op.ent
    keys = sorted(ent)
    made = {}
    for start in range(0, len(keys) or 1, ROWS_PER_WRITE):
        # a leading "" puts sep before the first row of a later piece
        out = [""] if start else []
        for key in keys[start:start + ROWS_PER_WRITE]:
            v = ent[key]
            text = made.get(id(v))
            if text is None:
                text = made[id(v)] = value % v
            out.append(rows[key[0]] + cols[key[1]] + text)
        yield sep.join(out)


# one [row, col, "value"] array of an operator's entries, at depth 4, in
# its row, column and value pieces
_IN, _OUT = "\n" + "  " * 5, "\n" + "  " * 4
_JSON_ROW = "[" + _IN + "%d," + _IN
_JSON_COL = "%d," + _IN
_JSON_VALUE = '"%s"' + _OUT + "]"
_JSON_SEP = ",\n" + "  " * 4
# one operator block at depth 2, after its separator, up to its entries
# array; the array's rows follow, then _TAIL
_HEAD = '%s"%s(%d,%d)": {\n      "dim": %d,\n      "entries": '
_TAIL = "\n    }"


def _rep_json(args, lam, rep, write):
    # the header and basis, each operator block as its head, its rows a
    # piece at a time and its tail, then the footer; every module has at
    # least one generator slot
    letter = "E" if args.algebra == "A" else "F"
    _head(args, lam, rep.patterns, write)
    write(',\n  "operators": {')
    sep = "\n    "
    row_texts, col_texts = _Texts(_JSON_ROW), _Texts(_JSON_COL)
    for i, j in sorted(rep.gens):
        op = rep.gens[(i, j)]
        head = _HEAD % (sep, letter, i, j, rep.dim)
        sep = ",\n    "
        if not op.ent:
            write(head + "[]" + _TAIL)
            continue
        write(head + "[\n" + "  " * 4)
        for piece in _entries(op, row_texts, col_texts, _JSON_VALUE,
                              _JSON_SEP):
            write(piece)
        write("\n      ]" + _TAIL)
    write("\n  }\n}\n")


def _rep_csv(args, rep, write):
    # the header row, then each operator's rows a piece at a time
    letter = "E" if args.algebra == "A" else "F"
    write("generator,row,col,value\n")
    col_texts = _Texts("%d,")
    for i, j in sorted(rep.gens):
        # the name holds a comma, so it is quoted; it leads each row text
        name = '"%s(%d,%d)",' % (letter, i, j)
        for piece in _entries(rep.gens[(i, j)], _Texts(name + "%d,"),
                              col_texts, "%s\n", ""):
            write(piece)


def cmd_dim(args):
    _json_only(args)
    lam = _weight_of(args)
    _emit(_text("%d\n" % weyl_dim(args.algebra, lam)), args.out)
    return 0


def cmd_patterns(args):
    _json_only(args)
    lam = _weight_of(args)
    _cap_guard(args, lam)
    if args.algebra == "A":
        pats = enumerate_patterns_a(lam, args.cap)
    else:
        pats = enumerate_patterns_b(lam, args.cap)

    def produce(write):
        _head(args, lam, pats, write)
        write("\n}\n")

    _emit(produce, args.out)
    return 0


def cmd_build(args):
    lam = _weight_of(args)
    _cap_guard(args, lam)
    rep = _build_rep(args, lam)
    # nothing is written until the build has returned
    if args.format == "csv":
        _emit(functools.partial(_rep_csv, args, rep), args.out)
    else:
        _emit(functools.partial(_rep_json, args, lam, rep), args.out)
    return 0


def cmd_verify(args):
    _json_only(args)
    lam = _weight_of(args)
    _cap_guard(args, lam)
    rep = _build_rep(args, lam)
    report = run_verification(rep, args.algebra, args.level)
    _emit(_text(json.dumps(report.to_json(), indent=2) + "\n"), args.out)
    return 0 if report.passed else 1


def _branch_candidates(lam):
    # non-increasing tuples in the class of lam, from the class maximum (0,
    # or -1/2 for half-integers) down to lam[-1]
    top = lam[0] - math.ceil(lam[0])
    values = [top - i for i in range(int(top - lam[-1]) + 1)]
    return itertools.combinations_with_replacement(values, len(lam) - 1)


def cmd_branch(args):
    _json_only(args)
    lam = _weight_of(args)
    _cap_guard(args, lam)
    lines = []
    code = 0
    if args.algebra == "A":
        # multiplicity-free: list the interleaving weights
        ranges = []
        for i in range(len(lam) - 1):
            ranges.append([lam[i + 1] + k
                           for k in range(int(lam[i] - lam[i + 1]) + 1)])
        mus = [[]]
        for r in ranges:
            mus = [m + [v] for m in mus for v in r]
        for mu in sorted(map(tuple, mus)):
            lines.append("mu=(%s)" % ",".join(format_rational(x) for x in mu))
    elif args.rank == 1:
        lines.append("rank 1 restricts to the trivial subalgebra; "
                     "weight multiplicities:")
        freud = freudenthal_multiplicities(args.algebra, lam)
        for w, m in sorted(freud.items()):
            lines.append("weight=(%s): %d"
                         % (",".join(format_rational(x) for x in w), m))
    else:
        table = []
        for mu in _branch_candidates(lam):
            c = branching_multiplicity(lam, mu)
            if c:
                table.append((mu, c))
        table.sort(key=lambda t: t[0], reverse=True)
        parts = []
        total = 0
        for mu, c in table:
            d = weyl_dim("B", mu)
            parts.append("%d*%d" % (c, d))
            total += c * d
            lines.append("mu=(%s): %d"
                         % (",".join(format_rational(x) for x in mu), c))
        want = weyl_dim("B", lam)
        ok = total == want
        lines.append("%s=%d %s" % ("+".join(parts), total,
                                   "ok" if ok else "MISMATCH"))
        if not ok:
            code = 1
    _emit(_text("".join(l + "\n" for l in lines)), args.out)
    return code


def _merge_weight(argv):
    # join "--weight -1/2" into one token; bare rationals starting with a
    # dash would otherwise parse as option names
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--weight" and i + 1 < len(argv):
            out.append("--weight=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_weight(list(argv)))
    handlers = {"dim": cmd_dim, "patterns": cmd_patterns, "build": cmd_build,
                "verify": cmd_verify, "branch": cmd_branch}
    try:
        if args.cap < 1:
            raise CliError(2, "--cap must be at least 1")
        return handlers[args.command](args)
    except CliError as e:
        _say(e.message + "\n")
        return e.code
    except DimensionCapError as e:
        _say(str(e) + "\n")
        return 2
    except ConstructionError as e:
        msg = str(e)
        if e.witness is not None:
            msg += " [witness: %s]" % (e.witness,)
        _say("construction failed: %s\n" % msg)
        return 3
    except Exception as e:
        _say("internal error: %s: %s\n" % (type(e).__name__, e))
        return 4


if __name__ == "__main__":
    sys.exit(main())
