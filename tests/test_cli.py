"""Command surface: output shapes, exit codes, files."""

import errno
import gc
import io
import json
import os
import stat
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (A_CORPUS, B_CORPUS, SHIFTED, edited, fresh_so_rep,
                      gl_rep, ref_patterns_json, ref_rep_csv, ref_rep_json,
                      so_rep)
import gtrep.cli as cli
import gtrep.sorep as sorep
from gtrep import (Operator, build_so, check_weight_so,
                   enumerate_patterns_b, pos)
from gtrep.cli import main
from gtrep.exact import format_rational
from gtrep.sorep import ConstructionError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDim:
    def test_spinor(self, capsys):
        code, out, _ = run(capsys, "dim", "--type", "B", "--rank", "1",
                           "--weight", "-1/2")
        assert code == 0 and out.strip() == "2"

    def test_gl(self, capsys):
        code, out, _ = run(capsys, "dim", "--type", "A", "--rank", "3",
                           "--weight", "2,1,0")
        assert code == 0 and out.strip() == "8"

    def test_equals_form(self, capsys):
        code, out, _ = run(capsys, "dim", "--type", "B", "--rank", "2",
                           "--weight=-1,-2")
        assert code == 0 and out.strip() == "35"


class TestBadInput:
    def test_mixed_parity(self, capsys):
        code, _, err = run(capsys, "dim", "--type", "B", "--rank", "2",
                           "--weight", "0,-1/2")
        assert code == 2 and err

    def test_wrong_entry_count(self, capsys):
        code, _, _ = run(capsys, "build", "--type", "A", "--rank", "3",
                         "--weight", "1,0")
        assert code == 2

    def test_unparsable_entry(self, capsys):
        code, _, _ = run(capsys, "dim", "--type", "B", "--rank", "1",
                         "--weight", "x")
        assert code == 2

    def test_zero_denominator(self, capsys):
        code, out, err = run(capsys, "dim", "--type", "A", "--rank", "1",
                             "--weight", "1/0")
        assert (code, out) == (2, "")
        assert err == "bad rational literal: '1/0' (zero denominator)\n"

    def test_increasing_gl_weight(self, capsys):
        code, _, _ = run(capsys, "dim", "--type", "A", "--rank", "2",
                         "--weight", "0,1")
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "build", "--type", "B", "--rank", "2",
                           "--weight", "0,-1", "--cap", "3")
        assert code == 2 and "cap" in err

    def test_cap_below_one(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("weyl_dim ran before the cap was checked")

        monkeypatch.setattr(cli, "weyl_dim", no_work)
        for cmd in ("dim", "patterns", "build", "verify", "branch"):
            for cap in ("0", "-5"):
                code, out, err = run(capsys, cmd, "--type", "B", "--rank",
                                     "1", "--weight", "-1", "--cap", cap)
                assert (code, out, err) == (2, "", "--cap must be at least 1\n")

    def test_internal_error_is_exit_4(self, capsys, monkeypatch):
        def boom(lam, cap=None, trace=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_so", boom)
        code, out, err = run(capsys, "verify", "--type", "B", "--rank", "1",
                             "--weight", "-1")
        assert (code, out, err) == (4, "", "internal error: RuntimeError: boom\n")

    def test_branch_respects_cap(self, capsys):
        # the type A table is a product of row gaps, so it needs the cap
        # as much as any module does
        for algebra, rank, weight in (("A", "2", "10,0"), ("B", "1", "-2"),
                                      ("B", "2", "0,-2")):
            code, out, err = run(capsys, "branch", "--type", algebra,
                                 "--rank", rank, "--weight", weight,
                                 "--cap", "3")
            assert code == 2 and out == "", algebra
            assert "exceeds cap 3" in err

    def test_csv_outside_build(self, capsys):
        for cmd in ("dim", "patterns", "verify", "branch"):
            code, _, _ = run(capsys, cmd, "--type", "B", "--rank", "1",
                             "--weight", "-1", "--format", "csv")
            assert code == 2, cmd


class TestBuildJson:
    def test_spinor_golden(self, capsys):
        code, out, _ = run(capsys, "build", "--type", "B", "--rank", "1",
                           "--weight", "-1/2")
        assert code == 0
        obj = json.loads(out)
        assert obj["algebra"] == {"type": "B", "rank": 1}
        assert obj["highest_weight"] == ["-1/2"]
        assert obj["dimension"] == 2
        assert len(obj["basis"]) == 2
        ops = obj["operators"]
        assert len(ops) == 9
        assert ops["F(0,1)"]["entries"] == [[0, 1, "1/2"]]
        assert ops["F(1,1)"]["entries"] == [[0, 0, "-1/2"], [1, 1, "1/2"]]
        assert ops["F(-1,1)"]["entries"] == []

    def test_trivial_all_zero(self, capsys):
        code, out, _ = run(capsys, "build", "--type", "B", "--rank", "1",
                           "--weight", "0")
        obj = json.loads(out)
        assert code == 0
        assert all(not op["entries"] for op in obj["operators"].values())

    def test_gl_operator_count(self, capsys):
        code, out, _ = run(capsys, "build", "--type", "A", "--rank", "2",
                           "--weight", "1,0")
        obj = json.loads(out)
        assert code == 0
        assert set(obj["operators"]) == {"E(1,1)", "E(1,2)", "E(2,1)", "E(2,2)"}

    def test_output_ends_with_newline(self, capsys):
        _, out, _ = run(capsys, "build", "--type", "B", "--rank", "1",
                        "--weight", "-1")
        assert out.endswith("}\n")


class TestBuildCsv:
    def test_rows_and_quoting(self, capsys):
        code, out, _ = run(capsys, "build", "--type", "B", "--rank", "1",
                           "--weight", "-1/2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "generator,row,col,value"
        assert '"F(0,1)",0,1,1/2' in lines

    def test_deterministic_row_order(self, capsys):
        _, out1, _ = run(capsys, "build", "--type", "B", "--rank", "2",
                         "--weight", "0,-1", "--format", "csv")
        _, out2, _ = run(capsys, "build", "--type", "B", "--rank", "2",
                         "--weight", "0,-1", "--format", "csv")
        assert out1 == out2


# every corpus module, the trivial ones (empty operators) and the
# non-integral gl weights
WRITER_MODULES = ([("A", lam) for lam in A_CORPUS + [(0,)]]
                  + [("A", tuple(x + c for x in lam)) for lam, c in SHIFTED]
                  + [("B", w) for w in B_CORPUS])


def _writer_case(algebra, w):
    return gl_rep(w) if algebra == "A" else so_rep(w)


def _writes(produce, *args):
    # the pieces a streaming writer passes to write, in order
    parts = []
    produce(*args, parts.append)
    return parts


def _module_id(case):
    return "%s(%s)" % (case[0], ",".join(format_rational(Fraction(x))
                                         for x in case[1]))


@pytest.mark.parametrize("algebra, w", WRITER_MODULES,
                         ids=[_module_id(c) for c in WRITER_MODULES])
class TestTemplateWriter:
    """The format-string writers, their writes joined, against json.dumps
    and csv.writer."""

    def test_build_json_matches_json_dumps(self, algebra, w):
        rep = _writer_case(algebra, w)
        assert ("".join(_writes(cli._rep_json, rep))
                == ref_rep_json(algebra, rep.lam, rep))

    def test_build_csv_matches_csv_writer(self, algebra, w):
        rep = _writer_case(algebra, w)
        assert ("".join(_writes(cli._rep_csv, rep))
                == ref_rep_csv(algebra, rep))

    def test_patterns_matches_json_dumps(self, algebra, w, capsys):
        rep = _writer_case(algebra, w)
        code, out, _ = run(capsys, "patterns", "--type", algebra, "--rank",
                           str(rep.n), "--weight",
                           ",".join(map(format_rational, rep.lam)))
        assert code == 0
        assert out == ref_patterns_json(algebra, rep.lam, rep.patterns)


class TestMirrorBlocks:
    """A type B build stores F(i,j) for i + j <= 0 only; the writers emit
    every slot, a mirror block negated from its stored slot, equal to the
    references read through rep.gen at every piece size."""

    @pytest.mark.parametrize("w", [("-1/2", "-3/2"), ("0", "-1", "-1")])
    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_every_slot_written_at_every_piece_size(self, w, size,
                                                    monkeypatch):
        rep = _writer_case("B", w)
        assert all(sum(s) <= 0 for s in rep.gens)
        monkeypatch.setattr(cli, "ROWS_PER_WRITE", size)
        assert ("".join(_writes(cli._rep_json, rep))
                == ref_rep_json("B", rep.lam, rep))
        assert ("".join(_writes(cli._rep_csv, rep))
                == ref_rep_csv("B", rep))


class TestBasisGarbage:
    def test_basis_leaves_no_cyclic_garbage_per_pattern(self):
        # with the collector off, every reference cycle the writer leaves
        # stays for gc.collect to count; the count must not grow with the
        # basis (3 and 1,386 patterns)
        counts = []
        for w in (("-1",), ("-2", "-2", "-3")):
            lam = check_weight_so(w)
            pats = enumerate_patterns_b(lam)
            gc.collect()
            gc.disable()
            try:
                cli._head("B", lam, pats, [].append)
                counts.append(gc.collect())
            finally:
                gc.enable()
        assert counts[0] == counts[1]


class TestSharedEntryText:
    """Entry text made once per index and once per value object, on an
    operator where one object fills many entries and equal values sit in
    distinct objects."""

    def _rep(self):
        # a built module with four stored slots replaced: F(0,2) and F(0,1)
        # are written from F(-2,0) and F(-1,0), negated
        rep = fresh_so_rep(("-1", "-2"))
        dim, wide = rep.dim, 2 ** 70 + 3
        shared = Fraction(-3, 7)
        ent = {}
        for r in range(dim):
            for c in range(dim):
                p = pos(r, c, dim)
                if (r + c) % 3 == 0:
                    ent[p] = shared
                elif (r * c) % 5 == 1:
                    # a new object per entry, equal in value
                    ent[p] = Fraction(-5, 2)
                elif r == c:
                    ent[p] = Fraction(wide if r % 2 else -wide)
                elif r + 1 == c:
                    ent[p] = Fraction(-wide, 2 ** 65 + 1)
        op = Operator(dim, ent)
        neg = -op
        assert len({id(v) for v in op.values()}) < len(op)
        rep.gens.update({(-1, 1): op, (-2, 0): neg, (-1, 0): Operator(dim),
                         (2, -2): op})
        return rep

    def test_json_matches_json_dumps(self):
        rep = self._rep()
        assert ("".join(_writes(cli._rep_json, rep))
                == ref_rep_json("B", rep.lam, rep))

    def test_csv_matches_csv_writer(self):
        rep = self._rep()
        assert ("".join(_writes(cli._rep_csv, rep))
                == ref_rep_csv("B", rep))


# a JSON entry row opens with "[" and a newline at depth 5, a CSV row ends
# with a newline; in the operators no other text does
_JSON_ROW_OPEN = "[\n" + "  " * 5


def _most_rows(parts, row):
    # the most rows one write holds, after the JSON basis or CSV header
    start = next(i for i, p in enumerate(parts)
                 if '"operators"' in p or p.startswith("generator,"))
    return max(p.count(row) for p in parts[start + 1:])


class TestRowPieces:
    """Each block's rows written ROWS_PER_WRITE entries at a time: pieces
    that split a block, exactly fill one, or hold an empty slot."""

    def _sizes(self):
        rep = TestSharedEntryText()._rep()
        n = max(len(op) for op in rep.gens.values())
        # several pieces, all full or the last one short; exactly one
        # piece; one piece with room to spare
        return rep, n, [1, 3, n - 1, n, n + 1]

    def test_json_matches_json_dumps_at_every_piece_size(self, monkeypatch):
        rep, n, sizes = self._sizes()
        want = ref_rep_json("B", rep.lam, rep)
        for size in sizes:
            monkeypatch.setattr(cli, "ROWS_PER_WRITE", size)
            parts = _writes(cli._rep_json, rep)
            assert "".join(parts) == want
            assert _most_rows(parts, _JSON_ROW_OPEN) == min(size, n)

    def test_csv_matches_csv_writer_at_every_piece_size(self, monkeypatch):
        rep, n, sizes = self._sizes()
        want = ref_rep_csv("B", rep)
        for size in sizes:
            monkeypatch.setattr(cli, "ROWS_PER_WRITE", size)
            parts = _writes(cli._rep_csv, rep)
            assert "".join(parts) == want
            assert _most_rows(parts, "\n") == min(size, n)

    @pytest.mark.parametrize("output, row", [("json", _JSON_ROW_OPEN),
                                             ("csv", "\n")])
    def test_no_write_holds_more_than_one_piece(self, output, row,
                                                monkeypatch, capsys):
        argv = _argv(output, "B", "-1,-2")
        _, want, _ = run(capsys, *argv)
        monkeypatch.setattr(cli, "ROWS_PER_WRITE", 4)
        rec = Recorder()
        monkeypatch.setattr(sys, "stdout", rec)
        assert main(argv) == 0
        assert "".join(rec.parts) == want
        assert _most_rows(rec.parts, row) == 4


class Recorder:
    """A stand-in stdout that keeps each write apart."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def _argv(output, algebra, weight):
    # "json" and "csv" name a build output, "patterns" the basis document
    cmd = (["patterns"] if output == "patterns"
           else ["build", "--format", output])
    return cmd + ["--type", algebra, "--rank", str(weight.count(",") + 1),
                  "--weight", weight]


class TestStreamedBuild:
    @pytest.mark.parametrize("output", ["json", "csv", "patterns"])
    @pytest.mark.parametrize("algebra, weight, gens",
                             [("B", "-1,-2", 25), ("A", "2,1,0", 9)])
    def test_written_generator_by_generator(self, algebra, weight, gens,
                                            output, monkeypatch):
        # a build is written at least one write per generator, a patterns
        # document one per pattern; sys.stdout is looked up when the
        # command runs, so the recorder sees every write
        rec = Recorder()
        monkeypatch.setattr(sys, "stdout", rec)
        code = main(_argv(output, algebra, weight))
        assert code == 0
        doc = "".join(rec.parts)
        least = json.loads(doc)["dimension"] if output == "patterns" else gens
        assert len(rec.parts) >= least
        assert 2 * max(map(len, rec.parts)) < len(doc)

    @pytest.mark.parametrize("output", ["json", "csv", "patterns"])
    @pytest.mark.parametrize("algebra, weight",
                             [("B", "-1/2,-3/2"), ("A", "2,1,0")])
    def test_out_file_equals_stdout(self, algebra, weight, output, tmp_path,
                                    capsys):
        argv = _argv(output, algebra, weight)
        _, want, _ = run(capsys, *argv)
        target = tmp_path / "out"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == want.encode()

    def test_construction_failure_writes_nothing(self, tmp_path, capsys,
                                                 monkeypatch):
        def fail(lam, cap=None, trace=None):
            raise ConstructionError("pole", witness=(1, 2))

        monkeypatch.setattr(cli, "build_so", fail)
        target = tmp_path / "old.json"
        target.write_text("previous")
        argv = ["build", "--type", "B", "--rank", "2", "--weight", "-1,-2"]
        for fmt in ("json", "csv"):
            for extra in ([], ["--out", str(target)]):
                code, out, err = run(capsys, *argv, "--format", fmt, *extra)
                assert (code, out) == (3, "")
                assert err == "construction failed: pole [witness: (1, 2)]\n"
        assert target.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    def test_an_entry_off_its_root_exits_3_with_its_witness(self, capsys,
                                                           monkeypatch):
        # the build's span check, run again after one entry is added at
        # (0, 0) of F(-2,-1), whose root is e_{-2} - e_{-1}
        def build(lam, cap=None, trace=None):
            rep = build_so(lam, cap, trace)
            rep.gens[(-2, -1)] = edited(rep.gens[(-2, -1)],
                                        {pos(0, 0, rep.dim): Fraction(1)})
            sorep._check_span_rank(rep)
            return rep

        monkeypatch.setattr(cli, "build_so", build)
        code, out, err = run(capsys, "build", "--type", "B", "--rank", "2",
                             "--weight", "0,-1")
        assert (code, out) == (3, "")
        assert err == ("construction failed: an entry of F(-2,-1) does not "
                       "shift weight by its root [witness: ((-2, -1), 0, 0)]\n")


class TestOutFile:
    def test_atomic_write_and_determinism(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        for p in (p1, p2):
            code, out, _ = run(capsys, "build", "--type", "B", "--rank", "2",
                               "--weight", "-1/2,-1/2", "--out", str(p))
            assert code == 0 and out == ""
        assert p1.read_bytes() == p2.read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "verify", "--type", "B", "--rank", "1",
                             "--weight", "-1",
                             "--out", str(tmp_path / "nope" / "x.json"))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_directory_target_leaves_no_temp_file(self, tmp_path, capsys):
        target = tmp_path / "d"
        target.mkdir()
        code, _, err = run(capsys, "dim", "--type", "A", "--rank", "1",
                           "--weight", "0", "--out", str(target))
        assert code == 2 and len(err.splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]
        assert not list(target.iterdir())

    def test_symlink_is_kept_and_its_target_written(self, tmp_path, capsys):
        argv = ["build", "--type", "B", "--rank", "1", "--weight", "-1/2"]
        _, want, _ = run(capsys, *argv)
        target = tmp_path / "target.json"
        target.write_text("stale")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        dangling = tmp_path / "dangling.json"
        dangling.symlink_to(tmp_path / "new.json")
        for path in (link, dangling):
            code, out, _ = run(capsys, *argv, "--out", str(path))
            assert code == 0 and out == ""
            assert path.is_symlink() and path.read_text() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dangling.json", "link.json", "new.json", "target.json"]

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        argv = ["build", "--type", "B", "--rank", "1", "--weight", "-1/2"]
        _, want, _ = run(capsys, *argv)
        # the output fits the pipe buffer, so the write never blocks on
        # the reader opened here
        assert len(want) < 4096
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, *argv, "--out", str(fifo))
            got = os.read(fd, 1 << 16).decode()
        finally:
            os.close(fd)
        assert code == 0 and out == "" and got == want
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]

    def test_write_error_on_a_special_file_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        monkeypatch.setattr(cli, "open", lambda path, mode: Full(),
                            raising=False)
        code, out, err = run(capsys, "dim", "--type", "A", "--rank", "1",
                             "--weight", "0", "--out", str(fifo))
        assert (code, out) == (2, "")
        assert err == "cannot write %s: %s\n" % (fifo,
                                                 os.strerror(errno.ENOSPC))
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_write_error_inside_a_block_keeps_the_old_file(
            self, tmp_path, capsys, monkeypatch):
        # the k-th write to the temp file is a later piece of an operator
        # block, after the block's head and first rows went out
        monkeypatch.setattr(cli, "ROWS_PER_WRITE", 4)
        rep = _writer_case("B", ("-1", "-2"))
        parts = _writes(cli._rep_json, rep)
        k = 1 + next(i for i, p in enumerate(parts)
                     if p.startswith(",\n        [") and i > 0
                     and parts[i - 1].startswith(",\n        ["))
        fdopen = os.fdopen

        class FullAfter:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, text):
                self.writes += 1
                if self.writes == k:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.f.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: FullAfter(fdopen(fd, mode)))
        target = tmp_path / "old.json"
        target.write_bytes(b"previous\n")
        code, out, err = run(capsys, "build", "--type", "B", "--rank", "2",
                             "--weight", "-1,-2", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == "cannot write %s: %s\n" % (target,
                                                 os.strerror(errno.ENOSPC))
        assert target.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.json"]

    def test_patterns_to_file(self, tmp_path, capsys):
        p = tmp_path / "pats.json"
        code, _, _ = run(capsys, "patterns", "--type", "A", "--rank", "3",
                         "--weight", "2,1,0", "--out", str(p))
        assert code == 0
        obj = json.loads(p.read_text())
        assert obj["dimension"] == 8 and len(obj["basis"]) == 8


class TestStdoutWriteError:
    """Write errors on the real stdout, in a child process, so that the
    interpreter's flush at exit runs too: exit 2 and one stderr line, as
    through --out."""

    def test_reader_closes_early(self):
        # the document (605 KB) outgrows the pipe buffer, so the child
        # is still writing when the reader goes away
        p = subprocess.Popen([sys.executable, "-m", "gtrep", "patterns",
                              "--type", "B", "--rank", "3",
                              "--weight", "-2,-2,-3"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert p.stdout.read(20) == b'{\n  "algebra": {\n   '
        p.stdout.close()
        err = p.stderr.read().decode()
        p.stderr.close()
        assert p.wait() == 2
        assert err == ("cannot write standard output: %s\n"
                       % os.strerror(errno.EPIPE))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "w") as full:
            r = subprocess.run([sys.executable, "-m", "gtrep", "dim",
                                "--type", "A", "--rank", "1",
                                "--weight", "0"],
                               stdout=full, stderr=subprocess.PIPE, text=True)
        assert (r.returncode, r.stderr) == (
            2, "cannot write standard output: %s\n" % os.strerror(errno.ENOSPC))


class TestStderrWriteError:
    """Write errors on the real stderr, in a child process. The deform
    trace is requested output, so losing it exits 2 as on stdout, never
    1 (failed verification); a lost message line changes no exit code."""

    TRACE = ["build", "--type", "B", "--rank", "3",
             "--weight", "-1/2,-3/2,-5/2", "--deform-trace"]

    def test_trace_reader_gone(self):
        # the reader closes before the build ends, so every trace line
        # meets a closed pipe
        p = subprocess.Popen([sys.executable, "-m", "gtrep"] + self.TRACE,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        p.stderr.close()
        out = p.stdout.read()
        p.stdout.close()
        assert (p.wait(), out) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv, code", [
        (TRACE, 2),
        (["dim", "--type", "B", "--rank", "1", "--weight", "1"], 2),
        (["build", "--type", "B", "--rank", "1", "--weight", "-1/2"], 0),
    ], ids=["trace", "message", "quiet"])
    def test_full_device(self, argv, code):
        with open("/dev/full", "w") as full:
            r = subprocess.run([sys.executable, "-m", "gtrep"] + argv,
                               stdout=subprocess.DEVNULL, stderr=full)
        assert r.returncode == code


class TestVerify:
    def test_fast_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "1",
                           "--weight", "-1/2")
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"] == "pass" and len(obj["checks"]) == 3

    def test_full_check_counts(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "2",
                           "--weight", "0,-1", "--level", "full")
        assert code == 0 and len(json.loads(out)["checks"]) == 8
        code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "3",
                           "--weight", "2,1,0", "--level", "full")
        assert code == 0 and len(json.loads(out)["checks"]) == 7

    @staticmethod
    def corrupting(monkeypatch, slot, cell, value):
        # verify builds through cli.build_so; set (or, for 0, remove) one
        # entry, at cell (row, col), of one generator before the checks
        # see it
        def build(lam, cap=None, trace=None):
            rep = build_so(lam, cap=cap, trace=trace)
            rep.gens[slot] = edited(rep.gens[slot],
                                    {pos(*cell, rep.dim): value})
            return rep

        monkeypatch.setattr(cli, "build_so", build)

    def test_corruption_hook_trips(self, capsys, monkeypatch):
        self.corrupting(monkeypatch, (-2, -1), (0, 0), Fraction(1, 3))
        code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "2",
                           "--weight", "0,-1")
        assert code == 1
        assert json.loads(out)["summary"] == "fail"

    def test_corruption_hook_zero_removes_entry(self, capsys, monkeypatch):
        self.corrupting(monkeypatch, (-1, 0), (0, 1), 0)
        code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "1",
                           "--weight", "-1/2")
        assert code == 1
        assert json.loads(out)["summary"] == "fail"


class TestBranch:
    def test_so_table(self, capsys):
        code, out, _ = run(capsys, "branch", "--type", "B", "--rank", "2",
                           "--weight", "0,-1")
        assert code == 0
        lines = out.splitlines()
        assert "mu=(0): 2" in lines
        assert "mu=(-1): 1" in lines
        assert lines[-1] == "2*1+1*3=5 ok"

    def test_half_integer_table(self, capsys):
        code, out, _ = run(capsys, "branch", "--type", "B", "--rank", "2",
                           "--weight", "-1/2,-3/2")
        assert code == 0
        assert out.splitlines() == ["mu=(-1/2): 4", "mu=(-3/2): 2",
                                    "4*2+2*4=16 ok"]

    @pytest.mark.parametrize("w", [w for w in B_CORPUS if len(w) >= 2])
    def test_corpus_tables_close(self, w, capsys):
        code, out, _ = run(capsys, "branch", "--type", "B", "--rank",
                           str(len(w)), "--weight", ",".join(w))
        assert code == 0
        assert out.splitlines()[-1].endswith(" ok")

    def test_gl_betweenness(self, capsys):
        code, out, _ = run(capsys, "branch", "--type", "A", "--rank", "2",
                           "--weight", "1,0")
        assert code == 0
        assert out.splitlines() == ["mu=(0)", "mu=(1)"]

    def test_rank_one_so(self, capsys):
        code, out, _ = run(capsys, "branch", "--type", "B", "--rank", "1",
                           "--weight", "-1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("rank 1")
        assert set(lines[1:]) == {"weight=(-1): 1", "weight=(0): 1",
                                  "weight=(1): 1"}


class TestPatterns:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "patterns", "--type", "B", "--rank", "1",
                           "--weight", "-1")
        obj = json.loads(out)
        assert code == 0
        assert obj["dimension"] == 3
        assert obj["basis"][0]["sigma"] == [0]


# --deform-trace stderr of B (-1/2,-3/2): thirteen raising entries take the
# deformed route
SPINOR_TRACE = (
    "deform: level=1 source=1 target=2 value=-2 + O(t)\n"
    "deform: level=1 source=5 target=4 value=1/2 + O(t)\n"
    "deform: level=1 source=7 target=6 value=1/2 + O(t)\n"
    "deform: level=1 source=9 target=10 value=-2 + O(t)\n"
    "deform: level=1 source=13 target=12 value=1/2 + O(t)\n"
    "deform: level=1 source=15 target=14 value=1/2 + O(t)\n"
    "deform: level=2 source=6 target=13 value=-16/3 + O(t)\n"
    "deform: level=2 source=6 target=1 value=-10/3 + O(t)\n"
    "deform: level=2 source=8 target=2 value=5/6 + O(t)\n"
    "deform: level=2 source=8 target=12 value=5/3 + O(t)\n"
    "deform: level=2 source=9 target=3 value=5/6 + O(t)\n"
    "deform: level=2 source=10 target=1 value=-5/6 + O(t)\n"
    "deform: level=2 source=10 target=13 value=5/3 + O(t)\n"
)


class TestTrace:
    def test_deformation_trace_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "build", "--type", "B", "--rank", "2",
                             "--weight", "-1/2,-3/2", "--deform-trace")
        assert code == 0
        assert json.loads(out)["dimension"] == 16
        assert err == SPINOR_TRACE


def test_console_script_roundtrip():
    # one end-to-end subprocess pass through the installed entry point
    r = subprocess.run([sys.executable, "-m", "gtrep", "dim", "--type", "B",
                        "--rank", "2", "--weight", "-1/2,-3/2"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.strip() == "16"
