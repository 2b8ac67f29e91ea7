"""Run one gtrep CLI request in-process with the tracer installed.

    python3 bench/trace_child.py SPANS_OUT -- gtrep-args...

gtrep must be importable (PYTHONPATH=src). The CLI's stdout is captured
and written to this process's stdout unchanged, so its digest can be
checked like an untraced request; the spans go to SPANS_OUT as JSON,
together with the captured output's size. Exits with the CLI's code.
"""

import io
import json
import sys

import tracer


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write(__doc__)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    from gtrep import cli

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    idx = tr.begin("cli.main")
    try:
        code = cli.main(cli_argv)
    finally:
        tr.end(idx)
        sys.stdout = real_stdout
    data = captured.getvalue().encode()
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    doc = tr.to_json()
    doc["output_bytes"] = len(data)
    with open(out_path, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
