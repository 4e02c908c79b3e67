"""The edge command lines of the front end, and the digest of the exit
code and body that ``run_command`` answers to each: help, version and
malformed argv at both levels, and failures of every kind; then text
attached to "-h" and JSON with a trailing comma, which ``argparse`` and
``json`` read differently from Python 3.13 on. The digest was computed on
Python 3.11 before the package read them alike on every version.

It imports neither pytest nor hypothesis, so an interpreter that has
neither checks the digest in process, exiting 1 if it differs::

    PYTHONPATH=src python tests/edge_argv.py
"""

import hashlib
import sys

from tracerange.cli import run_command

DYADIC = "geo(1/2, 1/2)"
CANTOR = "geo(2/3, 1/3)"

EDGE_ARGV = [
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["check", "--help"],
    ["range", "-h"],
    ["extreme", "--help"],
    ["extreme", "encode", "-h"],
    ["check", "--version"],
    ["bogus"],
    ["extreme"],
    ["extreme", "bogus"],
    ["--file", "x", "check"],
    ["range", CANTOR, "--depth=3"],
    ["range", CANTOR, "--dep", "3"],
    ["range", CANTOR, "--format", "xml"],
    ["range", CANTOR, "--depth", "24"],
    ["gaps", CANTOR, "--depth", "x"],
    ["check", "--", DYADIC],
    ["check", "-1/2"],
    ["check", DYADIC, "extra"],
    ["check", "1/2,,"],
    ["check", "0"],
    ["expand", DYADIC],
    ["expand", DYADIC, "2"],
    ["extreme", "encode", "2", "extra"],
    ["digits", "2"],
    ["-hzzz"],
    ["-hv"],
    ["check", "-hzzz"],
    ["check", DYADIC, "-hx"],
    ["check", "-hhx"],
    ["check", "-hh"],
    ["check", "-h=zzz"],
    ["check", "-h-x"],
    ["check", "--", "-hzzz"],
    ["expand", "-h1"],
    ["extreme", "-hx"],
    ["extreme", "encode", "-h2"],
    ["check", "--help=x"],
    ["check", "--he"],
    ["--vers"],
    ["--version=1"],
    ["range", CANTOR, "--f", "csv"],
    ["range", CANTOR, "--depth", "-hzzz"],
    ["check", '{"prefix": ["1/2",]}'],
    ["check", '{"prefix": ["1/2" , ]}'],
    ["check", '{"prefix": ["1/2"],}'],
]
EDGE_DIGEST = "bc78129f43bfbb0458f4bcaa9add21494b2cbc235373d7fa9813ab03e5359953"


def edge_digest() -> str:
    digest = hashlib.sha256()
    for argv in EDGE_ARGV:
        result = run_command(argv)
        digest.update(repr((result.exit_code, result.body)).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    found = edge_digest()
    print(found)
    sys.exit(found != EDGE_DIGEST)
