"""Replay the benchmark's CLI corpus against its golden files.

Every command of ``bench/corpus.py`` runs in order, each in its own
interpreter, in one scratch directory; its stdout bytes and exit code must
equal the recorded goldens.  This makes byte-identical CLI output a test-suite
gate, not only a benchmark check.  ``bench/`` is only read, never written.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ inside bench/
    try:
        import corpus
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(os.path.join(ROOT, "bench"))
    return corpus


def test_every_command_matches_its_golden(corpus, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    goldens = corpus.load_goldens()
    corpus.prepare(str(tmp_path))
    mismatches = []
    for name, argv in corpus.COMMANDS:
        out, code, err = corpus.run_command(name, argv, str(tmp_path), env)
        want_out, want_code = goldens[name]
        if (out, code) != (want_out, want_code):
            mismatches.append(f"{name}: exit {code} (golden {want_code}), "
                              f"{len(out)} bytes (golden {len(want_out)}): {err.strip()[-200:]}")
    assert not mismatches, "\n".join(mismatches)
