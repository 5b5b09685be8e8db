"""The benchmark's correctness gates must count bad outputs as failures.

Run from the root of the source tree:

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from qdelcode import cli, codes, quantum  # noqa: E402

import workload  # noqa: E402


def one_op(w, i: int = 0) -> workload.Tally:
    tally = workload.Tally()
    sample = w.sample(i)
    tally.add(w, sample, *workload.attempt(w, sample))
    return tally


def test_check_gate_counts_a_family_failing_c1(tmp_path):
    words = sorted(codes.build_highrate_partition(codes.HighRateParams(2, 8)).words())
    regrouped = codes.FamilySet([words[k : k + 4] for k in range(0, len(words), 4)])
    w = workload.CheckWorkload(tmp_path, seed=0)
    cli.write_family_file(str(w.path), regrouped)

    code, out, _ = w.run(None)
    assert code == 1 and "C1 PASS" not in out.splitlines()
    tally = one_op(w)
    assert (tally.attempted, tally.failed, tally.times) == (1, 1, [])


def test_roundtrip_gate_counts_a_corrupted_decoded_state(tmp_path, monkeypatch):
    w = workload.RoundtripWorkload(tmp_path, seed=0)
    w.code = quantum.CodeInstance(codes.build_highrate_partition(codes.HighRateParams(1, 4)))
    assert one_op(w).failed == 0

    decode_branch = quantum.decode_branch

    def corrupted(code, label, branch):
        # shift every amplitude to the next message index
        members = []
        for weight, state in decode_branch(code, label, branch).members:
            shifted = {
                code.message_word((int(x, 2) + 1) % code.dimension): a
                for x, a in state.amplitudes.items()
            }
            members.append((weight, quantum.SparseState(state.qubits, shifted)))
        return quantum.Ensemble(tuple(members))

    monkeypatch.setattr(quantum, "decode_branch", corrupted)
    for i in range(4):  # basis messages and one random message
        tally = one_op(w, i)
        assert (tally.attempted, tally.failed, tally.times) == (1, 1, [])
