"""Race reports and the loss audit do not depend on the hash seed.

``detect_races`` compares personalities' final values and waveforms kept in
dicts keyed by signal names, and a traced batch migration records lineage
whose subjects are design and instance names; both orders change with
``PYTHONHASHSEED`` if a set or dict order leaks into them.  This runs, in
three interpreters with different hash seeds:

* ``detect_races`` on racy and race-free modules, rendering every report
  field in order;
* ``cadinterop trace migrate-batch --generate 4`` and then ``cadinterop
  audit --json`` on the trace it wrote;

and requires the same bytes from each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HASH_SEEDS = ("0", "1", "2")

#: Runs ``detect_races`` on a few modules and prints every report as JSON.
RACES = '''
import json
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.races import detect_races

RACY = """
module race (clk);
  input clk;
  reg clk, b, d, flag, flag2, flag3;
  wire a;
  assign a = b;
  always @(posedge clk) if (a != d) flag = 1; else flag = 0;
  always @(posedge clk) if (b != d) flag2 = 1; else flag2 = 0;
  always @(posedge clk) flag3 = b;
  always @(posedge clk) b = d;
  initial begin d = 1'b1; b = 1'b0; flag = 1'b0; flag2 = 1'b0; flag3 = 1'b0;
    clk = 1'b0; #5 clk = 1'b1; #5 clk = 1'b0; #5 d = 1'b0; #5 clk = 1'b1; end
endmodule
"""

CLEAN = """
module clean (clk);
  input clk;
  reg clk, b, d, flag;
  always @(posedge clk) b <= d;
  always @(posedge clk) flag <= d;
  initial begin d = 1'b1; b = 1'b0; flag = 1'b0; clk = 1'b0; #5 clk = 1'b1; end
endmodule
"""

out = []
for source in (RACY, CLEAN):
    report = detect_races(parse_module(source), until=100)
    out.append({
        "summary": report.summary(),
        "personalities": report.personalities,
        "divergences": [
            [d.signal, list(d.final_values.items()), d.waveform_mismatch]
            for d in report.divergences
        ],
    })
print(json.dumps(out))
'''


def _run(args, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode in (0, 1), completed.stderr
    return completed.stdout


def outputs_under(hash_seed: str, work: Path) -> dict:
    trace = work / f"trace-{hash_seed}.jsonl"
    _run(
        ["-m", "cadinterop.cli", "trace", "--trace-out", str(trace),
         "migrate-batch", "--generate", "4"],
        hash_seed,
    )
    return {
        "races": _run(["-c", RACES], hash_seed),
        "audit": _run(["-m", "cadinterop.cli", "audit", "--json", str(trace)], hash_seed),
    }


@pytest.fixture(scope="module")
def outputs_by_seed(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("hash-seed")
    return {seed: outputs_under(seed, work) for seed in HASH_SEEDS}


def test_race_reports_are_independent_of_hash_seed(outputs_by_seed):
    first, *others = (outputs["races"] for outputs in outputs_by_seed.values())
    assert '"divergences": [["' in first  # the racy module diverges
    for other in others:
        assert other == first


def test_loss_audit_is_independent_of_hash_seed(outputs_by_seed):
    first, *others = (outputs["audit"] for outputs in outputs_by_seed.values())
    assert '"losses"' in first
    for other in others:
        assert other == first
