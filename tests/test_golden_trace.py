"""Pinned sha256 digests of ``trace.jsonl`` for short runs of the sample configs.

The trace is the loop's behaviour: the same config and seed give the same
bytes. A refactor leaves these digests unchanged; a change that alters the
trace on purpose updates them and names the cause in CHANGES.md.

The last bits of a float64 result depend on more than the program: on the
numpy version and on the SIMD kernels numpy picks for the CPU (exp and log
differ between its AVX2 and AVX-512 kernels). They do not depend on the
BLAS library: the loop's dot products are ``einsum`` reductions, and the
only BLAS calls left multiply exact zeros. So the digests are
recorded under one numpy version, once per exp/log kernel set, and the set
in use is identified by ``arithmetic_fingerprint``. Under another numpy
version or an unrecorded kernel set the tests skip and say why.

Run as a script (``PYTHONPATH=src python tests/test_golden_trace.py``), the
file re-runs itself once per kernel set in ``KERNEL_SETS``, each in a child
process with that set's environment, and again with OpenBLAS's Haswell
kernels added. It prints every fingerprint with the digest of every case in
``GOLDEN``'s layout, ready to paste when a change re-pins the digests. If
the Haswell BLAS kernels change a fingerprint or a digest, it prints no
digests and exits 1: the trace has come to depend on the BLAS library. A
kernel set this machine cannot produce gives the fingerprint of one printed
before it, and is reported as such.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from phasevolve.config import parse_config_text
from phasevolve.orchestrator import run_evolution
from phasevolve.tasks import make_task
from phasevolve.trace import read_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_NUMPY = "2.4.6"

# name -> (sample config, overrides appended to it)
CASES = {
    "synthetic": ("synthetic.cfg", {"iterations": 60}),
    "eplb": ("eplb.cfg", {"iterations": 30}),
    # Compressed rewards: the skip rule starts firing near iteration 85.
    "synthetic-compressed": ("synthetic.cfg", {"synthetic.decay_horizon": 8, "iterations": 120}),
    # The benchmark's eplb-wide shape, with fewer iterations.
    "eplb-wide": (
        "eplb.cfg",
        {"eplb.num_experts": 128, "eplb.num_devices": 16, "eplb.num_profiles": 16,
         "iterations": 20},
    ),
    # A noisy evaluator: its noise draws fall between the sampler's.
    "synthetic-noisy": ("synthetic.cfg", {"synthetic.noise": 0.01, "iterations": 60}),
    # The single-source estimator modes, each through the same loop.
    "eplb-grpo": ("eplb.cfg", {"mode": "grpo", "iterations": 30}),
    "eplb-entropic": ("eplb.cfg", {"mode": "entropic", "iterations": 30}),
    "eplb-maxk": ("eplb.cfg", {"mode": "maxk", "iterations": 30}),
    # AdamW's decoupled weight decay, which every other case sets to zero.
    "synthetic-decay": ("synthetic.cfg", {"weight_decay": 0.1, "iterations": 60}),
}

# arithmetic_fingerprint() -> case name -> sha256 of trace.jsonl
GOLDEN = {
    # AVX-512 exp/log
    "ca2e00ffbb8bf5d2d9416ef84e4711cb42d028fa70d245ec17bd190c0aeb5796": {
        "synthetic": "362ad8c84992558fe138e3b10697a8c8cfa7b80b8df635874509e9f14a705f49",
        "eplb": "48bea7b9888b57a1883afa4bcf2019cd3be5cd6a75be4f459aad7b62b526bb09",
        "synthetic-compressed": "dedc0579839273f2a117d99762ef768879b17bc21c7db45f29d1b7a4b18ca1c9",
        "eplb-wide": "5226c79c56fffc117bcc6624b98cb7d08ce4963f135f7674156d5b5e3c5646d6",
        "synthetic-noisy": "4bac6078bf92c2ab1d88650c837eeb81c72a834890e1c0ab411256292e4cae86",
        "eplb-grpo": "5d701b9cf277c0a423453462d353064ee7e380b37ab865459e60e3de8f945b06",
        "eplb-entropic": "5140238f21084c56e00eb4b7787711ca92154ff15c1626bc175ca1a28bd1bdfa",
        "eplb-maxk": "421890658f4aba06bde336f610c4b273a1a8edbb1fc15ff6b049e12add88308d",
        "synthetic-decay": "a047714cf4725c011fd142e74a81b8731ed39c92b90baf33e262fb64d9a11e12",
    },
    # AVX2 exp/log
    "083853c952ee32b1b19fca95cf8db250a772740acb29df6cabaedeea609bd2ba": {
        "synthetic": "c7313dc46e21d14c6c0a67eb4a26688f57039e94917b45384753a187ad473863",
        "eplb": "699ec8c3359d7136d8c48e33e75552550d484757b3c3ed47577def8cf1270aa8",
        "synthetic-compressed": "a065e81891f81fd8eb27a2324fe892f28939c90b73011dd87db873536b206f83",
        "eplb-wide": "48da21138ecb26d09c5c26d477f03631a26c50919a2a59188965e3d4f80d374e",
        "synthetic-noisy": "9cafe4c346ca6924f0e4c73a9ad69958f45f95fac5e357435026975ed4971917",
        "eplb-grpo": "f5be0beaa81bd97c14634d6735e7e7f0841b767d9beabe453333b67d8a6d0c2a",
        "eplb-entropic": "4de9716fbf722495e6d0303ec3923ab6a09cf0ac2b26091f68d84ee4a5b91da1",
        "eplb-maxk": "cf6ee3e94ebdc5023a7e444fc14ca5a3fe702ecb75d48060f1d82f67b3030fb5",
        "synthetic-decay": "4ba77af7582eab18cd7030399fdb9708256b7b84b2bc593528371e6450ebb105",
    },
}


def arithmetic_fingerprint() -> str:
    """sha256 of a few float64 kernels at the sample configs' shapes.

    Covers exp, log and the ``einsum`` reductions the loop computes its dot
    products with, and no BLAS call; it changes when the kernels that
    compute them do.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=(25, 24))
    parts = [np.exp(x), np.log(np.abs(x)), np.einsum("ij,ij->i", np.exp(x), x),
             np.einsum("i,i->", x[0, :8], x[1, :8])]
    return hashlib.sha256(b"".join(part.tobytes() for part in parts)).hexdigest()


def run_trace(name: str, out: Path) -> Path:
    sample, overrides = CASES[name]
    text = (CONFIGS / sample).read_text()
    text += "\n" + "".join(f"{key} = {value}\n" for key, value in overrides.items())
    config = parse_config_text(text)
    trace_path = out / "trace.jsonl"
    run_evolution(config, make_task(config), trace_path)
    return trace_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_is_pinned(name, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"digests recorded under numpy {GOLDEN_NUMPY}, running {np.__version__}")
    fingerprint = arithmetic_fingerprint()
    if fingerprint not in GOLDEN:
        pytest.skip(f"no digests recorded for this machine's float kernels ({fingerprint[:12]})")
    trace_path = run_trace(name, tmp_path)
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == GOLDEN[fingerprint][name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_trace_line_is_canonical_json(name, tmp_path):
    # Runs on any kernel set: the bytes may differ from the pinned ones, but
    # each line, candidate lines from the template included, must be what
    # json.dumps writes for the record it holds.
    lines = run_trace(name, tmp_path).read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""
    for line in lines[:-1]:
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))


def test_compressed_case_covers_skipped_and_trained_steps(tmp_path):
    trace_path = run_trace("synthetic-compressed", tmp_path)
    skipped = [r["skipped"] for r in read_trace(trace_path) if r["kind"] == "step"]
    assert any(skipped) and not all(skipped)


# The exp/log kernel sets CI checks the digests under, as environment
# settings of a process: numpy's AVX2 exp/log kernels stand in for AVX-512
# ones when their names are disabled. The default set runs without the
# setting, even where the caller has one.
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"
KERNEL_SETS = {
    "AVX-512 exp/log": {},
    "AVX2 exp/log": {"NPY_DISABLE_CPU_FEATURES": AVX2_ONLY},
}
# Added to each kernel set to check that the BLAS library moves no digest.
HASWELL_BLAS = {"OPENBLAS_CORETYPE": "Haswell"}


def print_digests() -> None:
    """Print this process's fingerprint and every case's digest."""
    print(f'    "{arithmetic_fingerprint()}": {{')
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digest = hashlib.sha256(run_trace(name, Path(tmp)).read_bytes()).hexdigest()
        print(f'        "{name}": "{digest}",')
    print("    },")


def main() -> int:
    """Print the digests of every kernel set, each from its own child process.

    Each set also runs under ``HASWELL_BLAS``; if that changes its output,
    no digest is printed, stderr names the set, and the exit status is 1.
    """
    names = {name for settings in (*KERNEL_SETS.values(), HASWELL_BLAS) for name in settings}
    base = {k: v for k, v in os.environ.items() if k not in names}
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "import test_golden_trace; test_golden_trace.print_digests()"
    )

    def digests(settings: dict[str, str]) -> str:
        return subprocess.run(
            [sys.executable, "-c", code], env={**base, **settings},
            check=True, capture_output=True, text=True,
        ).stdout

    outputs = {}
    for label, settings in KERNEL_SETS.items():
        outputs[label] = digests(settings)
        if digests({**settings, **HASWELL_BLAS}) != outputs[label]:
            print(f"{label}: OpenBLAS's Haswell kernels change the fingerprint or a digest, "
                  "so the trace depends on the BLAS library; no digests printed",
                  file=sys.stderr)
            return 1
    seen: dict[str, str] = {}
    for label, out in outputs.items():
        fingerprint = out.split('"')[1]
        if fingerprint in seen:
            print(f"    # {label}: not produced here, same fingerprint as {seen[fingerprint]}")
            continue
        seen[fingerprint] = label
        print(f"    # {label}")
        print(out, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
