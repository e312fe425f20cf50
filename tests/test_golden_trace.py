"""Pinned sha256 digests of ``trace.jsonl`` for short runs of the sample configs.

The trace is the loop's behaviour: the same config and seed give the same
bytes. A refactor leaves these digests unchanged; a change that alters the
trace on purpose updates them and names the cause in CHANGES.md.

The last bits of a float64 result depend on more than the program: on the
numpy version, on the SIMD kernels numpy picks for the CPU (exp and log
differ between its AVX2 and AVX-512 kernels) and on the BLAS kernels. So
the digests are recorded under one numpy version, once per set of kernels,
and the set in use is identified by ``arithmetic_fingerprint``. Under
another numpy version or an unrecorded kernel set the tests skip and say why.

Run as a script (``PYTHONPATH=src python tests/test_golden_trace.py``), the
file re-runs itself once per kernel set in ``KERNEL_SETS``, each in a child
process with that set's environment, and prints every fingerprint with the
digest of every case in ``GOLDEN``'s layout, ready to paste when a change
re-pins the digests. A kernel set this machine cannot produce gives the
fingerprint of one printed before it, and is reported as such.
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
}

# arithmetic_fingerprint() -> case name -> sha256 of trace.jsonl
GOLDEN = {
    # AVX-512 exp/log, SkylakeX BLAS kernels
    "24937bbe441f55b4b9b07786f6aa6b4f491b32bd7a3b52582f644770ce9e0e8a": {
        "synthetic": "d5484e93a6169f09c51f6a21339af85df5e7c92fdb893820ae8a869e71af9442",
        "eplb": "0e08b239e29e9d550eb6d2b1d5ab029be1f0539c52f79397f80d534e7b77b356",
        "synthetic-compressed": "674df99c3717807231d2f200e70723c981af453ce3a046b0c893c10c05223036",
        "eplb-wide": "ec4d5c28cbaa889fb35d5cd3d73c9d9d45f4d4816c0d6e7bee2d25b71a56a686",
        "synthetic-noisy": "a095e65c14423ccf18ebfe106a2e773cab5770509b405f501088c42756029a75",
        "eplb-grpo": "619ac2f26b28253d37b03af51dbdb443bb4eea0bcd0989e41a5297dbf6e39949",
        "eplb-entropic": "dfc54657941366bde868b9a046b9a4289e1d96ab97e9249b904fb595e9170b0d",
        "eplb-maxk": "fe0860d72ec108fbbf0629be1b8cf34ba02f9de86ee5d7ae34b49038e672d1ab",
    },
    # AVX-512 exp/log, Haswell BLAS kernels
    "ee9231e713ee634660a79c03901ec10813ae3a3f45ce2e226c7c8e85d13aa243": {
        "synthetic": "fd544a38a522196664ac57b3ae2c7e6e77de3c447949fe644b6c53d767523f9f",
        "eplb": "ec6cc59bd3619ed04dcf0ada22244f633cc7bda2612650dbcf39ecdd0e62cbac",
        "synthetic-compressed": "722ecfbca2f35704a0e1f7d2f10a2e6bd3c47739cd91282f3f60ca83d299328b",
        "eplb-wide": "d5cfdf0a263bf3c3a153f4c34b083bbd79d812d128fff6e80a8848c680792f96",
        "synthetic-noisy": "55e85ab0e5c09773cde75cf2eb03df06fde16ec9f2d615892fc5e066a2fa2d4d",
        "eplb-grpo": "cba165ea9e6d8c65bf8a1f7c2798485aeacabc8ef79a524c2cd5b3e74e00e8d4",
        "eplb-entropic": "f14605499a9e3a200961f59b3680937d2b49ad8ac1ae1bca81a096b6b1438328",
        "eplb-maxk": "0a60e98b39544868d228eb0c23fe528c369a1729a12d79a0a533cf9291ae967d",
    },
    # AVX2 exp/log, SkylakeX BLAS kernels
    "e20f2ac3d2a72a9bc7752d0ca1bb03dbf30b9a59829771fc617f7657198a2984": {
        "synthetic": "f5a269647869eb397dc9c6a4b3698c2964e6dd13677401c694c8e3840b9d0f4d",
        "eplb": "f70177461355464d4fb759ad6a40b0e21d75ab4262a27590c25531bf373f412f",
        "synthetic-compressed": "03ef21731f1901f502b5275093fa0dd07d0c812c484eab54722fd9663d811028",
        "eplb-wide": "07e9901df615870e033b0b2971d18c1bfe6ace44ab8cd46c16ef29944612850b",
        "synthetic-noisy": "fe38f177ff7cef24b8cc6f3156474d1308ac4e126b9a40ec13d061aace17f0db",
        "eplb-grpo": "e7533740308468bef5a7d6ceff3c5472d9c4af0000fd56eb3751afc7005a354e",
        "eplb-entropic": "f10dfc6ef8748bce0b3574a8b9ab274ba62623c782b1f354b6e2c0d01725d1b5",
        "eplb-maxk": "cefc3829c6c876f37b3ba14fd61daab14bc705adc5faeaefeb231a2190ffd200",
    },
    # AVX2 exp/log, Haswell BLAS kernels (an AVX2-only CPU)
    "e07ce9d6895bd66c8b6ee4c106b6af27219c363d3ab5e2eda3340af80a21ed38": {
        "synthetic": "36fa27166b258ebb09f446e94a3c4a54ca63488ff5f4aed3ec2a2ac9d65b43d8",
        "eplb": "94ef474967ce2f717cc6d11a62a99b782d85cbd2723f33c9cb0d7fb2b567ace4",
        "synthetic-compressed": "85bb39bcb8552a63ed93d8938a74bfd0d05d2d2b08989272523d95f61334117b",
        "eplb-wide": "36e4f5bb5279cc7423576825f5e61b2884b9f448bf3d4e796d341096d831b998",
        "synthetic-noisy": "c3efef175c9fe886625a87237475f30b14097e1dc3640407e9f904a31a8689a1",
        "eplb-grpo": "46311b8bf7c63dd3faa6330768616d9e94ddda501cc423e945d800f02b4c2820",
        "eplb-entropic": "4050061e9fdb83f1ada616d5f70c9caf8f647f6e02e7a1d482e4d90d9396d01c",
        "eplb-maxk": "38b96218a02a495270ca3f21dc2b89fb08b6802afd14a65cc8f69d0d5e94343f",
    },
}


def arithmetic_fingerprint() -> str:
    """sha256 of a few float64 kernels at the sample configs' shapes.

    Covers exp and log and BLAS dot, vector-matrix and matrix-vector
    products; it changes when the kernels that compute them do.
    """
    rng = np.random.default_rng(0)
    x = rng.normal(size=(25, 24))
    w = rng.normal(size=(32, 24))
    c = rng.normal(size=(8, 32))
    parts = [np.exp(x), np.log(np.abs(x)), w[0] @ w.T @ w, w @ x[0], x[0, :8] @ c,
             np.dot(x[0], x[1])]
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


# The kernel sets CI checks the digests under, as environment settings of a
# process: numpy's AVX2 exp/log kernels stand in for AVX-512 ones when
# their names are disabled, and OpenBLAS takes the kernels it is told. The
# default set runs without either setting, even where the caller has one.
AVX2_ONLY = "X86_V4 AVX512_ICL AVX512_SPR"
KERNEL_SETS = {
    "default kernels": {},
    "OPENBLAS_CORETYPE=Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    f'NPY_DISABLE_CPU_FEATURES="{AVX2_ONLY}"': {"NPY_DISABLE_CPU_FEATURES": AVX2_ONLY},
    "both": {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": AVX2_ONLY},
}


def print_digests() -> None:
    """Print this process's fingerprint and every case's digest."""
    print(f'    "{arithmetic_fingerprint()}": {{')
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digest = hashlib.sha256(run_trace(name, Path(tmp)).read_bytes()).hexdigest()
        print(f'        "{name}": "{digest}",')
    print("    },")


def main() -> None:
    """Print the digests of every kernel set, each from its own child process."""
    names = {name for settings in KERNEL_SETS.values() for name in settings}
    base = {k: v for k, v in os.environ.items() if k not in names}
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "import test_golden_trace; test_golden_trace.print_digests()"
    )
    seen: dict[str, str] = {}
    for label, settings in KERNEL_SETS.items():
        out = subprocess.run(
            [sys.executable, "-c", code], env={**base, **settings},
            check=True, capture_output=True, text=True,
        ).stdout
        fingerprint = out.split('"')[1]
        if fingerprint in seen:
            print(f"    # {label}: not produced here, same fingerprint as {seen[fingerprint]}")
            continue
        seen[fingerprint] = label
        print(f"    # {label}")
        print(out, end="")


if __name__ == "__main__":
    main()
