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
"""

import hashlib
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
    # A parent per candidate: several distinct contexts per group, and the
    # evaluator's noise draws fall between the sampler's.
    "synthetic-multiparent": (
        "synthetic.cfg",
        {"archive.per_candidate_parents": "true", "synthetic.noise": 0.01, "iterations": 60},
    ),
    # The single-source estimator modes, each through the same loop.
    "eplb-grpo": ("eplb.cfg", {"mode": "grpo", "iterations": 30}),
    "eplb-entropic": ("eplb.cfg", {"mode": "entropic", "iterations": 30}),
    "eplb-maxk": ("eplb.cfg", {"mode": "maxk", "iterations": 30}),
}

# arithmetic_fingerprint() -> case name -> sha256 of trace.jsonl
GOLDEN = {
    # AVX-512 exp/log, SkylakeX BLAS kernels
    "24937bbe441f55b4b9b07786f6aa6b4f491b32bd7a3b52582f644770ce9e0e8a": {
        "synthetic": "07172c3687d89e09a1f634cc2c4938fd218c82637dea55fab5b5fd12881eae1a",
        "eplb": "0d601f9e1d1f6e38699be4e64ae57e99b77d0cf8f75de5d9c7b4560c4c4ea04c",
        "synthetic-compressed": "a2eec117cd0a15eb4c90ce26ff14e9ebd2a18b3ab0fc8b0da53beb994399853e",
        "eplb-wide": "04a2f3b2d35bfc138438bc102a96860b772d83664ee666ee9c442525c5e134b4",
        "synthetic-multiparent": "64982ca88c044919a53de9796f952ba0f6021f28e7abdda71c5868e46c29199e",
        "eplb-grpo": "c4319ab46552f9bf422c227949787848fbbd80086dfd0a0d0dfa7cf26a3c1c5a",
        "eplb-entropic": "fae59c43f6f5153ac412f0fec4e78ee5775f6977bc31499b971d679cb8743897",
        "eplb-maxk": "6478ab8f19e9dae1abd72e1d7432d8fb3f3bc06ddc5e0b53d5c19f48049381bc",
    },
    # AVX-512 exp/log, Haswell BLAS kernels
    "ee9231e713ee634660a79c03901ec10813ae3a3f45ce2e226c7c8e85d13aa243": {
        "synthetic": "7c8f135d5302f02c78a0f6b5ae4d1cdcb99f3047b72d17542b6b6e2d11d522ac",
        "eplb": "f7587cf43905c51e59207c8b47ef772aa7d0fceca58b70b83e3870888dea1774",
        "synthetic-compressed": "78aa41a4930e265a2d4663afa25959cff332edaa3c4258289d4d36d1a487e936",
        "eplb-wide": "56686acc495e459d3bc0d54e3126e608098e5567d0f43c0440f8ea1c9c49b592",
        "synthetic-multiparent": "b4b97bd81047944d536f21246abd82d03bb63abe6efe305347f543991c19987a",
        "eplb-grpo": "c8b4f585b251387230f577602a4ed0da9dba1759b4e3e6fab6c9f88d4b4e0978",
        "eplb-entropic": "631b9cdf29fa004505c660885e26b21fec8ced1aafd74f79070591b6feca4111",
        "eplb-maxk": "c3951ded9cd7a1ceee65fa5955a72507b4a562ab61c2fa9848ce309ef34212f9",
    },
    # AVX2 exp/log, SkylakeX BLAS kernels
    "e20f2ac3d2a72a9bc7752d0ca1bb03dbf30b9a59829771fc617f7657198a2984": {
        "synthetic": "90120d7f42f2248dabe1d7a3fd76717326e0d1ca558e7d090456ccee119f2ced",
        "eplb": "e0dda4204301117e865d0645407e81cdeb3d37f4d31c02dbdbf155410defdbec",
        "synthetic-compressed": "761ee3f8817a9f6df2162bc33110199c68ecd296b0aa20075a89d976120e84c5",
        "eplb-wide": "b28a8d98f42ce827d327e9f21a6804a0a01ca0d11dfa8ee98a454e6eff972992",
        "synthetic-multiparent": "33476ed12c74a4795809cbdcdf07d2a6d867bbca79b272d4ba7d258c016f6ec3",
        "eplb-grpo": "a7032a35859e39a0edf51499cad6fab66e5131171f3926420a5be104b49645c1",
        "eplb-entropic": "bdd4fca6fbfd512da71887013cc0ffc22208934b3d7970dc2e3a08ca8c110ec1",
        "eplb-maxk": "434046008b19eb34c571c96d65b294ad32a8b002ca3281e8c181391623c3474c",
    },
    # AVX2 exp/log, Haswell BLAS kernels (an AVX2-only CPU)
    "e07ce9d6895bd66c8b6ee4c106b6af27219c363d3ab5e2eda3340af80a21ed38": {
        "synthetic": "b621a3ca0a0768a1aa55f23c68402d5baa671dffdd73259e61bd61119e145be8",
        "eplb": "659c6401c1f949788fb27e5bf5f28a09b334cec9d18abca6e43c0bc7305229ee",
        "synthetic-compressed": "db751c881a59072162df4dc80a7ef1af82bc52ce57d9f4b0ad0f93145a1f0fb9",
        "eplb-wide": "f3a3dab8e5dc53b279161265999647faba1cb3dcb0f23c6c1699f91c17a5ff3e",
        "synthetic-multiparent": "5015dc00c9fc2725cbf8730aea05cfc064fae5300d3ef15787853bf5049c42c0",
        "eplb-grpo": "d0f8a0ce87154ca4b44bd4eebbd0ff1a79cf05d15916dd60f01c1f05f36337be",
        "eplb-entropic": "fe8255084eae47b180c32a3f8d1593b39bc359643f90ccc35cb2c6987404c1f6",
        "eplb-maxk": "7c8b9bb322c0b8e90349836096f87789e56c6150979b6ce688d9ae8453187960",
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


def test_compressed_case_covers_skipped_and_trained_steps(tmp_path):
    trace_path = run_trace("synthetic-compressed", tmp_path)
    skipped = [r["skipped"] for r in read_trace(trace_path) if r["kind"] == "step"]
    assert any(skipped) and not all(skipped)


def test_multiparent_case_has_several_contexts_per_group(tmp_path):
    trace_path = run_trace("synthetic-multiparent", tmp_path)
    parents: dict[int, set] = {}
    for record in read_trace(trace_path):
        if record["kind"] == "candidate":
            parents.setdefault(record["iteration"], set()).add(record["parent_id"])
    assert max(len(ids) for ids in parents.values()) > 1
