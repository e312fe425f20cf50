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
        "synthetic": "4d1ae1eca898685f38ca4b281af6136b7fca6d16477bb33aa7f29ec543404692",
        "eplb": "de72588f8fdbe153e0842c70721c2c087e64ddd613dcacbca9a8edb1c8cec913",
        "synthetic-compressed": "1e24072077ca22d316bcf6b371150c794085ba001ffcdc9a630d603ad07fef7b",
        "eplb-wide": "463f79abd8e803af645bc9f24357e06a9d47049761425b2d3faed0a2ec977346",
        "synthetic-multiparent": "53b184aa7f01f2c16af54b02f0aaf32c5a9759fb05055ce3de6fdc4a9e6f028c",
        "eplb-grpo": "13f279410d3c8ec114b15661ad2533c2f20b4188bb88f45b1aab7d4adc0f276d",
        "eplb-entropic": "268b19378818da8731a4e0cc0f3c7ec4110b30e4e08024462729766bd15e12ae",
        "eplb-maxk": "36679327e92e3f036fbfb81ac235ff487a39c541a4a523730df90f4574d5c5ff",
    },
    # AVX-512 exp/log, Haswell BLAS kernels
    "ee9231e713ee634660a79c03901ec10813ae3a3f45ce2e226c7c8e85d13aa243": {
        "synthetic": "fe27dd490effd9a83dd981585f3499896af6da0fa81cc181bbf393a50342fcbc",
        "eplb": "9dd52096a8fe832f3a2f836ed18a604bdbf7649bccc78e66ebdef81577ec3b32",
        "synthetic-compressed": "47d8ad71f62a7af804b9b7955d77c2fefcced1f19bf806936ac19856cba93329",
        "eplb-wide": "167f655e89357436593a22d6bc403e73c7fbc6cdab801aeb85dff5779cda654a",
        "synthetic-multiparent": "8d60c3c3faa18cea3971b2406366dfd900a6646714cd5e7a92c5e2572dc8f979",
        "eplb-grpo": "96abee31f257d34c4f6bc480e60c95eef083b370204b8a5cee42b4e1b998f29f",
        "eplb-entropic": "01465a5b33c9f946ed20f0b454a8cdf30fe73803e1ebe7b87d49a7097beadde8",
        "eplb-maxk": "b58a31e0afa0a900b709e45e4232b6367a449d24749f6fd9ced23d9aa9abf5cc",
    },
    # AVX2 exp/log, SkylakeX BLAS kernels
    "e20f2ac3d2a72a9bc7752d0ca1bb03dbf30b9a59829771fc617f7657198a2984": {
        "synthetic": "2cd48d618ec4bb658eb5020bf6e53a0a4b19dbd1f4d0ae856cb8ea817038bc19",
        "eplb": "6cb4b63357f47903baa1171feebb2e74715b5d45324a832d7054300cd2b035c2",
        "synthetic-compressed": "1d6e53695720e8de7b78134b20d37d558104e431a5647e01e3cd7b0887ac6ee0",
        "eplb-wide": "778c8345b7516ca0e1c1dac6e7d94a36dabc0ac2d7daed431b3213559519488e",
        "synthetic-multiparent": "068495de3ba05be313cf7aeb351249f9ad3a749bf497342666b7a60ab394c489",
        "eplb-grpo": "5ef5e44cdf11d76b33245795d712a6a3c32f1a68431bd4dbe593156bf9a27c99",
        "eplb-entropic": "72d69a960b7d9c4b18862bffb3366d0947723a9321e7dfbd74e379143e4b8692",
        "eplb-maxk": "7ff18c60e5f53060ac74b4208bcd16500bc8c1a7afe5075480dbde713cd989ad",
    },
    # AVX2 exp/log, Haswell BLAS kernels (an AVX2-only CPU)
    "e07ce9d6895bd66c8b6ee4c106b6af27219c363d3ab5e2eda3340af80a21ed38": {
        "synthetic": "86c63c16048a217139365b67f9e3e064c63fb751d59e619b6f0440daf55f31a9",
        "eplb": "5234bc354a175e7e7ea3b89b55fd6928c1386aed552052e8acb71b3d58a6527b",
        "synthetic-compressed": "44f6b059c5207bbf2b870dd051da2ac9b195991f22d610b7295d939d997a4e13",
        "eplb-wide": "8db958c1f1af038275b749744ab9032f92dde8bf28c0bf97bf280b6c0b8ae9d6",
        "synthetic-multiparent": "1c547894aee2662d4f6b2988870f154cd66141d06c8790f7de3adb8c3bf03125",
        "eplb-grpo": "e80ddff1b87ea66f2b4f4844409b48fbe57ac269da6a18911ee0542d8fa215bd",
        "eplb-entropic": "a3da32ed8f213942a9c62d4ee0e40eba39ab1cf21f1404721ed61093163431d5",
        "eplb-maxk": "690e6fe8aee89ab75c9f2050f1d7e0b1ae4a4d14f7fe23763422e9d94d2132c1",
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
