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
        "synthetic": "7e42715caacadd909f3a26b7e0b7de4bb13910a9a53c49585321e7988c8aaf29",
        "eplb": "9d4fb23ff78ca1f22e10ac125a00641a59db97165d5b6b0850048e915a563bc7",
        "synthetic-compressed": "7be468a3ed33cb9c3fe458b9d591f439029a4e3fcaed7f5730bae1144380e02b",
        "eplb-wide": "4dff519dfe4261138116013149ba4bc4ad47c970f9a511128b812c65ef3491d6",
        "synthetic-multiparent": "56ce9a5ed7fb151d1e27c23710ae5b4798e80e1f7980974f8b45dbe8167c98d7",
        "eplb-grpo": "c4319ab46552f9bf422c227949787848fbbd80086dfd0a0d0dfa7cf26a3c1c5a",
        "eplb-entropic": "fae59c43f6f5153ac412f0fec4e78ee5775f6977bc31499b971d679cb8743897",
        "eplb-maxk": "8937b2c6107a4cad91c0143eb44d228b4602cdd3a043857704b255d6e88c0bf5",
    },
    # AVX-512 exp/log, Haswell BLAS kernels
    "ee9231e713ee634660a79c03901ec10813ae3a3f45ce2e226c7c8e85d13aa243": {
        "synthetic": "13ba75632db562e569f2aaabcfb5317a440397a45ac0ad512b46f2a9331b7691",
        "eplb": "a4ccf530ab682bfac2fc938193485354c1483993cd64b00f234bb55bbaa852fa",
        "synthetic-compressed": "f343adb21af5985ed212afc720b5ce263e2bb93e533c0066ce1b147fdbb926a4",
        "eplb-wide": "f81eea36dd6bffb08c47fe53743a7898ac2a415224760b8fc4c9583a56eb3774",
        "synthetic-multiparent": "23f77f4aca963123420ee46cff362fe8d5630ff3ada669de3c1cdebda1cec990",
        "eplb-grpo": "c8b4f585b251387230f577602a4ed0da9dba1759b4e3e6fab6c9f88d4b4e0978",
        "eplb-entropic": "631b9cdf29fa004505c660885e26b21fec8ced1aafd74f79070591b6feca4111",
        "eplb-maxk": "0937afe10c60253cb52609a895732677a852d0c7f783caf88eb1fdf032f250f3",
    },
    # AVX2 exp/log, SkylakeX BLAS kernels
    "e20f2ac3d2a72a9bc7752d0ca1bb03dbf30b9a59829771fc617f7657198a2984": {
        "synthetic": "b2338ad5062ab06c07b92d4def6b5b8fa2a2123d40aa5b06c1a3148e1ac9ab7f",
        "eplb": "7223b384c3792283906836c00e321c999cdcf9936427f6ff1317a057366d5b09",
        "synthetic-compressed": "6a478424e85b38deb50a6e85d3b8218f801d2056e647563808c4467d255c2aa3",
        "eplb-wide": "46897d81f6c2ce3d22df26eecf34bfa2285cf1bfe2ab94736f68b3a096a172b3",
        "synthetic-multiparent": "cc55c6a380d9607341d2b3d04a117ee97f397be1281e40c150f6ab78a75217b8",
        "eplb-grpo": "a7032a35859e39a0edf51499cad6fab66e5131171f3926420a5be104b49645c1",
        "eplb-entropic": "bdd4fca6fbfd512da71887013cc0ffc22208934b3d7970dc2e3a08ca8c110ec1",
        "eplb-maxk": "a7fd429c6562fc9a09a631ff6cc9e6351528966452201266073f059ae9d1835c",
    },
    # AVX2 exp/log, Haswell BLAS kernels (an AVX2-only CPU)
    "e07ce9d6895bd66c8b6ee4c106b6af27219c363d3ab5e2eda3340af80a21ed38": {
        "synthetic": "ae06cc514bafcde6bcf6f9447c3df7b9aea11f452d28482df1b44fa0abe4fa19",
        "eplb": "d1c697a8ebc54269144ecc87c703936a739f412309adf040df71e91a0092e41e",
        "synthetic-compressed": "baa24a560ec601a0adc9d28377731b9c8f3b7032ec2690ed1f9b41106196d39c",
        "eplb-wide": "3b4c49e1524870ba41ab24cbf57325b8af8771761a8bbb3ef2d32ac74c084142",
        "synthetic-multiparent": "b8a07abe7b4bbf3e4da6c3e0d4a18f16ca4d6347789433ef16f4dfb467328f98",
        "eplb-grpo": "d0f8a0ce87154ca4b44bd4eebbd0ff1a79cf05d15916dd60f01c1f05f36337be",
        "eplb-entropic": "fe8255084eae47b180c32a3f8d1593b39bc359643f90ccc35cb2c6987404c1f6",
        "eplb-maxk": "06702ba2ae7cddabafc93b155e81998d2144a23dbcc1274441d381d8320d3e28",
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
