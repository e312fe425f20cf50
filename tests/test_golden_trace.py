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
file prints this machine's fingerprint and the digest of every case in
``GOLDEN``'s layout, ready to paste when a change re-pins the digests.
"""

import hashlib
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
        "synthetic": "8ce425a6519e7b9fd6924e1215a4a1be5b0fccda345ce21998746aa495b66cce",
        "eplb": "a2097111327611d25a08947dea25aac2761c9b99d5aa2d3cbb4e7f2cfe923339",
        "synthetic-compressed": "20f2bd06e3f457d24a59c570cc86ca9487f6b05864a1316066d2f80e03a976f8",
        "eplb-wide": "0985f69a20a948f24e6ecb243ccf3368541a2801c81363dec64a40cbb514c59e",
        "synthetic-multiparent": "c62daa57818fcbd787ecb71c58c5150d6982686e0086825889369a33d70f7fe4",
        "eplb-grpo": "0bf092302296822769ce031d6abc558ad2e986620711de47c212b4515084b28c",
        "eplb-entropic": "0a475bf1a24e2a55c7210d2036777e87100fce56991a602e5b6749eaccef89a4",
        "eplb-maxk": "7fdaf0f5aeb9b5b6f998fab7bc7b9596cf6c7dc17d114f88dd1509ff3abe03e9",
    },
    # AVX-512 exp/log, Haswell BLAS kernels
    "ee9231e713ee634660a79c03901ec10813ae3a3f45ce2e226c7c8e85d13aa243": {
        "synthetic": "c4ea2f638a0dbe565c8cf39e9f5e758f57b523fcc703f0d5dd338941cf526230",
        "eplb": "56bd940811308dbbd06ed9c8b8bf4ad0856bd5b04d616d8d2ff20bd20f2afda9",
        "synthetic-compressed": "b1759bcd9f3365bed1bf6bc48b609b119f079616668718f15b59ed4a69ed5019",
        "eplb-wide": "1a5fa9ecc3405d6a3091dec538a58f8f412e734fcf8cad04749a64fb49db6866",
        "synthetic-multiparent": "ab38fa252af822394dba7fb04b2379687b0cef86b16a45ccbcd7e2c982517ab6",
        "eplb-grpo": "d998678c2bd0a9eecb57f3997fa24eb92211ac0c0e13af5dc75986fd570580bd",
        "eplb-entropic": "398b462292fca2fc2716927a41faaa2f5db98faf68aaae886727365c585fdb09",
        "eplb-maxk": "56a289f3b5b9111c2bcd4cffed1b458cedf2ec84efdd5bbad205fb70b978e540",
    },
    # AVX2 exp/log, SkylakeX BLAS kernels
    "e20f2ac3d2a72a9bc7752d0ca1bb03dbf30b9a59829771fc617f7657198a2984": {
        "synthetic": "e7fe72ad84ba00076b63bfb08dae8ad0f855a74cba7ef956dea2f7f70d10ea8f",
        "eplb": "009fd114dface1a91273961051161f1f5e7007ad82d53a8d6bfac175b798489f",
        "synthetic-compressed": "ca8e693bae8f9c682f27739fb6f28830f0cca50e1173ebde602f2a590c8f187d",
        "eplb-wide": "43236ba889a1b6c23f6fe2671c979f060e51be60842fb52516b6dd6e49d48823",
        "synthetic-multiparent": "4a4d56a8ab53e16b8e3a9a41f05b0cc9d9fc2803a987c8a9af15fc8beda32737",
        "eplb-grpo": "746f58ddb7a40a3ebc9d28cedf17257a68ae3d5abef86ebb84968e5437f033ba",
        "eplb-entropic": "84eb54f05d0f325fec82a68b9bee782c11d2ab5568cd701b190960ee4b447b22",
        "eplb-maxk": "3fad3c201ed4d3c7d0408984b8217a010dbd26aaf753257d2dfd2cd4150641cc",
    },
    # AVX2 exp/log, Haswell BLAS kernels (an AVX2-only CPU)
    "e07ce9d6895bd66c8b6ee4c106b6af27219c363d3ab5e2eda3340af80a21ed38": {
        "synthetic": "03200565b6c4899967802353b15299de5772fc9bc7529833ad4540d0c70fdfbc",
        "eplb": "0115a86d582dce06cffe0adb88db92eb769d337962cbe66683cd8fce2d512b88",
        "synthetic-compressed": "95050f0c79154ce754e5628a20a5a47beca3b1ad5f1b5c164c27031930dc23c1",
        "eplb-wide": "63af489e8d7e1915259ec9b45b9f2160595aede682eb889d9b2310eba0914965",
        "synthetic-multiparent": "232afa38888324963be8001be0a16331647653ad5ee4c9c6272ba5036abbbde4",
        "eplb-grpo": "2ab538b635c1a280f389d3f705729ce2bf3eda49b7039184342b5748a44f9c82",
        "eplb-entropic": "b3ce22766e0e3a82befc0287a0f829e77c3745210aba7ef0e354e3df720145ac",
        "eplb-maxk": "0d45a7e4b50e38ceb15d7fcbfe20574b02a088c96e4b16310d13ccb3d56eaa65",
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


def main() -> None:
    print(f'    "{arithmetic_fingerprint()}": {{')
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digest = hashlib.sha256(run_trace(name, Path(tmp)).read_bytes()).hexdigest()
        print(f'        "{name}": "{digest}",')
    print("    },")


if __name__ == "__main__":
    main()
