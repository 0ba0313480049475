"""Golden bytes: canonical ``bench`` and ``gen`` output pinned by sha256.

The digests were recorded with the ``json.dumps`` instance encoder, the
``Fraction`` version of ``derive_costs`` and the full-rescan average-price
greedy, before the direct writer and the integer versions replaced them.  Any
change to these bytes is a change to the canonical format or to a solver's
output and must be deliberate.
"""

import hashlib

import pytest

from aecover.cli import main
from aecover.generators import FAMILIES

# family -> (sha256 of `aecover bench --family F --seeds 0..19`,
#            sha256 of `aecover gen --family F --seed 0`)
GOLDEN = {
    "minpower": (
        "6902c0c55a828af12fe558e5e4fee8b8d1f9ea89ff66faa3bab7909b4c5dad7c",
        "dce81d4298aa63fadb837dc5416a34f4cced65eac9df0498bd8913761c00e7e9",
    ),
    "setcover-t2": (
        "c299d06e1fda2a16704698579fdb529953678ad29648838a2e4889628e3e9dfd",
        "749d7ea02c013f8dfc34aff81bdbf48e018ec678f5f893f388ca1a66f3542ce0",
    ),
    "setcover-t5": (
        "28547eab4923e78ee1f3df2b37cee708a0a4c8ec4f9b32d291c526dba5bd2a3f",
        "28aa8d8a927ac2b2b7a56a1d4e89081468b0180fb11c60e96b5f2e1e58fb7554",
    ),
    "setcover-t10": (
        "f634cf3ceb854c97d7db2197a7d1f4a720541f76c5fe9c57291141633fd9a4ce",
        "d58e0b6a6c16792b862473f57e55024568b039717203a007416c70db346bcfb8",
    ),
    "installation": (
        "5c4702f46a2d628a5665e702a65c393bc1dd95ce7ff723228adbe21d2295ae17",
        "10084e74e4461b77312c282eadbeca05764bde4a6c7302cfb656b6d22b22dffd",
    ),
    "general": (
        "0992ad6b74e37bba10cd272291c5825c335f1f7ec575ca9de9d304d117c4fd61",
        "e870412eeaa685d85e6fd40fba9f4bb42b75139bd0f02b70f2c60358495637cd",
    ),
    "uniform": (
        "a2c10877676edfe984504f6aa1bc92124b05177197bc677e60704acea6e3ff0a",
        "15e1aaf1767db8c538de1ac07695b0a86672f8896ab8b43c3e91a1c0d43d2fa4",
    ),
    "uniform-unit": (
        "a67fca7967753f57bbc6e58279f04c6e2caf2d55706558ebb19922fef8959454",
        "3e033ee081d14c54b55123c84e2e4f70329a01c8f7acf573b1c4bd97aa7e9c83",
    ),
    "unit": (
        "f16d1ae53d643b459587535974bed031496d0b5186bbd7af35dd6421c1731f60",
        "4281f6f91a77b4e93ac0e7dbdde184519b6f37db466a700670c366bd68ef652f",
    ),
    "tight73": (
        "add75b1433617aebf67457fad633eba34961db7a965295c434fc3c7413369a5f",
        "2b5ed5627bff7c14c6c62826e7d833813cc80261f24f4d2abdb1ee89d3b64f4b",
    ),
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_family_is_pinned():
    assert set(GOLDEN) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_canonical_output_matches_golden_bytes(family, tmp_path):
    bench_path, gen_path = tmp_path / "bench.json", tmp_path / "gen.json"
    assert main(["bench", "--family", family, "--seeds", "0..19", "--out", str(bench_path)]) == 0
    assert main(["gen", "--family", family, "--seed", "0", "--out", str(gen_path)]) == 0
    assert (sha256_of(bench_path), sha256_of(gen_path)) == GOLDEN[family]
