"""Golden SHA-256 digests of the gen, train and bench outputs at fixed seeds.

Every file the pipeline writes is pinned byte for byte, so a refactor or a
speed-up that changes any model row, corpus token or report number fails
here. The commands run in one directory with relative paths, because a bench
report records the model paths it was given.
"""

import hashlib

import pytest

from speclab.cli import main

BENCH_FLAGS = ["--K", "4", "--prompts", "6", "--prompt-len", "3", "--max-tokens", "48",
               "--seed", "9"]

GOLDEN = {
    "corpus.txt":
        "843d858367e155754961cc04d37757def513a01c5a7c50aa5ffb063fc9e0e328",
    "target.ngm":
        "8d6ad41cd78dd9b1a82ce3e125d8a44ef3bc721b65993b149d61221314114ff7",
    "cat.ngm":
        "168e3cae706e6e84f52a09fe3f84f6db187c7402ea27e202605544402ebbd86d",
    "order1.ngm":
        "66ea9002d4962ce823b3e5839e50362080d44eb16f9de993f663cb9765064c9a",
    "decay.ngm":
        "fd54664a7efeb00d5771365a3a31bd6d98e99ab053ef030e905ca7a535449599",
    "kd_off.ngm":
        "3bbb9f8ee367dbe189db5df05ebc96ff0d33a4a4878f21c50b66782fc758303d",
    "ragged.ngm":
        "6560bbb56d552a0ce5b1dfbb6706cafc5b51230ab800a56a8dfef025669370ad",
    "rho0.ngm":
        "b80e0ed2a3906444c9088407ecce3d614b1d1f746519a26ff9a894cfe8c13f5f",
    "rho1.ngm":
        "4711730fc7870bb932816e5a48d13814eaab9be6d84e727cd93778b12009ac3f",
    "uniform.ngm":
        "f34b962faf86b6c7c6f7e9311249e289d7d1c211341f2b80d9e9961ba16affe7",
    "greedy-dependent.confidence.csv":
        "b7c07fc5921e6f3d7442d1eab5e69fabd3a27385971111bf3c2c001f2064dc3f",
    "greedy-dependent.json":
        "b68821405857658ae5065e37705470bed3764240f687668ba5f47c294c735615",
    "greedy-dependent.positions.csv":
        "5c3b7ee5f24e0f41640512f29ee10f32d0632dfee4ed143dfd02d76b9ad2f4d6",
    "greedy-independent.confidence.csv":
        "fd099d101abdaaef510874d36fba14711c7b3c208a2ccbb2f9449179874d9e36",
    "greedy-independent.json":
        "a32f866107c040e563731551f127fbafbf36d13383e025d019f4ca6ab33452dc",
    "greedy-independent.positions.csv":
        "b086db5819947f1596d8afbe25bf7848f71b08db99c22d4c874e16e70157a18a",
    "stochastic-dependent.confidence.csv":
        "b050d40309ae282ac314a20942f23a6d61cd1fa30d4a9f6ed3edbc5bd5409acb",
    "stochastic-dependent.json":
        "d37f2a5269698b327652b48a5701779bcdb9042ae1a35d6b5683153be270ed88",
    "stochastic-dependent.positions.csv":
        "4d1343d6c778064266c29b23c94c44a8f626ec5faf60130123893f9c5522740e",
    "stochastic-independent.confidence.csv":
        "04377dd402d977f51a84db77b5fe09595a45db19d56a34398efd87e1c0b71e9d",
    "stochastic-independent.json":
        "b9497646e61ce022caa71378d44cd9014d2880cc92629a63e09a256f2a1456f1",
    "stochastic-independent.positions.csv":
        "19195c6e3796e5a7c7e5b1b847ea52b9e1be5360384db0c161cba2dad796c20a",
}


def _run(argv):
    assert main(argv) == 0, argv


# Hand-written training inputs; they live outside the output directory.
TRAIN_CONFIG_KD_OFF = "kd_weight = 0\nbeta = 0.5\n"
# K = 4: lines shorter than K + 1 = 5 tokens give no window but are checked.
RAGGED_CORPUS = "3\n0 1 2\n5 4 3 2\n1 2 3 4 5\n0 0 1 1 2 2 3 3 4\n2 5\n4 3 2 1 0 1 2 3 4 5 0 1\n"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    inputs = tmp_path_factory.mktemp("golden-inputs")
    kd_off = inputs / "kd_off.cfg"
    kd_off.write_text(TRAIN_CONFIG_KD_OFF, encoding="utf-8")
    ragged = inputs / "ragged.txt"
    ragged.write_text(RAGGED_CORPUS, encoding="utf-8")
    train = ["train", "--target", "target.ngm", "--corpus", "corpus.txt", "--K", "4",
             "--seed", "5"]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _run(["gen", "--vocab", "6", "--order", "2", "--alpha", "0.3", "--seed", "11",
              "--out", "target.ngm", "--corpus", "24x20", "--corpus-out", "corpus.txt"])
        _run(["train", "--target", "target.ngm", "--out", "cat.ngm", "--corpus", "corpus.txt",
              "--K", "4", "--rho", "0.1", "--weighting", "cat", "--seed", "5"])
        _run(["train", "--target", "target.ngm", "--out", "order1.ngm", "--K", "4",
              "--drafter-order", "1", "--data-seqs", "16", "--data-len", "20", "--seed", "6"])
        _run([*train, "--out", "uniform.ngm", "--weighting", "uniform"])
        _run([*train, "--out", "decay.ngm", "--weighting", "decay", "--gamma", "0.8"])
        _run([*train, "--out", "rho0.ngm", "--rho", "0"])
        _run([*train, "--out", "rho1.ngm", "--rho", "1"])
        _run([*train, "--out", "kd_off.ngm", "--train-config", str(kd_off)])
        _run(["train", "--target", "target.ngm", "--out", "ragged.ngm", "--corpus", str(ragged),
              "--K", "4", "--rho", "0.3", "--seed", "7"])
        for verify in ("greedy", "stochastic"):
            for mode in ("dependent", "independent"):
                _run(["bench", "--target", "target.ngm", "--drafter", "cat.ngm",
                      "--out", f"{verify}-{mode}.json", "--mode", mode, "--verify", verify,
                      *BENCH_FLAGS])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in root.iterdir()}


def test_pipeline_writes_exactly_the_pinned_files(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name]
