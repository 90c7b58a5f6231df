"""Golden outputs: the sha256 of stdout, the exit codes and every artifact of
fixed CLI invocations.  A refactor must leave every byte unchanged; a
deliberate output change re-pins the affected case and says why.

An empty census has one contract: a command that compares it with an
estimate exits 2 and writes nothing (gauss-norm-limit-1, monoid-empty-census,
monoid-limit-1, fit-monoid-empty); quad asserts no estimate and exits 0."""

import hashlib

import pytest

from primelab import sieve
from primelab.cli import TABLE2_BOUNDS, run_cli

CASES = {
    "monoid-all-outputs": [
        ["monoid", "--d", "3", "--limit", "10000", "--eval-at", "largest",
         "--csv", "m.csv", "--series-csv", "ms.csv", "--svg", "m.svg"],
    ],
    "monoid-empty-census": [
        ["monoid", "--d", "50", "--limit", "40", "--csv", "m.csv"],
        ["monoid", "--d", "50", "--limit", "40", "--series-csv", "ms.csv"],
    ],
    "monoid-limit-1": [["monoid", "--d", "4", "--limit", "1"]],
    "gauss-both-axes": [
        ["gauss", "--norm-limit", "10000", "--csv", "g.csv", "--series-csv", "gs.csv",
         "--svg", "g.svg"],
    ],
    "gauss-dedupe-axes": [
        ["gauss", "--norm-limit", "10000", "--dedupe-axes", "--csv", "g.csv",
         "--series-csv", "gs.csv", "--svg", "g.svg"],
    ],
    "gauss-norm-limit-1": [["gauss", "--norm-limit", "1", "--csv", "g.csv"]],
    "quad-norm-ball": [
        ["quad", "--d", "2", "--bound", "2000", "--csv", "q.csv", "--svg", "q.svg"],
    ],
    "quad-euclidean": [
        ["quad", "--d", "5", "--bound", "500", "--euclidean", "--csv", "q.csv", "--svg", "q.svg"],
    ],
    "quad-bound-1": [["quad", "--d", "3", "--bound", "1", "--csv", "q.csv", "--svg", "q.svg"]],
    "quad-over-cap": [["quad", "--d", "5", "--bound", "30000000", "--euclidean"]],
    "fit-classical": [["fit", "--domain", "classical", "--limit", "20000", "--csv", "f.csv"]],
    "fit-monoid": [["fit", "--domain", "monoid", "--d", "3", "--limit", "5000", "--csv", "f.csv"]],
    "fit-monoid-empty": [["fit", "--domain", "monoid", "--d", "50", "--limit", "40"]],
    "fit-gauss": [["fit", "--domain", "gauss", "--norm-limit", "10000", "--csv", "f.csv"]],
    "fit-quad": [["fit", "--domain", "quad", "--d", "5", "--bound", "3000", "--csv", "f.csv"]],
    "fit-quad-euclidean": [["fit", "--domain", "quad", "--d", "6", "--bound", "2000", "--euclidean"]],
    "fit-from-csv": [
        ["monoid", "--d", "3", "--limit", "5000", "--series-csv", "s.csv"],
        ["fit", "--from-csv", "s.csv", "--csv", "f.csv"],
    ],
    "fit-no-source": [["fit"]],
    "fit-two-sources": [["fit", "--from-csv", "s.csv", "--domain", "monoid"]],
    "table1": [["table1", "--csv", "t1.csv", "--svg-dir", "figs"]],
    "table2": [["table2", "--csv", "t2.csv"]],
    "table2-svg": [["table2", "--csv", "t2.csv", "--svg", "t2.svg"]],
}

GOLDEN = {
    "fit-classical": {
        "exit": [0],
        "stdout": "2683a9ff7ef65272ffc9fc489f22816394972c2bae1e3ac160d9d1dd0d482d4a",
        "files": {
            "f.csv": "ff9d2a5ac889aca160eb0d6be5ea45922225ecf5b038bf9f1e48c7abd15d5507",
        },
    },
    "fit-from-csv": {
        "exit": [0, 0],
        "stdout": "c311a46682ae97686d54af4cc756b1b092520e88fa611dc52b8750bf6ff5f3c8",
        "files": {
            "f.csv": "67fb543f08554ffc37f8f862692998084139180f22aa3f72448574bb0428ecc6",
            "s.csv": "82b8f648f6e667a07db36d1747a45b032ea0f50e337b0b2e815b17d3b6c528ba",
        },
    },
    "fit-gauss": {
        "exit": [0],
        "stdout": "c08e99917c1e18a6f893b7b3028f2b5e594a1635cb8e344ef32cf1890bdecfa8",
        "files": {
            "f.csv": "52d9d4edbc0867b1e719f79fc5d706969b1f343bea7a674dd25784ebf3833637",
        },
    },
    "fit-monoid": {
        "exit": [0],
        "stdout": "f4b24b387b3c6fdc330514a87c248e99aa71c1975bfbc69b7ac225e04cd99460",
        "files": {
            "f.csv": "67fb543f08554ffc37f8f862692998084139180f22aa3f72448574bb0428ecc6",
        },
    },
    "fit-monoid-empty": {
        "exit": [2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "fit-no-source": {
        "exit": [2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "fit-quad": {
        "exit": [0],
        "stdout": "00a9d1601638b5a1f1d7060f156ff7b36e9d355410e7cb56d9be1b5283729164",
        "files": {
            "f.csv": "2170da1be1c29c3772343cf996dd175d03749522ada8726272627d6feecdb660",
        },
    },
    "fit-quad-euclidean": {
        "exit": [0],
        "stdout": "9125b708f9d82f9ab038be84d0f65311ff60a3466613280b3a168e98aad18ca6",
        "files": {},
    },
    "fit-two-sources": {
        "exit": [2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "gauss-both-axes": {
        "exit": [0],
        "stdout": "6111824e73847dd0e1b6d1849bf2b52c1551c09c8f20f07fee37e7540ea7f0ad",
        "files": {
            "g.csv": "feb4949ca7f0f4ad9f95d499ed545e0b2e807b2276aacfa9d4f5aef142db7a6c",
            "g.svg": "4c46811f77a1ea03ce2efa7b6804e855103c5e89e1f9c0f327c0302bef377c26",
            "gs.csv": "993aee4174271ce3c71cf2345e2523171d042e34905856bfe066419b8b7f93bc",
        },
    },
    "gauss-dedupe-axes": {
        "exit": [0],
        "stdout": "a5ad3c8c00bee5d0702a69d4a3d465a3306cd0297dc1d5faa656bca5b95047e2",
        "files": {
            "g.csv": "c74efbfc24154e4ab3b21e5807aba6ad9179af814f6c570ac3dccd4f94e1a189",
            "g.svg": "8a9c0fbd90d35a384a420247376d87c339724b33b4b734ebc0790562c12d195e",
            "gs.csv": "d54fd1505e47487cad077e7c78da6072a933be7a113cdf1d51aba54f4ca6bc9e",
        },
    },
    "gauss-norm-limit-1": {
        "exit": [2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "monoid-all-outputs": {
        "exit": [0],
        "stdout": "cc23fdc7f81c0cd25f45835ad81ca1a248cf2f4e837eea2e9bafe26100afae2b",
        "files": {
            "m.csv": "e9eb1e33290fda75d5b5c0b4672f414afec7e28ee0ced6234c0a7bd2e3115ab3",
            "m.svg": "1a80f955d79f5c9c4151e7065453d3067d644ea15dc93e1c88ad1a6022a3f8c4",
            "ms.csv": "a5c87c0fe00921304905216eadbc65b3188e34a6c4d81db568e330860ac3adf7",
        },
    },
    "monoid-empty-census": {
        "exit": [2, 2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "monoid-limit-1": {
        "exit": [2],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "quad-bound-1": {
        "exit": [0],
        "stdout": "51225b4001e0162fb27fcba4824fe2d2793ef6867e484b075a7669044ce26194",
        "files": {
            "q.csv": "62df5fe7024cf585c86de7f6d87d738bdc753f3f332db6d2e9664b0282e402ff",
            "q.svg": "76fb707d120a70cbd028a5b82637099723cd01e23a61c21d2231b45d18852516",
        },
    },
    "quad-euclidean": {
        "exit": [0],
        "stdout": "b3f194e97df1bc198d0fc0391cba76d41b3fc985960226fe7c7c35910384d6b3",
        "files": {
            "q.csv": "aff0bf62938dc5ca2479fef31fbfc6ce5288abe525c6e8ffbe9cc323801dfa77",
            "q.svg": "e32ccf538d87b64edcd3d44dd257745d2dcc8a717198e58b20d65cac5ace5ba0",
        },
    },
    "quad-norm-ball": {
        "exit": [0],
        "stdout": "0a98387b2ff060ac42e1c20bae1cab691113707c9ed245ac0cb1135cebaa9702",
        "files": {
            "q.csv": "cc154180e7f8d77d6b80bdd53664160edbee863bc6961785f6f3a13a049017f3",
            "q.svg": "8e9c163efa73b3df3b867219e73d43be778586be7518fccac9a2a3e6774842b5",
        },
    },
    "quad-over-cap": {
        "exit": [3],
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "files": {},
    },
    "table1": {
        "exit": [0],
        "stdout": "74e4e417ab6ec1b2fbe34116a82ac7d0449ffbae2e8cfa5a09ec9c0fd96c3b4e",
        "files": {
            "figs/monoid_d11.svg": "4f9bfa3cf29d2a19cd3f31e9d97721c5677f0f7a5e2f5d2c03db2129bb19f0c4",
            "figs/monoid_d13.svg": "82cde7262371423cbef1337c04956d1907bc74344532c348462d300720738415",
            "figs/monoid_d21.svg": "937c8814f39e47633fdf9aa5d38c2347bebba2bba14bf0d3899357e24a3d8161",
            "figs/monoid_d3.svg": "1a80f955d79f5c9c4151e7065453d3067d644ea15dc93e1c88ad1a6022a3f8c4",
            "figs/monoid_d5.svg": "73451ac2b90d8eaf3ce47455fec287ee789575142345672a187fb99836e0265e",
            "figs/monoid_d50.svg": "cec17374b6c6568b5d7fd7484b31d51cb244ad26ac32b44ac52b2d55d3c27e45",
            "figs/monoid_d7.svg": "1d631bf8daca5212f4962fd26491239ba5a545144e23e69a16b8fda836cc456b",
            "figs/monoid_d9.svg": "06daa0fc5a49cbe754a1463bdd813f68a2041b22f4bcb6bb19edd7c208757dcb",
            "t1.csv": "093242606c304504a03b13b6b93e189e86471f603c6ffd08129230888535d9ca",
        },
    },
    "table2": {
        "exit": [0],
        "stdout": "1c664cf0b02c2be4ca9fff224049f518d1ee74c05c63fd05c62d1b5f2d1172da",
        "files": {
            "t2.csv": "0d90f0b51c2fa1467a580360ebf3fec8096c33e1e29d126549b46af830379156",
        },
    },
    "table2-svg": {
        "exit": [0],
        "stdout": "8aa850d2d94dd5ab341f0e54e4e25123ba36cd5d4e9581d4e9fbefb10ad06f3f",
        "files": {
            "t2.csv": "0d90f0b51c2fa1467a580360ebf3fec8096c33e1e29d126549b46af830379156",
            "t2.svg": "b8aa01ee0f46317cc898f691ac2f99221cedd48c8473466ad7cda930d5d1724a",
        },
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(steps, workdir, capsys):
    """Run the steps in order inside workdir; digest what they leave behind."""
    codes, out = [], ""
    for argv in steps:
        codes.append(run_cli(argv))
        out += capsys.readouterr().out
    files = {
        p.relative_to(workdir).as_posix(): _sha(p.read_bytes())
        for p in sorted(workdir.rglob("*"))
        if p.is_file()
    }
    return {"exit": codes, "stdout": _sha(out.encode()), "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert observe(CASES[name], tmp_path, capsys) == GOLDEN[name]


def test_table2_chart_is_the_gauss_chart_of_its_largest_bound(tmp_path, capsys, monkeypatch):
    """table2 --svg draws the series that gauss --svg draws at the largest
    table bound, so the two charts are the same bytes."""
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["table2", "--svg", "t2.svg"]) == 0
    assert run_cli(["gauss", "--norm-limit", str(TABLE2_BOUNDS[-1]), "--svg", "g.svg"]) == 0
    assert (tmp_path / "t2.svg").read_bytes() == (tmp_path / "g.svg").read_bytes()


# Every case that emits a series artifact, at block sizes that cut each series
# into many blocks (table2's 10^7-row series stays at the default size).
BLOCKED_CASES = (
    "fit-from-csv", "gauss-both-axes", "gauss-dedupe-axes", "monoid-all-outputs",
    "monoid-empty-census", "quad-bound-1", "quad-euclidean", "quad-norm-ball", "table1",
)


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_golden_at_small_block_sizes(name, block_rows, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sieve, "COUNT_BLOCK", block_rows)
    monkeypatch.delenv("PRIMES_LAB_MAX_LIMIT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert observe(CASES[name], tmp_path, capsys) == GOLDEN[name]
