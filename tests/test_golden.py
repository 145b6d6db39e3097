"""Byte-identity gate: sha256 digests of every output of small fixed runs.

Any change to the numerics, the draw order of a random stream or the output
formatting shows up here.  A change that alters output on purpose must
refresh the digests (print them with `PYTHONPATH=src python
tests/test_golden.py`) and say so in its change notes.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from tomolin import cli

CONFIGS = {
    "probes-hs": dict(experiment="sweep-probes", d=2, m_values=[4, 6], M_values=[3, 6, 8],
                      ensembles=3, trials=25, seed=7, workers=1),
    "outcomes": dict(experiment="sweep-outcomes", d=2, m_values=[3, 4, 6, 10], M_values=[6],
                     ensembles=2, trials=20, seed=7, workers=1),
    # d = 4 puts diagonal Gell-Mann matrices with 3 and 4 nonzero entries
    # into the state and detector coordinates
    "outcomes-d4": dict(experiment="sweep-outcomes", d=4, m_values=[16, 20, 30],
                        M_values=[20], ensembles=2, trials=20, seed=7, workers=1),
    "homodyne": dict(experiment="homodyne", d=4, m_values=[15, 16, 20], M_values=[20],
                     ensembles=2, trials=20, seed=7, wigner_points=21, workers=1),
}

GOLDEN = {
    "homodyne.csv": "868e2b575f59a50f3a6760452bac3982f981f706e2bbf4526fc750b9576a514c",
    "homodyne.csv.meta.json": "c609153b16ce4ab26d2837b620e6dc94eb1c0723a057c2be6a173ffdf727ae75",
    "homodyne_wigner_pattern_m16.csv": "e93f5ee482dce4b0966d9c67cb1d29fa54edabf5853ca6121e8292959b543a63",
    "homodyne_wigner_pattern_m20.csv": "389733f8df4240ff784828a2e91c8612562e776c64df1b2b6c58392e4a16f220",
    "homodyne_wigner_standard_m16.csv": "45f7a074f5bf7c68ca752a7e4a83850bcf077590577af6eb918e3d11bccb2041",
    "homodyne_wigner_standard_m20.csv": "e8c4976666daec9696d970075dc847faf8057051f8aa54355bc3c05922164d24",
    "homodyne_wigner_true.csv": "a9b789d38c5e8bbbb301f46225a6856089cc3cdadf934b66a439684e100fdbab",
    "outcomes-d4.csv": "55cd83e1fedb879dd704df37321ceafe7b4768e601be443e7517cbcc76338c6b",
    "outcomes-d4.csv.meta.json": "74a37a727b1030a72a9055c864b4e9087266a0c4fdfcc79194995d415d4a9ee1",
    "outcomes.csv": "0a19e1156170d52dcc6b5c41c824770533526d4179a820d1f035ccbc1d5dd2c4",
    "outcomes.csv.meta.json": "26c9e95d77af1884087bae185ecc6015b7580d4147053b3244b0e18317f44534",
    "probes-hs.csv": "d15ea13ad62b956e5da4d94ad4deb7a7312906f751e77562dc5b58b6b39c98a6",
    "probes-hs.csv.meta.json": "c3075760236ad81f8bcd137d8c08178d10785c85de65c3a0beed7c2a3f1a69d3",
    "selftest.stdout": "89e7a66aca2907653f047674417bd80911d7cae446e3775b4eab62a5df71538d",
}


def output_digests(workdir: str) -> dict:
    """Run every fixed config and the default selftest through the CLI and
    return {output name: sha256 hex digest}."""
    out_dir = os.path.join(workdir, "out")
    os.mkdir(out_dir)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for name, doc in CONFIGS.items():
            cfg_path = os.path.join(workdir, f"{name}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = os.path.join(out_dir, f"{name}.csv")
            assert cli.main([doc["experiment"], "--config", cfg_path, "--out", out]) == 0
        selftest_start = stdout.tell()
        assert cli.main(["selftest"]) == 0
    digests = {"selftest.stdout": hashlib.sha256(
        stdout.getvalue()[selftest_start:].encode()).hexdigest()}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    assert output_digests(str(tmp_path)) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in sorted(output_digests(tmp).items()):
            print(f'    "{key}": "{digest}",')
