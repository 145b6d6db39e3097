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
    "probes-pure": dict(experiment="sweep-probes", d=2, m_values=[4, 6], M_values=[3, 6, 8],
                        ensembles=3, trials=25, seed=7, workers=1, state_ensemble="pure"),
    "outcomes": dict(experiment="sweep-outcomes", d=2, m_values=[3, 4, 6, 10], M_values=[6],
                     ensembles=2, trials=20, seed=7, workers=1),
    "homodyne": dict(experiment="homodyne", d=4, m_values=[15, 16, 20], M_values=[20],
                     ensembles=2, trials=20, seed=7, wigner_points=21, workers=1),
}

GOLDEN = {
    "homodyne.csv": "868e2b575f59a50f3a6760452bac3982f981f706e2bbf4526fc750b9576a514c",
    "homodyne.csv.meta.json": "b07a6e4f48b6f9a3f2572ccc1e2d616856077ad2ce69a432f62594f1ab2b50da",
    "homodyne_wigner_pattern_m16.csv": "e93f5ee482dce4b0966d9c67cb1d29fa54edabf5853ca6121e8292959b543a63",
    "homodyne_wigner_pattern_m20.csv": "389733f8df4240ff784828a2e91c8612562e776c64df1b2b6c58392e4a16f220",
    "homodyne_wigner_standard_m16.csv": "45f7a074f5bf7c68ca752a7e4a83850bcf077590577af6eb918e3d11bccb2041",
    "homodyne_wigner_standard_m20.csv": "e8c4976666daec9696d970075dc847faf8057051f8aa54355bc3c05922164d24",
    "homodyne_wigner_true.csv": "a9b789d38c5e8bbbb301f46225a6856089cc3cdadf934b66a439684e100fdbab",
    "outcomes.csv": "0a19e1156170d52dcc6b5c41c824770533526d4179a820d1f035ccbc1d5dd2c4",
    "outcomes.csv.meta.json": "871c390668bc4ef14cec8a4bf918078bcea7d32e8611de9bf86ae914e9c7e647",
    "probes-hs.csv": "d15ea13ad62b956e5da4d94ad4deb7a7312906f751e77562dc5b58b6b39c98a6",
    "probes-hs.csv.meta.json": "5ab35c5b63d58578670b4ca458e4eae4e27c6af503536513b0209cf5a3725fdf",
    "probes-pure.csv": "a75b27d9261fbeb4b28993d43625c37c3702de3a17b6374dfffce214fc0bbff0",
    "probes-pure.csv.meta.json": "3d0010f77ccfd1fb125b3f1eeb7658f8f3de358e67a419a600509273c857aa47",
    "selftest.stdout": "89e7a66aca2907653f047674417bd80911d7cae446e3775b4eab62a5df71538d",
}


def _meta_without_out(path: str) -> bytes:
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    return b"".join(line for line in lines if not line.startswith(b'  "out": '))


def output_digests(workdir: str) -> dict:
    """Run every fixed config and the default selftest through the CLI and
    return {output name: sha256 hex digest}; the `out` entry of each
    .meta.json is left out because it names the temporary directory."""
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
        path = os.path.join(out_dir, fname)
        if fname.endswith(".meta.json"):
            blob = _meta_without_out(path)
        else:
            with open(path, "rb") as fh:
                blob = fh.read()
        digests[fname] = hashlib.sha256(blob).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    assert output_digests(str(tmp_path)) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in sorted(output_digests(tmp).items()):
            print(f'    "{key}": "{digest}",')
