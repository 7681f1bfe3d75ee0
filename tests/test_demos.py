"""The demo scripts print exactly what they printed when these digests were
recorded: any change to a family, an algorithm or a result document that
reaches a demo's stdout shows here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_universe_tour.py": "8562dd43dfadfaedcd715e0a05a1288078a5b0620c17896817688cc6f9850c5d",
    "02_supremum_and_the_gap.py": "8b3bfcb4a95f7c228689d4098fc12564289fd7881e93d1db2ccdc19ef83185e8",
    "03_oscillation_and_continuity.py": "d9c47cc7ba78cd881b1d196ee595f09c3bbd217aa90b232613ebc926bdc6e139",
    "04_baire_category_points.py": "5856362642719a7220885bb91237548b88ec0f74e33ce4ef8041b4df73aed9bd",
    "05_cousin_covers.py": "6a9c4ad2a72135e33063440054cb65eb2db1bf15cd74e5845120190db69ce067",
    "06_variation_jordan.py": "2a52fb2173a3f7436c9a253dbb64b2719196f6c122b61486f1d38b06689dfcb5",
    "07_realisers.py": "63dc8f35b8e58914f33b0e9b9b4bfde7b347bde317016471115f72ab09edc8b5",
}


def test_demos_print_their_recorded_output():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name, want in DEMO_SHA256.items():
        r = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                           capture_output=True, env=env)
        assert r.returncode == 0, (name, r.stderr.decode())
        assert hashlib.sha256(r.stdout).hexdigest() == want, name
