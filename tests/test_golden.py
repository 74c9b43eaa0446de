"""Golden outputs: every subcommand on the shipped configs, at level 8 and
500 Monte Carlo blocks, must reproduce the committed digests byte for byte.

Digests follow ``perfbench/checks.py`` (``meta`` keys and ``#`` header lines
are left out), so the benchmark and this test share one digest rule.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from vvcantor.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_checks",
                                               ROOT / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

GOLDEN = {
    "lebesgue": {
        "bracketing.json":
            "7cf23e690394ab7c6342a5e5a00dcde84c694664da840a7ac21feec4b4696173",
        "cells.csv":
            "6b8ba9e6d608f39c7ff809b77f1216e7742bedc495451c77f0bfc25dd0420ca0",
        "counting.csv":
            "62461820c526fe2c47b84796b81ac47b597711e087ce45738166aafcb5eb6162",
        "cutsets.csv":
            "f905be7371a671902032e2c74943e40a82f2c359ea1e84e9403226571a29a0aa",
        "environments.json":
            "ab05cc514198d41b9797949c01cfedb9ba037232cda800dd334fb80d8be2f748",
        "exponent.json":
            "e4c543f7509d6c289b469e9deef1c499facc364fd5042e6ae0a98c06f62b2824",
        "gaps.csv":
            "42b117c042c4e2e8bd4b6bfae316cf1ee19672387302ae6849587068b76528e3",
        "necks.json":
            "cbca98ff4794c876b4c5b71cb3aca16f27c35bd24f2b0085938534e3fac2732d",
        "pencil_dirichlet.csv":
            "c460155a833e6f60e8a2fa378fc4ec63f5a52a561660928610171c18ed1be1a9",
        "tree.jsonl":
            "150667f23d3feb336415dbb52a5965d9d5784c34f79d2599eb82e9d7324fd703",
    },
    "cantor": {
        "bracketing.json":
            "9b0b2740e2ef561debb9ba4c6cb8402405e6c7ce143d0a82e30da6d0b5c80cae",
        "cells.csv":
            "83739d318d6d83e40ee80bfb6d2eef6e542c4245e52fc933eb154939101538e7",
        "counting.csv":
            "ece5e73a05bbb98dd96af0cca7dc2e02565371518bfbff0091892cd40215fbde",
        "cutsets.csv":
            "7bd74d9c606aa2e242e573cf9f4b667f857899fb2576659e3aba53a9a44967ae",
        "environments.json":
            "ab05cc514198d41b9797949c01cfedb9ba037232cda800dd334fb80d8be2f748",
        "exponent.json":
            "7931aa6a66f4db144cb8517cfe4d794b5bbada07b16030e002d9ba659544ba06",
        "gaps.csv":
            "cfdc3d40b5307aabea9c424684bbbacfa411cfa2432b189cc174d4440138c391",
        "necks.json":
            "cbca98ff4794c876b4c5b71cb3aca16f27c35bd24f2b0085938534e3fac2732d",
        "pencil_dirichlet.csv":
            "9661137291c71527586e1f14a485edee9ff98868c3c85ef77abd9426bfc6c0af",
        "tree.jsonl":
            "15ac58ee3034cc2888cd471e60f717ef6ef694041e1b12ba623e9bdb295a9a0c",
    },
    "two_system_v2": {
        "bracketing.json":
            "65f8a8176981f02160a1dd647433ebf1a82ee65f88cd28dfab79450ea751da6e",
        "cells.csv":
            "55865f4e79fa527992c66b78a4740e03771d9c4be4c6b1a8e4f14b9b200bedcb",
        "counting.csv":
            "183b70458bf287d307b2efd39c6b56aeeb9a64725bb36e0eb861e9efaf56d8ed",
        "cutsets.csv":
            "6fa3769906efe6e163c7de1fe4e5601b8c1710fabec0a155a838df3d5db3520a",
        "environments.json":
            "befd3c9915c65689ca15a920e1483b97ea0fdfd4ac3573809d68eceffce94ef8",
        "exponent.json":
            "5595cfdac74e7b87013559c00d9f7d041aa0723846d41afd55c78f34dd8e22e7",
        "gaps.csv":
            "1508887b55dc4a8f0d4d155f442fa59a20223bb35bb9e13739c798a2efac548a",
        "necks.json":
            "6f685cae7bb638b2329f4e11cfda9dc49a3146dbbd050752e2ff0f996b114634",
        "pencil_dirichlet.csv":
            "386104492c04ada3865b4d4d3bf50e8a91126841e029aaad157dca87a08994c4",
        "tree.jsonl":
            "24e7f7e205bff8a17304c0d84132e7b6dc8dfdbe04632c86cb4de2e8b92958fe",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc.update(depth=8, level=8, mc_blocks=min(doc["mc_blocks"], 500))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    got = {}
    for sub in checks.OUTPUTS:
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0, sub
        got.update(checks.digests(sub, out))
    assert got == GOLDEN[name]


# two_system_v2 at v = 3, level 8 and 2,000 blocks: the shipped configs pin
# the neck-block estimate at v = 1 and 2 only.
GOLDEN_V3_EXPONENT = "ac1a8232bcb28e75ad0d1bdf41fe0cb1902bcc34ec7020e25650a0f6e5588887"


def test_golden_exponent_at_three_types(tmp_path):
    doc = json.loads((ROOT / "configs" / "two_system_v2.json").read_text())
    doc.update(v=3, depth=8, level=8, mc_blocks=2000)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["exponent", "--config", str(cfg), "--out", str(out)]) == 0
    assert checks.digests("exponent", out) == {"exponent.json": GOLDEN_V3_EXPONENT}
