"""Every command's output is byte-identical to the committed golden corpus
(see make_golden.py, which writes it)."""

import numpy as np
import pytest

from make_golden import GOLDEN_DIR, VERSION_FILE, build_corpus


def test_outputs_match_the_golden_corpus(tmp_path, monkeypatch):
    recorded = (GOLDEN_DIR / VERSION_FILE).read_text().strip()
    if recorded != np.__version__:
        pytest.skip("the golden corpus was written under numpy %s, this is numpy %s; "
                    "its bytes are not comparable" % (recorded, np.__version__))
    monkeypatch.chdir(tmp_path)
    files = build_corpus()
    golden = {p.name for p in GOLDEN_DIR.iterdir()} - {VERSION_FILE}
    assert sorted(files) == sorted(golden)
    moved = [name for name in sorted(files)
             if files[name] != (GOLDEN_DIR / name).read_bytes()]
    assert not moved, "outputs differ from tests/golden: %s" % moved
