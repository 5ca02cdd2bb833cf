"""The README's Python examples and its JSON config run as written."""

import re
from pathlib import Path

from gauss_share import cli

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_DIR = Path(__file__).parent / "golden"


def test_python_blocks_run_in_order():
    # later blocks may use names an earlier block defined, as a reader
    # following the README top to bottom would
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["report"].leakage_mode == "exact"


def test_json_config_block_runs(tmp_path, capsys):
    # the block serves several commands; simulate prints the pinned report
    (block,) = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    path = tmp_path / "cfg.json"
    path.write_text(block)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == (GOLDEN_DIR / "simulate_3party_text.txt").read_bytes()
    assert cli.main(["region", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
