"""README and the package's public names stay in step."""

import re
from pathlib import Path

import helirad

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_and_all_name_the_same_api():
    imported = {name.strip() for line in re.findall(r"^from helirad import (.+)$", README, re.M)
                for name in line.split(",")}
    assert imported and not imported - set(helirad.__all__), imported - set(helirad.__all__)
    undocumented = [name for name in helirad.__all__
                    if name != "__version__" and not re.search(rf"\b{name}\b", README)]
    assert undocumented == []
