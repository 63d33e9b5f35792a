"""README and the package's public names stay in step, its library tour runs,
and its command lines parse."""

import re
import shlex
from pathlib import Path

import helirad
from helirad import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_and_all_name_the_same_api():
    imported = {name.strip() for line in re.findall(r"^from helirad import (.+)$", README, re.M)
                for name in line.split(",")}
    assert imported and not imported - set(helirad.__all__), imported - set(helirad.__all__)
    undocumented = [name for name in helirad.__all__
                    if name != "__version__" and not re.search(rf"\b{name}\b", README)]
    assert undocumented == []


def test_readme_library_tour_runs():
    # the python blocks in order, in one namespace; the fitting block reads a
    # cloud file the tour does not ship
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    ran = [b for b in blocks if "emitters.xyz" not in b]
    assert len(ran) == len(blocks) - 1
    namespace = {}
    for block in ran:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_command_lines_parse():
    # parsed and checked as main does, without running: a documented flag
    # that its mode does not read would be a usage error
    section = README.split("## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S).group(1)
    argvs = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("helirad ")]
    assert {argv[0] for argv in argvs} == {"spectrum", "trapped", "thermal", "discrete-line",
                                           "oracle", "fit-estimate"}
    parser = cli.build_parser()
    for argv in argvs:
        cli._check_flags(parser.parse_args(argv))
