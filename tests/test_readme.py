"""The README's Library recipe imports only what the package exports."""

import ast
import re
from pathlib import Path

import latent_guard

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    text = README.read_text()
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_recipe_imports_only_exported_names():
    blocks = library_blocks()
    assert blocks, "README has no python block under '## Library'"
    imported = [alias.name
                for block in blocks
                for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "latent_guard"
                for alias in node.names]
    assert imported
    missing = sorted(set(imported) - set(latent_guard.__all__))
    assert missing == [], f"README imports names latent_guard does not export: {missing}"
