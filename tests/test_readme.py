import math
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}: Library tour", "exec"), namespace)
    assert math.isfinite(namespace["price"]) and namespace["price"] > 0.0
    assert namespace["est"].stderr > 0.0
