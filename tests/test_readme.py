import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # the tour is the documented API; running it keeps the two in step
    blocks = re.findall(r"^## Library tour\n\n```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], "README.md library tour", "exec"), scope)
    assert scope["verify"].check_LL(scope["neu"], 1, 2)[0] is False
    assert scope["res"].covering.cover.n == 315
    assert scope["covers"].homotopic(scope["quot"], scope["g1"], scope["g2"]) is True
