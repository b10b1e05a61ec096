import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no ```python block"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report = []
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md python block {i}", str(README), 0)
        assert test.examples, f"python block {i} has no examples"
        runner.run(test, out=report.append)
    assert runner.summarize(verbose=False).failed == 0, "".join(report)
