"""The mutation audit's sampler (tools/mutate.py): a site's draw depends on
the site alone, so a source edit redraws no other site."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)


def site(module, code, change="+ -", occurrence=0, line=1):
    return {"module": module, "code": code, "change": change, "occurrence": occurrence,
            "line": line, "column": 0}


SITES = [site(f"m{i % 3}.py", f"x = a{i} + b", line=i) for i in range(600)]


def test_sample_is_a_share_of_the_sites():
    chosen = mutate.sample(SITES)
    assert 0.3 * len(SITES) < len(chosen) < 0.42 * len(SITES)
    assert mutate.sample(SITES[::-1]) == chosen


def test_adding_a_site_redraws_no_other_site():
    before = mutate.sample(SITES)
    added = [
        site("m0.py", "y = 1 + 2"),                   # a new line of code
        site("m1.py", "x = a4 + b", occurrence=1),    # a second copy of one
        site("m1.py", "x = a4 + b", change="1 -> 2"),  # another change to one
        site("m9.py", "z = 0 < 1", change="< -> <="),  # a new module
    ]
    for new in added:
        after = mutate.sample([new, *SITES])
        assert [s for s in after if s is not new] == before
    # the sample above does hold new sites, so the check is not vacuous
    assert any(mutate.drawn(new) for new in added)
