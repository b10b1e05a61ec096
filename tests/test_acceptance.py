"""End-to-end acceptance checks.

Each test prints one `criterion NN <name>: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces both correctness and a
wall-clock budget.
"""

import random
import subprocess
import sys
import time

from cactuskit.cayley import build_window
from cactuskit.confspace import enumerate_chambers
from cactuskit.degree3 import (
    CanonicalForm,
    canonicalize,
    evaluate_word,
    mul,
    to_word,
)
from cactuskit.equiv import (
    check_equivariance,
    check_isomorphism,
    check_oracle,
    check_shift_law,
    cover_to_group,
    cover_to_group_perturbed,
    verify_action_axioms,
)
from cactuskit.moves import relation_instances
from cactuskit.perm import is_pure, project
from cactuskit.words import Word, free_reduce, parse_word


def _check(num, name, budget, body):
    start = time.perf_counter()
    error = None
    try:
        body()
    except AssertionError as exc:
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < budget
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    if error is not None:
        raise error
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_01_oracle_equivalence():
    def body():
        report = check_oracle(max_len=8)
        assert report.ok(), report.render()
        assert report.total == 9841 + 5  # words of length <= 8 plus the relators

    _check(1, "oracle equivalence", 10, body)


def test_criterion_02_index_parametrization():
    def body():
        words = set()
        for m in range(-40, 41):
            c = CanonicalForm(m, 0)
            w = to_word(c)
            assert canonicalize(w) == c
            assert len(w) == abs(m)
            words.add(str(w))
        assert len(words) == 81

    _check(2, "index parametrization", 1, body)


def test_criterion_03_action_axioms_and_shift():
    def body():
        ks, ms = range(-10, 11), range(-60, 61)
        report = verify_action_axioms(ks, ms).merged(check_shift_law(ks, ms))
        assert report.ok(), report.render()

    _check(3, "action axioms and index shift", 5, body)


def test_criterion_04_equivariance_and_bijectivity():
    def body():
        report = check_equivariance(range(-20, 21), range(-50, 51))
        assert report.ok(), report.render()
        from cactuskit.confspace import cover_window

        images = {cover_to_group(v) for v in cover_window(50)}
        assert images == {CanonicalForm(m, 0) for m in range(-151, 152)}

    _check(4, "cover equivariance and bijectivity", 5, body)


def test_criterion_05_deck_isomorphism():
    def body():
        report = check_isomorphism(range(-15, 16))
        assert report.ok(), report.render()

    _check(5, "deck group isomorphism", 1, body)


def test_criterion_06_chamber_counts():
    def body():
        assert [len(enumerate_chambers(n)) for n in (3, 4, 5, 6)] == [1, 3, 12, 60]

    _check(6, "chamber counts", 5, body)


def test_criterion_07_cayley_window_shape():
    def body():
        graph = build_window("J3_2", 50)
        assert len(graph.vertices) == 101
        degrees = {v: 0 for v in graph.vertices}
        for src, dst, gen in graph.edges:
            gen_form = canonicalize(Word(3, (gen,)))
            assert mul(src, gen_form) == dst
            degrees[src] += 1
            degrees[dst] += 1
        for v in graph.vertices:
            assert degrees[v] == (1 if abs(v.m) == 50 else 2)

    _check(7, "cayley window is a path", 1, body)


def test_criterion_08_projection_relators():
    def body():
        checked = 0
        for n in range(2, 7):
            for _, lhs, rhs in relation_instances(n):
                assert project(lhs) == project(rhs)
                checked += 1
        assert checked > 100

    _check(8, "projection respects relations", 10, body)


def test_criterion_09_purity_period():
    def body():
        forward = parse_word("s1,2 s1,3")
        backward = parse_word("s1,3 s1,2")
        for j in range(-30, 31):
            base = forward if j >= 0 else backward
            w = Word(3, base.letters * abs(j))
            assert is_pure(w) == (j % 3 == 0)

    _check(9, "purity period three", 1, body)


def test_criterion_10_negative_control():
    def body():
        report = check_equivariance(
            range(-2, 3), range(-2, 3), phi=cover_to_group_perturbed
        )
        assert not report.ok()
        proc = subprocess.run(
            [
                sys.executable, "-m", "cactuskit", "verify", "equivariance",
                "--jmin", "-2", "--jmax", "2", "--kmin", "-2", "--kmax", "2",
                "--perturb-map",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[-1].startswith("FAIL ")

    _check(10, "perturbed map is caught", 1, body)


def test_criterion_11_projection_at_the_degree_cap():
    # 50,000 random letters at degree 1,000, the CLI's --n cap.  Reversing one
    # block per letter takes about 0.17 s per call on a 2-vCPU Xeon VM; a
    # whole-array step per letter takes seconds.
    rng = random.Random(11)
    pairs = [tuple(sorted(rng.sample(range(1, 1001), 2))) for _ in range(50_000)]
    w = Word.from_pairs(1000, pairs)
    there_and_back = Word(1000, w.letters + w.letters[::-1])

    def body():
        assert not project(w).is_identity()
        assert not is_pure(w)
        assert is_pure(there_and_back)

    _check(11, "projection at the degree cap", 1.5, body)


def test_criterion_12_oracle_at_the_radius_cap():
    # Radius 12, the CLI's --radius cap: 797,161 words.  Counting the words
    # and deciding each (form, map) pair once takes milliseconds; visiting
    # every word took about 1.2 s on a 2-vCPU Xeon VM.
    def body():
        report = check_oracle(12)
        assert report.ok(), report.render()
        assert report.total == 797_161 + 5

    _check(12, "oracle at the radius cap", 0.5, body)


def test_criterion_13_degree3_passes_on_a_million_letters():
    # One seeded 1,000,000-letter degree-3 word through every per-letter pass
    # of the long-words path.  Each pass is a loop over slot reads and int
    # arithmetic: 0.7-1.0 s in all on a 2-vCPU Xeon VM, where a slice per
    # letter in project and a running sign in the folds take 1.3-1.6 s.
    rng = random.Random(13)
    text = " ".join(rng.choices(("s1,2", "s1,3", "s2,3"), k=1_000_000))

    def body():
        w = parse_word(text)
        assert len(w) == 1_000_000
        half = len(w) // 2
        left, right = Word(3, w.letters[:half]), Word(3, w.letters[half:])
        reduced = free_reduce(w)
        perm = project(w)
        c = canonicalize(w)
        a = evaluate_word(w)
        short = to_word(c)
        assert mul(canonicalize(left), canonicalize(right)) == c
        assert canonicalize(reduced) == c
        assert project(short) == perm
        assert is_pure(w) == perm.is_identity()
        assert evaluate_word(short) == a
        # parse_word shares one Generator per token, so equal letters are
        # the same object.
        letters = reduced.letters
        assert 0 < len(letters) < 1_000_000
        assert not any(x is y for x, y in zip(letters, letters[1:]))

    _check(13, "degree-3 passes on a million letters", 2, body)


def test_criterion_14_equivariance_at_the_case_cap():
    # j in -166..166 over the cover vertices with k in -500..500: 333 x 3,003
    # = 999,999 cases, the CLI's cap.  The perturbed map moves [213]_k for odd
    # k, so a case fails exactly when its vertex is a [213] and j is odd:
    # 166 x 1,001 cases.  Each sweep takes about 2 s on a 2-vCPU Xeon VM, and
    # took 2.9-4.2 s when every value was built through the generic attribute
    # store.
    js, ks = range(-166, 167), range(-500, 501)

    def passing():
        report = check_equivariance(js, ks)
        assert report.ok(), report.render()[-200:]
        assert report.total == 999_999

    def perturbed():
        report = check_equivariance(js, ks, phi=cover_to_group_perturbed)
        assert report.total == 999_999
        assert len(report.failures) == 166 * 1_001
        for line in report.failures:
            j = int(line.split(" ", 2)[1].removeprefix("j="))
            assert j % 2 and " v=[213]_" in line, line

    _check(14, "equivariance at the case cap", 10, passing)
    _check(14, "perturbed map at the case cap", 10, perturbed)
