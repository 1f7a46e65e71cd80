"""The enveloping kernel against the oracles of
tests/oracles/enveloping_kernel.py: the PBW normal form with its bracket
index and shared entries, and the length-pruned tensor-square products,
equal the row-scanning normal form and the untruncated right-leg products
in value and in type; no caller changes a PBW cache entry that other
words share; and every word the kernel stores is bytes."""

import itertools
import json
import random

import pytest

from postlie import cli, liealg, magnus, products, rmatrix
from postlie import enveloping as ev
from conftest import seeded
from oracles import enveloping_kernel as oracle


def _context(name):
    """A named r-matrix, or the splitting r-matrix of upper_lower_split(n)."""
    if name.startswith("upper_lower_split"):
        L = liealg.builtin(name)
        return rmatrix.splitting_r(L, *L.splitting)
    return rmatrix.builtin_rmatrix(name)


def _fresh(L):
    """The same structure constants as L, with empty caches."""
    return liealg.LieAlgebra(L.dim, L.labels, L.C_rows, L.realization, L.mode)


def _typed(terms):
    return {w: (type(c), c) for w, c in terms.items()}


@pytest.mark.parametrize(
    "name,longest",
    [("sl(2)", 6), ("sl2-borel", 6), ("split2", 6), ("upper_lower_split(3)", 4)],
)
def test_every_raw_word_normalizes_as_the_row_scan_does(name, longest):
    L = liealg.builtin(name) if name == "sl(2)" else _context(name).algebra
    reference = _fresh(L)
    for n in range(longest + 1):
        for word in map(bytes, itertools.product(range(L.dim), repeat=n)):
            got = ev._normalize_terms(L, word)
            assert _typed(got) == _typed(oracle._normalize_terms(reference, word)), word


def _random_tensor(L, order, rng, terms=5):
    """A sum of word pairs that is not a coproduct: normal legs of any
    length up to the grade, total length up to the grade."""
    out = {}
    for _ in range(terms):
        n = rng.randint(0, order)
        m = rng.randint(0, order - n)
        legs = [bytes(sorted(rng.randrange(L.dim) for _ in range(k))) for k in (n, m)]
        out[tuple(legs)] = rng.randint(-3, 3)
    return ev.TensorSquareElement(L, order, out)


@pytest.mark.parametrize("name", ["split2", "sl2-borel"])
@pytest.mark.parametrize("order", [4, 5, 6])
def test_tensor_square_products_match_the_untruncated_oracle(name, order):
    ctx = _context(name)
    L, product = ctx.algebra, products.from_rmatrix(ctx, "-")
    reference = _fresh(L)
    star_word = ev.lifted(L, product, order).star_word
    rng = seeded(order * 7 + len(name))
    for _ in range(6):
        S, T = _random_tensor(L, order, rng), _random_tensor(L, order, rng)
        for got, want in (
            (ev.tensor_mul(S, T),
             oracle._tensor_square_mul(
                 S, T, lambda a, b: oracle._normalize_terms(reference, a + b))),
            (ev.tensor_star_mul(S, T, product),
             oracle._tensor_square_mul(S, T, star_word)),
        ):
            assert got == want and _typed(got.terms) == _typed(want.terms)


def test_shared_pbw_entries_are_never_changed(monkeypatch):
    """After a hopf-suite run and an order-5 star chi on
    upper_lower_split(3), every PBW cache entry of every algebra built is
    the oracle's normal form of its key, so no caller changed an entry that
    other words share; and some entries are shared, so the check covers
    them."""
    built = []
    init = liealg.LieAlgebra.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(liealg.LieAlgebra, "__init__", recording)
    argv = ["hopf-suite", "--builtin", "split2", "--order", "5", "--degree", "5",
            "--cases", "40", "--seed", "0"]
    assert cli.main(argv) == 0
    ctx = _context("upper_lower_split(3)")
    x = [1, -2, 1, 2, -1, 1, 2, 1, -1]
    magnus.postlie_magnus(ctx.algebra, x, products.from_rmatrix(ctx, "-"), 5)
    monkeypatch.undo()
    shared = 0
    for L in built:
        cache = L._pbw_cache
        reference = _fresh(L)
        for word, entry in cache.items():
            assert _typed(entry) == _typed(oracle._normalize_terms(reference, word)), word
        shared += len(cache) - len({id(entry) for entry in cache.values()})
    assert shared >= 1


def _recording(init, seen):
    def record(self, *args):
        init(self, *args)
        seen.append(self)
    return record


def _memo_words(key, value):
    """The words in one lift-memo entry: those of its key and of its value;
    a "v" entry keys the letters of a g-vector and maps words to term maps."""
    kind, *args = key
    if kind != "v":
        yield from args
        yield from value
        return
    (vector,) = args
    yield from (w for w, _ in vector)
    for w, image in value.items():
        yield w
        yield from image


def test_every_stored_word_is_bytes(monkeypatch, tmp_path):
    """After a hopf-suite on the right post-Lie product, one on a product
    that is not post-Lie (its star antipode fails) and an order-5 star chi
    on upper_lower_split(3), every word is bytes: in each term map built, in
    the keys and entries of each PBW cache and in every lift-memo entry of
    each kind.  A tuple word would never meet the bytes word it spells."""
    algebras, contexts, maps = [], [], []
    for cls, seen in ((liealg.LieAlgebra, algebras), (ev.LiftedProduct, contexts),
                      (ev._TermMap, maps)):
        monkeypatch.setattr(cls, "__init__", _recording(cls.__init__, seen))
    rng = random.Random(0)
    entries = [[i, j, k, rng.randint(-2, 2)] for i in range(3) for j in range(3) for k in range(3)]
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"dim": 3, "product": entries}))
    assert cli.main(["hopf-suite", "--builtin", "split2", "--order", "4", "--cases", "10"]) == 0
    argv = ["hopf-suite", "--builtin", "sl(2)", "--product", str(path), "--order", "4",
            "--cases", "10"]
    assert cli.main(argv) == 1
    ctx = _context("upper_lower_split(3)")
    x = [1, -2, 1, 2, -1, 1, 2, 1, -1]
    magnus.postlie_magnus(ctx.algebra, x, products.from_rmatrix(ctx, "-"), 5)
    monkeypatch.undo()
    assert {type(T) for T in maps} == {ev.EnvElement, ev.TensorSquareElement}
    words = []
    for T in maps:
        for key in T.terms:
            words += key if isinstance(T, ev.TensorSquareElement) else [key]
    for L in algebras:
        for word, entry in L._pbw_cache.items():
            words += [word, *entry]
    assert {key[0] for c in contexts for key in c._memo} == {"t", "s", "a", "v"}
    for c in contexts:
        for key, value in c._memo.items():
            words += _memo_words(key, value)
    assert len(words) > 10000
    assert {type(w) for w in words} == {bytes}
