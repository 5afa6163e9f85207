"""The streamed forward pass gives the figures of the pass that held whole
tensors.

Inference makes each input cell on its first read and drops it after its
last, and every fc layer but the last makes, folds and squares each output
only as the next layer reads it.  The digests below were
recorded from the pass before it streamed: the revealed logits, the
(scope, kind, level) counts of a step, and four refining rounds' losses,
decrypted models and counts.
"""

import hashlib
from functools import partial

import numpy as np
import pytest

from lhecnn.geometry import preset
from lhecnn.lhe import LevelExhausted, LheParams, SimulatorBackend
from lhecnn.metering import OpMeter
from lhecnn.oracle import init_params
from lhecnn.packing import LazyCells
from lhecnn.refine import RefineSession
from lhecnn.tee import TeeService

WORKLOADS = {
    "cnn-1-2": ("cnn-1-2", LheParams(4096, 6), "auto"),
    "refining-2-2": ("refining-2-2", LheParams(8192, 10), 1),
    "refining-2-2-wide": ("refining-2-2", LheParams(32768, 10), "auto"),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def counts_digest(counts) -> str:
    return digest(repr(sorted(counts.items())).encode())


def session(name, lhe, r_mode, exact=False, seed=5):
    cfg = preset(name).model
    tee = TeeService(SimulatorBackend(OpMeter()), lhe, seed=seed)
    sess = RefineSession(tee, cfg, lhe, r_mode=r_mode, exact_activation_grad=exact)
    sess.load_base_model(init_params(cfg, seed))
    return sess


def batch(cfg, seed=5):
    rng = np.random.default_rng(seed)
    first = cfg.conv[0]
    images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                              first.input_side)) * 0.2
    return images, rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)


@pytest.mark.parametrize("workload, logits, counts", [
    ("cnn-1-2", "0c4cc4c43b275d3f", "17f3b44e678332d0"),
    ("refining-2-2", "b01f520f7779413d", "53b0a7eb9c38ab64"),
    ("refining-2-2-wide", "640bb62738367fb5", "01ee2dda1df1f735"),
])
def test_inference_reveals_the_recorded_logits_and_counts(workload, logits, counts):
    sess = session(*WORKLOADS[workload])
    images, _ = batch(sess.cfg)
    mark = sess.meter.checkpoint()
    out, _ = sess.infer(images)
    delta = sess.meter.since(mark)
    assert digest(sess.reveal_outputs(out).tobytes()) == logits
    assert counts_digest(delta) == counts
    encrypts = {scope for scope, kind, _ in delta if kind == "encrypt"}
    assert encrypts == {"enc.inputs"}


# The stage each level budget runs out in, as before: FL1, the square after
# it, then FL2.  The streamed pass may meter fewer ops first.
@pytest.mark.parametrize("workload, levels, scope", [
    ("cnn-1-2", 3, "FL1"), ("cnn-1-2", 4, "Square2"), ("cnn-1-2", 5, "FL2"),
    ("refining-2-2", 5, "FL1"), ("refining-2-2", 6, "Square3"), ("refining-2-2", 7, "FL2"),
    ("refining-2-2-wide", 5, "FL1"), ("refining-2-2-wide", 6, "Square3"),
    ("refining-2-2-wide", 7, "FL2"),
])
def test_a_pass_out_of_levels_raises_as_before(workload, levels, scope):
    name, lhe, r_mode = WORKLOADS[workload]
    sess = session(name, LheParams(lhe.slot_count, levels), r_mode)
    images, _ = batch(sess.cfg)
    with pytest.raises(LevelExhausted) as info:
        sess.infer(images)
    assert (info.value.op, info.value.level, info.value.scope) == ("mul", 0, scope)
    assert sess.meter.current_scope == "(unscoped)"


@pytest.mark.parametrize("lhe, exact, losses, model, counts", [
    (LheParams(8192, 10), False, "684e3b1f273d7e40", "e0ed2328a70a534c", "dde58d8e4ec781e4"),
    (LheParams(8192, 10, 1e-6), False, "0b58a6295b1d65c8", "4e2d3b2e624ae672",
     "dde58d8e4ec781e4"),
    (LheParams(8192, 16), True, "adf87b2f07b8b36c", "68f09cbd5d4f8dfc", "de26ad2ea7e102d9"),
], ids=["noiseless", "noisy", "exact-at-16"])
def test_four_refining_rounds_keep_the_recorded_figures(lhe, exact, losses, model, counts):
    sess = session("refining-2-2", lhe, 1, exact)
    images, labels = batch(sess.cfg)
    got, maps = [], []
    for _ in range(4):
        mark = sess.meter.checkpoint()
        got += sess.refine(images, labels, lr=0.05).losses
        maps.append(repr(sorted(sess.meter.since(mark).items())))
    plain = sess.decrypted_model()
    assert digest(np.array(got).tobytes()) == losses
    assert digest(b"".join(a.tobytes() for a in plain.filters + plain.weights)) == model
    assert digest("".join(maps).encode()) == counts


class TestLazyCells:
    def cells(self, made):
        def make(key):
            made.append(key)
            return key[0] * 10
        return LazyCells({(k,): partial(make, (k,)) for k in range(3)})

    def test_reading_makes_a_cell_once(self):
        made = []
        cells = self.cells(made)
        assert len(cells) == 3 and (1,) in cells and list(cells) == [(0,), (1,), (2,)]
        assert made == []
        assert cells[(1,)] == 10 and cells[(1,)] == 10
        assert made == [(1,)]
        assert dict(cells) == {(0,): 0, (1,): 10, (2,): 20}
        assert made == [(1,), (0,), (2,)]

    def test_pop_makes_and_drops(self):
        made = []
        cells = self.cells(made)
        assert cells.pop((2,)) == 20 and (2,) not in cells
        assert list(cells) == [(0,), (1,)] and made == [(2,)]
        with pytest.raises(KeyError):
            cells.pop((2,))
        assert made == [(2,)]

    def test_a_maker_that_raises_leaves_its_key_unmade(self):
        calls = []

        def make():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return 7

        cells = LazyCells({(0,): make})
        with pytest.raises(RuntimeError):
            cells.pop((0,))
        assert cells[(0,)] == 7 and len(calls) == 2
