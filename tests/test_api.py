"""The public surface: every name a module exports exists, and every entry
point refuses a bad input the way the others do.

A name deleted from a module but left in its ``__all__`` breaks
``from agrm.<module> import *`` for every caller; these tests catch that
for each module of the package, including ones added later.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import agrm
from agrm import core, data, gradients, head, losses, trainer

MODULES = sorted(info.name for info in pkgutil.iter_modules(agrm.__path__))


def test_every_module_is_found():
    assert {"cli", "core", "data", "gradients", "head", "losses", "trainer"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"agrm.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace = {}
    exec(f"from agrm.{name} import *", namespace)
    module = importlib.import_module(f"agrm.{name}")
    assert set(getattr(module, "__all__", [])) <= set(namespace)


NAN, INF = float("nan"), float("inf")
HP = head.init_head(2, 3, seed=0)
X = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
T = np.array([1.0, 2.0, 3.0, 4.0])
PENALTY = "the correlation penalty"

# Each input rule (counts from 0, 1 and 2 up, with the grade count k the
# last; feature widths; finite numbers; non-negative numbers, the loss
# weight among them; score and feature vectors): its bad values (nan, inf,
# then out of range or of the wrong type) and its entry points, each a
# (subject, call) pair; the refusal names the subject, and the rest of the
# message is the rule's own.  The feature widths are (d, 3 - d), the split
# a Records set makes of 3 columns at image width d.
RULES = {
    "k": (
        [NAN, INF, 1, 2.0, True, np.int64(2)],
        [
            ("k", lambda k: core.AgrmParams(theta=0.0, beta1=0.0, gamma=1.0, k=k)),
            ("k", lambda k: core.agrm_probs_batch([0.0], [0.0], [1.0], k)),
            ("k", lambda k: core.rescale_score(3.0, k)),
            ("k", lambda k: head.HeadConfig(k=k)),
            ("batch_size", lambda v: trainer.TrainConfig(batch_size=v)),
            ("n", lambda v: data.SynthConfig(n=v)),
        ],
    ),
    "count>=1": (
        [NAN, INF, 0, 1.0, True, "x"],
        [
            ("epochs", lambda v: trainer.TrainConfig(epochs=v)),
            ("t_max", lambda v: trainer.TrainConfig(t_max=v)),
            ("t_max", lambda v: trainer.cosine_lr(0, 1e-3, v)),
        ],
    ),
    "count>=0": (
        [NAN, INF, -1, 0.0, True, "x"],
        [
            ("seed", lambda v: trainer.TrainConfig(seed=v)),
            ("epoch", lambda v: trainer.cosine_lr(v, 1e-3, 5)),
            ("seed", lambda v: data.SynthConfig(n=4, seed=v)),
        ],
    ),
    "dims": (
        [NAN, INF, 0, 3, 1.5, True, np.int64(1)],
        [
            ("feature dims", lambda d: head.init_head(d, 3 - d)),
            (
                "feature dims",
                lambda d: data.Records(
                    x=np.ones((1, 3)), d_img=d, mos=[1.0], id=["a"], dim=["quality"]
                ),
            ),
            ("feature dims", lambda d: data.SynthConfig(n=4, d_img=d, d_txt=3 - d)),
            (
                "feature dims",
                lambda d: head.HeadParams(
                    config=HP.config, d_img=d, d_txt=3 - d,
                    **{name: getattr(HP, name) for name in head.PARAM_FIELDS},
                ),
            ),
        ],
    ),
    "finite": (
        [NAN, INF, 10**400, True, "x"],
        [
            ("theta", lambda v: core.AgrmParams(theta=v, beta1=0.0, gamma=1.0)),
            ("gamma", lambda v: core.AgrmParams(theta=0.0, beta1=0.0, gamma=v)),
            ("threshold", lambda v: core.GeneralGrmParams(theta=0.0, thresholds=(v,))),
            ("q", lambda v: core.rescale_score(v, 5)),
        ],
    ),
    # the non-negative rule, the loss weight's among others
    "lam": (
        [NAN, INF, -1.0, True, "x", 10**400],
        [
            ("lam", lambda lam: losses.total_loss(losses.ScoreBatch(T, T[::-1]), lam)),
            ("lam", lambda lam: gradients.batch_loss_and_grads(HP, X, T, lam)),
            ("lam", lambda lam: gradients.fd_check(HP, X, T, lam=lam)),
            ("lr", lambda v: trainer.TrainConfig(lr=v)),
            ("weight_decay", lambda v: trainer.TrainConfig(weight_decay=v)),
            ("lam", lambda v: trainer.TrainConfig(lam=v)),
            ("noise_sigma", lambda v: data.SynthConfig(n=4, noise_sigma=v)),
        ],
    ),
    # the other half of the lam rule: at lam > 0 the penalty needs 2
    # scores; the value is the batch size
    "lam-batch": (
        [1],
        [
            (PENALTY, lambda n: losses.total_loss(losses.ScoreBatch(T[:n], T[:n]))),
            (PENALTY, lambda n: losses.plcc_loss(losses.ScoreBatch(T[:n], T[:n]))),
            (PENALTY, lambda n: gradients.batch_loss_and_grads(HP, X[:n], T[:n])),
            (PENALTY, lambda n: gradients.fd_check(HP, X[:n], T[:n])),
        ],
    ),
    "vector": (
        [[1.0, NAN], [1.0, INF], [], [[1.0, 2.0]], [10**400, 1.0]],
        [
            ("f_i", lambda v: head.FeaturePair(f_i=v, f_t=[1.0])),
            ("predicted", lambda v: losses.ScoreBatch(v, [1.0, 2.0])),
            ("target", lambda v: losses.ScoreBatch([1.0, 2.0], v)),
            ("predicted", lambda v: losses.srcc(v, [1.0, 2.0])),
            ("target", lambda v: losses.plcc_metric([1.0, 2.0], v)),
            ("values", lambda v: losses.midranks(v)),
        ],
    ),
}


@pytest.mark.parametrize(
    "rule, value",
    [(rule, value) for rule, (values, _) in RULES.items() for value in values],
    ids=lambda v: repr(v)[:16],
)
def test_each_input_rule_refuses_with_one_message(rule, value):
    messages = set()
    for subject, call in RULES[rule][1]:
        with pytest.raises(ValueError) as exc:
            call(value)
        message = str(exc.value)
        assert "\n" not in message
        assert message.startswith(subject + " "), message
        messages.add(message.removeprefix(subject))
    assert len(messages) == 1, messages
