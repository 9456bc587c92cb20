"""Seeded inputs for the benchmark: synthetic trials and feature tables.

The package sees only what these functions return; the same seed always
gives the same inputs.
"""

from __future__ import annotations

import numpy as np

from physioshap.entropy import FEATURE_NAMES, FeatureVector
from physioshap.evaluate import Dataset, DatasetRow
from physioshap.signals import RATING_NAMES
from physioshap.synthetic import SyntheticSpec, generate_synthetic

#: Paper-length trials: 60 s of signal after a 3 s baseline at 128 Hz
#: (7680 samples per channel), the shape of the real 32 x 40 corpus.
PAPER = dict(duration_s=60.0, baseline_s=3.0)
#: The package default: 4 s trials (512 samples), as tests and sample configs use.
SHORT = dict(duration_s=4.0, baseline_s=1.0)

#: Features that carry each target's planted signal, and its strength
#: against noise of sd 0.3 and the per-subject offsets: strong enough that a
#: fit on 8 subjects does not stop at the prior.
LOADED_FEATURES = 6
SIGNAL = 0.5


def trials(seed: int, n_subjects: int, per_subject: int, shape: dict) -> list:
    """The first ``per_subject`` trials of each of the first ``n_subjects`` subjects."""
    spec = SyntheticSpec(
        n_subjects=max(2, n_subjects), trials_per_subject=max(2, per_subject), seed=seed, **shape
    )
    return [
        t for t in generate_synthetic(spec)
        if t.subject_id <= n_subjects and t.trial_id <= per_subject
    ]


def feature_table(seed: int, n_subjects: int, trials_per_subject: int) -> Dataset:
    """A 51-feature table with planted label signal and per-subject offsets.

    Each target's latent is stratified within every subject, so every
    subject holds both classes of every binarized target, and so does every
    fold's training side.

    Which features carry the signal, and how strongly, is the same for every
    seed; the seed draws the subjects and trials. Fit and attribution cost
    follow that structure, so throughput stays comparable across seeds.
    """
    fixed = np.random.default_rng(np.random.SeedSequence([51]))
    n_feat = len(FEATURE_NAMES)
    base = fixed.uniform(0.5, 2.0, size=n_feat)
    loadings = np.zeros((len(RATING_NAMES), n_feat))
    for k in range(len(RATING_NAMES)):
        cols = fixed.choice(n_feat, size=LOADED_FEATURES, replace=False)
        signs = fixed.choice([-1.0, 1.0], size=LOADED_FEATURES)
        loadings[k, cols] = SIGNAL * fixed.uniform(0.5, 1.0, size=LOADED_FEATURES) * signs
    rng = np.random.default_rng(np.random.SeedSequence([seed, 51]))
    scale = 1.0 + 0.15 * rng.normal(size=(n_subjects, n_feat))
    shift = 0.3 * rng.normal(size=(n_subjects, n_feat))
    rows = []
    for s in range(n_subjects):
        strata = np.stack([rng.permutation(trials_per_subject) for _ in RATING_NAMES], axis=1)
        latent = 2.0 * (strata + rng.uniform(size=strata.shape)) / trials_per_subject - 1.0
        x = base * scale[s] + shift[s] + 0.3 * rng.normal(size=(trials_per_subject, n_feat))
        x += latent @ loadings
        ratings = np.clip(5.7 + 3.2 * latent + rng.normal(0.0, 0.15, size=latent.shape), 1.0, 9.0)
        for t in range(trials_per_subject):
            rows.append(
                DatasetRow(
                    row_id=len(rows),
                    subject_id=s + 1,
                    trial_id=t + 1,
                    features=FeatureVector(dict(zip(FEATURE_NAMES, map(float, x[t])))),
                    ratings=dict(zip(RATING_NAMES, map(float, ratings[t]))),
                )
            )
    return Dataset(rows)


def head_rows(dataset: Dataset, per_subject: int, n_subjects: int = 2) -> Dataset:
    """The first ``per_subject`` rows of each of the first ``n_subjects`` subjects."""
    keep = set(dataset.subjects[:n_subjects])
    rows = [r for r in dataset.rows if r.subject_id in keep and r.trial_id <= per_subject]
    return Dataset(rows)
