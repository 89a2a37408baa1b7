"""Single-node Newton solvers on the HIGGS-like binary problem.

The distributed Newton-ADMM driver delegates every local subproblem to a
single-node solver; this example compares the inexact Newton-CG the library
uses for that role (the paper's Algorithm 1) with sub-sampled Newton, which
forms each Hessian-vector product on a row sample, on an L2-regularized
logistic regression.

Run with:  python examples/single_node_second_order.py
(`--smoke` shrinks the workload to CI size; the docs CI job runs it.)
"""

import sys

import numpy as np

from repro import load_dataset
from repro.metrics import format_table
from repro.objectives import BinaryLogistic, L2Regularizer, RegularizedObjective
from repro.solvers import NewtonCG, SubsampledNewton

SMOKE = "--smoke" in sys.argv[1:]


def main() -> None:
    n_train, n_test = (1500, 400) if SMOKE else (8000, 2000)
    iters = 8 if SMOKE else 30
    train, test = load_dataset("higgs_like", n_train=n_train, n_test=n_test, random_state=0)
    loss = BinaryLogistic(train.X, train.y)
    objective = RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-4))

    solvers = {
        "newton_cg": NewtonCG(max_iterations=iters, cg_max_iter=20, cg_tol=1e-6),
        "subsampled_newton": SubsampledNewton(
            hessian_sample_fraction=0.1, max_iterations=iters, cg_max_iter=20, random_state=0
        ),
    }

    rows = []
    for name, solver in solvers.items():
        result = solver.minimize(objective)
        test_accuracy = float(np.mean(loss.predict(result.w, test.X) == test.y))
        rows.append(
            {
                "solver": name,
                "iterations": result.n_iterations,
                "final_objective": result.objective,
                "grad_norm": result.grad_norm,
                "test_accuracy": test_accuracy,
                "wall_time_s": result.info.get("wall_time", float("nan")),
            }
        )
    print(
        format_table(
            rows,
            title="Single-node Newton solvers on the HIGGS-like logistic problem (lambda=1e-4)",
        )
    )


if __name__ == "__main__":
    main()
