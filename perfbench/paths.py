"""The ``paths`` operation: path metrics on CLT trajectories of Rademacher walks.

No builtin experiment calls these metrics, so the benchmark calls the
library directly, looking each function up on its module at call time
(so a traced run sees its wrappers).  Each call is a tuple
(label, metric, trajectory kind, walk length, extra argument); the walks
take seeds ``base, base + 1, ...`` in call order.  walklimits is imported
only when the operation runs, so an untraced run.py never loads it.
"""

CONSTANT = "piecewise-constant"
LINEAR = "piecewise-linear"
RHO_PAIRS = 20

CALLS = (
    ("modulus_w-step-1200", "modulus_w", CONSTANT, 1200, 0.1),
    ("modulus_w-linear-4000", "modulus_w", LINEAR, 4000, 0.1),
    ("occupation-linear-800", "occupation", LINEAR, 800, None),
    ("modulus_w_prime-80", "modulus_w_prime", CONSTANT, 80, 0.05),
    *(
        (f"rho_skorokhod-64-{i}", "rho_skorokhod", CONSTANT, 64, None)
        for i in range(RHO_PAIRS)
    ),
    ("rho_skorokhod_circ-8x8", "rho_skorokhod_circ", CONSTANT, 8, None),
)

PAIRWISE = ("rho_skorokhod", "rho_skorokhod_circ")


def walk_steps() -> int:
    """Rademacher steps one run samples: pairwise metrics take two walks."""
    return sum(n * (2 if metric in PAIRWISE else 1) for _, metric, _, n, _ in CALLS)


def _trajectory(kind: str, n: int, seed: int):
    from walklimits import walks

    walk = walks.sample_walk(walks.rademacher(1), n, seed)
    return walks.clt_trajectory(walk, kind, [0.0])


def run(base: int) -> list:
    """Evaluate every call; returns [label, repr(value), mode] rows."""
    from walklimits import metrics

    rows = []
    seed = base
    for label, metric, kind, n, extra in CALLS:
        f = _trajectory(kind, n, seed)
        seed += 1
        fn = getattr(metrics, metric)
        if metric in PAIRWISE:
            g = _trajectory(kind, n, seed)
            seed += 1
            res = fn(f, g)
            value, mode = res.value, res.mode
        elif metric == "occupation":
            value, mode = fn(f, metrics.positive_halfline()), "value"
        else:
            value, mode = fn(f, extra), "value"
        rows.append([label, repr(float(value)), mode])
    return rows
