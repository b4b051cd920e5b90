"""Charts, evaluation, inversion, and the nonnegativity classifier.

Each Bruhat-comparable pair (w, w') carries a chart: a bijection from
parameter vectors of length l(w') - l(w) onto an open subset of the
intersection of opposite Schubert cells.  Positive parameters sweep out
exactly the nonnegative part.  Run with

    python3 demos/03_charts_and_classify.py
"""

import json

from tnnflag import weyl
from tnnflag.flag import borel_from
from tnnflag.linalg import Rat, y_mul
from tnnflag.richardson import build_chart, classify, eval_chart, invert_chart


def main() -> None:
    n = 3
    w = weyl.identity(n)
    wp = weyl.longest_element(n)
    chart = build_chart(w, wp)
    print(f"Chart for the open cell (e, w0) in rank {n}: dimension {chart.dim}")
    print("steps, from the outside in:", chart.shape())

    params = (Rat(1), Rat(1, 2), Rat(3))
    b = eval_chart(chart, params)
    print("\neval_chart at (1, 1/2, 3):")
    for row in b.rep:
        print("  ", [str(x) for x in row])

    recovered = invert_chart(chart, b)
    print("invert_chart recovers:", [str(c) for c in recovered])
    assert recovered == params

    result = classify(b)
    print("\nclassify on that point:")
    print(json.dumps(result.to_json(), indent=2, sort_keys=True))

    bad = eval_chart(chart, (Rat(1), Rat(-1, 2), Rat(3)))
    print("\nclassify with one negative parameter:")
    print(json.dumps(classify(bad).to_json(), indent=2, sort_keys=True))

    # the nonnegative part is stable under conjugation by positive
    # lower-triangular one-parameter subgroups
    moved = borel_from(y_mul((1,), (Rat(5),), b.rep))
    print("\nafter acting by y_1(5):",
          "still nonnegative" if classify(moved).nonneg else "left the set")


if __name__ == "__main__":
    main()
