"""Mini Table III: train two models and compare them on hidden cases.

A scaled-down version of ``benchmarks/bench_table3_comparison.py`` that
finishes in a couple of minutes:

    python examples/compare_baselines.py
"""

from repro.core.registry import OURS
from repro.data import make_suite
from repro.eval import EvalConfig, format_table3, run_comparison


def main() -> None:
    print("generating suite ...")
    suite = make_suite(num_fake=8, num_real=5, num_hidden=4, seed=21)

    config = EvalConfig.from_env(epochs=12, pretrain_epochs=2)
    names = ["IREDGe", OURS]
    print(f"training {names} for {config.epochs} epochs each ...")
    result = run_comparison(suite, names, config, reference=OURS)

    print()
    print(format_table3(result, names))
    print()
    for name in names:
        print(f"{name}: trained in {result.train_seconds[name]:.0f}s")

    ours, theirs = result.averages[OURS], result.averages["IREDGe"]
    if ours.f1 >= theirs.f1:
        print(f"\nLMM-IR wins on F1: {ours.f1:.2f} vs {theirs.f1:.2f} "
              "(netlist modality + extra features at work)")
    else:
        print(f"\nIREDGe won this seed ({theirs.f1:.2f} vs {ours.f1:.2f}) — "
              "training budgets this small are noisy; raise epochs.")


if __name__ == "__main__":
    main()
