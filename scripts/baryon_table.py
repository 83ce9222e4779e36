"""Reproduce the three-quark mass table and compare against benchmark masses.

Benchmark column: eigenmasses of the massless three-quark Hamiltonian
(one-body linear confinement + pairwise Coulomb) from a large
oscillator-basis diagonalization, for string tension 0.2 GeV^2 and strong
coupling 0.4. The closed formulas should bracket or track them: M0 from above
everywhere, M2 within about a percent. The exit code is 1 if M0 falls below a
benchmark mass (a WARNING line), else 0.

Usage: python scripts/baryon_table.py [lambda] [alphas]
"""
import sys

from auxfield.systems import baryon_table

BENCHMARK = {
    (0, 0): 2.128, (1, 1): 2.606, (2, 0): 2.739, (2, 2): 2.959,
    (3, 1): 3.125, (3, 3): 3.299, (4, 0): 3.260, (4, 2): 3.422,
    (4, 4): 3.581, (5, 1): 3.584, (5, 3): 3.716, (5, 5): 3.861,
    (6, 0): 3.721, (6, 2): 3.838, (6, 4): 3.966, (6, 6): 4.103,
}


def main():
    lam = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    alphas = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    print(f"string tension {lam} GeV^2, strong coupling {alphas}")
    print(f"{'B':>2} {'L':>2} {'bench':>7} {'M0':>7} {'(err%)':>7} "
          f"{'M1':>7} {'(err%)':>7} {'M2':>7} {'(err%)':>7}")
    worst = 0.0
    warned = False
    for band, l, m0, m1, m2 in baryon_table(lam, alphas):
        bench = BENCHMARK.get((band, l))
        if bench is None:
            continue
        errs = [100.0 * (m - bench) / bench for m in (m0, m1, m2)]
        worst = max(worst, abs(errs[2]))
        print(f"{band:>2} {l:>2} {bench:7.3f} {m0:7.3f} {errs[0]:7.1f} "
              f"{m1:7.3f} {errs[1]:7.1f} {m2:7.3f} {errs[2]:7.1f}")
        if m0 <= bench:
            warned = True
            print("   WARNING: M0 fell below the benchmark eigenmass")
    print(f"worst |M2 error|: {worst:.2f}%")
    return 1 if warned else 0


if __name__ == "__main__":
    sys.exit(main())
