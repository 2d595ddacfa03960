"""Fixed CPU work that gauges how fast the machine runs; imports nothing of ultraext.

The benchmark runs it as its own process next to every timed job.  Its
wall and CPU time are the units of the job metrics: a host that runs
slower for a minute slows this process and the jobs alike, and the ratio
stays put, while a change to the program moves the job and not this.
The mix follows the job's: an interpreter start, the numpy import,
Python float loops (as in Taylor evaluation) and calls on small arrays.
"""

import math

import numpy as np

ROUNDS = 60000
DEGREE = 32


def main() -> None:
    coeffs = [1.0 / math.factorial(k) for k in range(DEGREE + 1)]
    grid = np.linspace(0.0, 1.0, DEGREE + 1)
    weights = np.array(coeffs)
    total = 0.0
    for i in range(ROUNDS):
        x = (i % 997) / 997.0
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        powers = np.power(x, np.arange(DEGREE + 1))
        total += acc - float(np.dot(powers, weights)) + float(np.abs(grid - x).min())
    print(repr(total))


if __name__ == "__main__":
    main()
