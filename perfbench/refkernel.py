"""Fixed reference computation that gauges the machine's current speed.

A 50-digit mpmath loop that uses no package code, so no change to the
package can move it.  ``run.py`` times it in process next to each block
of in-process samples, and times ``python perfbench/refkernel.py`` (an
interpreter start plus this loop) next to each subprocess it measures.
"""

from mpmath import exp, mp, mpf, sqrt


def run() -> None:
    with mp.workdps(50):
        x, total = mpf(1) / 7, mpf(0)
        for i in range(400):
            total += exp(x * i) * x + sqrt(x + i)


if __name__ == "__main__":
    run()
