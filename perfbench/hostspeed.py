"""Host-speed probe: how fast the benchmark's CPU runs while an operation runs.

Usage: python3 hostspeed.py SAMPLES_FILE

On a shared host the speed of one virtual CPU changes by up to half from
one second to the next and stays off for tens of seconds, depending on
what other tenants run on the same physical core.  A 14 s operation
timed on two runs minutes apart can differ by a third with no change to
the code.  The probe measures that speed directly.  It runs on the same
CPU as the operations (run.py pins itself, and so its children, to one
CPU), and every PERIOD_S it times a fixed piece of pure-Python work and
appends `start duration` to SAMPLES_FILE.  It sleeps in between, so it
takes about 2% of the CPU.  run.py kills it when the run ends.

`Speed.scale(t0, t1)` is REFERENCE_S over the mean probe duration within
[t0, t1].  A time measured in that window, times the scale, is the time
the same work takes while the CPU runs at its uncontended speed.  The
scale does not depend on flatcheck's code, so a faster flatcheck still
shows as a shorter time.
"""

import bisect
import os
import statistics
import sys
import time

PERIOD_S = 0.025
PROBE_LOOPS = 300
# Uncontended probe duration on the reference host (the fastest tenth of
# the samples on a 2-vCPU Intel Xeon VM, Python 3.11): it turns scaled
# times back into seconds.  Any fixed value would do for comparisons.
REFERENCE_S = 0.00032


class _Term:
    """A small object like the ones symbolic code allocates by the million."""

    __slots__ = ("coeff", "degree")

    def __init__(self, coeff, degree):
        self.coeff = coeff
        self.degree = degree

    def times(self, other):
        return _Term(self.coeff * other.coeff, self.degree + other.degree)


def work(loops):
    """Allocation, attribute access, calls and string-keyed dicts, as in sympy.

    Code of that kind slows down under contention about as much as
    flatcheck does; a tight arithmetic loop slows down less.
    """
    product, table = _Term(1, 0), {}
    for i in range(loops):
        term = _Term(i | 1, i & 63)
        product = product.times(term)
        product.coeff %= 1000003
        table["k%d" % term.degree] = product
    return product.coeff


def main():
    clock, parent = time.monotonic, os.getppid()
    with open(sys.argv[1], "w", encoding="utf-8", buffering=1) as out:
        due = clock()
        # It also stops by itself once the run that started it is gone.
        while os.getppid() == parent:
            began = clock()
            work(PROBE_LOOPS)
            out.write("%.6f %.7f\n" % (began, clock() - began))
            due += PERIOD_S
            pause = due - clock()
            if pause > 0:
                time.sleep(pause)
            else:
                due = clock()


class Speed:
    """The probe samples of one run, read after the probe has stopped."""

    def __init__(self, path):
        pairs = []
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) == 2:
                pairs.append((float(fields[0]), float(fields[1])))
        if not pairs:
            raise RuntimeError("the host-speed probe wrote no samples")
        self.starts = [t for t, _ in pairs]
        self.durations = [d for _, d in pairs]

    def scale(self, t0, t1):
        """REFERENCE_S over the mean probe duration in [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < 3:
            # A window shorter than a few periods takes its nearest samples.
            lo, hi = max(0, lo - 2), min(len(self.starts), hi + 2)
        return REFERENCE_S / statistics.fmean(self.durations[lo:hi])


if __name__ == "__main__":
    main()
