"""The benchmark's workloads: fixed-size randclt command sequences.

Each workload is a list of `randclt` commands built from the workload seed;
the same seed gives the same commands.  `toy=True` shrinks every size for
the warm-up pass and the self-test while keeping the same code paths.

Why these three (the full reasons are in BENCHMARK.json):
- mc-sweep: most of its time is the per-trial summand sampler over wide
  index supports; index enumeration and kernels are negligible.
- functionals: no sampling; its time is index enumeration (n up to 1e6) and
  the randomized kernels, including the slowly growing twopoint profile.
  It keeps the seed's known defects in view instead of dropping them.
- rates-smooth: the vectorized sampler only, with few unique k and large
  trial vectors, so a sampler change that slows the fast path or raises
  memory shows here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed defects this benchmark measures rather than hides: their commands are
# counted as failed, but do not make the run incorrect while they persist.
CAP_DEFECT = "n=1e6 index enumeration stops at the 1e7-term cap"
CF_DEFECT = "cf-check exits 2 on the round-off tail of the capped poisson support"


@dataclass(frozen=True)
class Command:
    """One `randclt` invocation: subcommand plus (flag, value) pairs."""

    sub: str
    flags: tuple
    known_defect: str = ""

    def flag(self, name: str, default: str | None = None) -> str | None:
        for key, value in self.flags:
            if key == name:
                return value
        return default

    def argv(self, out: str) -> list:
        args = [self.sub]
        for key, value in self.flags:
            args += [key, value]
        return args + ["--out", out]

    def __str__(self) -> str:
        return " ".join([self.sub] + [f"{k} {v}" for k, v in self.flags])


def _cmd(sub: str, known_defect: str = "", **flags) -> Command:
    pairs = tuple(("--" + k.replace("_", "-"), str(v)) for k, v in flags.items())
    return Command(sub, pairs, known_defect)


def _seeds(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def mc_sweep(seed: int, toy: bool = False) -> list:
    s = _seeds(seed, 4)
    grid = "10,100" if toy else "10,100,1000"
    trials = 200 if toy else 5_000
    return [
        _cmd("simulate", family="rademacher", index="geometric", n_grid=grid,
             trials=1_000 if toy else 100_000, seed=s[0]),
        _cmd("simulate", family="twopoint", index="geometric", n_grid=grid,
             trials=trials, seed=s[1]),
        _cmd("simulate", family="uniform", index="poisson", n_grid=grid,
             trials=trials, seed=s[2]),
        _cmd("audit", family="uniform", index="poisson", n_grid="10,100",
             epsilon="0.1,0.5", trials=100 if toy else 5_000, seed=s[3]),
    ]


def functionals(seed: int, toy: bool = False) -> list:
    """Deterministic functionals; the seed is ignored because nothing samples."""
    del seed
    big = "10,100" if toy else "1000,1000000"
    cap = "" if toy else CAP_DEFECT
    return [
        _cmd("conditions", family="rademacher", index="geometric",
             n_grid="10,100,1000", epsilon="0.05,0.5", delta=1),
        _cmd("cf-check", index="det:5", t_grid="0,0.5,1,2,4"),
        _cmd("conditions", cap, family="rademacher", index="poisson",
             n_grid=big, epsilon=0.5),
        _cmd("conditions", cap, family="rademacher", index="geometric",
             n_grid=big, epsilon=0.5),
        _cmd("conditions", family="twopoint,growth=1.01", index="geometric",
             n_grid=100 if toy else 1000, epsilon=0.5),
        _cmd("audit", family="uniform", index="poisson", n_grid="10,100",
             epsilon="0.1,0.5", trials=0),
        _cmd("cf-check", "" if toy else CF_DEFECT, index="poisson",
             n_grid=100 if toy else 1_000_000),
    ]


def rates_smooth(seed: int, toy: bool = False) -> list:
    s = _seeds(seed, 4)
    trials = 10_000 if toy else 1_000_000
    return [
        _cmd("rates", family="rademacher", index="det", fn="sin",
             n_grid="4,16,64,256", trials=trials, seed=s[0]),
        _cmd("rates", mode="small-o", family="rademacher", index="geometric",
             fn="bump", n_grid="10,100,1000", epsilon=0.5, trials=trials, seed=s[1]),
        _cmd("rates", family="expcentered", index="det", fn="clamp",
             n_grid="4,16,64,256", trials=2 * trials, seed=s[2]),
        _cmd("rates", family="geomnormal", index="geometric", fn="sin",
             n_grid="10,100,1000", trials=2 * trials, seed=s[3]),
    ]


WORKLOADS = {
    "mc-sweep": mc_sweep,
    "functionals": functionals,
    "rates-smooth": rates_smooth,
}
