"""Seeded workload generation for the CLI benchmark.

A workload is a pass of CLI commands plus the distinct configs whose
`order disc` child measures set-up.  Every seeded choice is drawn from a
finite pool below, so `universe()` lists every command any seed can
produce and each one has a recorded reference digest.

Pools are grouped so that every seed gives a pass of nearly the same
cost: the seed chooses *which* algebra, window, tau or mu is used, never
how many, and within a tier the members cost the same to within a few
percent (minimum of repeated in-process timings, Python 3.11 with the
pure-Python mpmath backend, on a pinned CPU).
"""

import random

# Algebras used in the benchmark, with their ramified primes.  The products
# are the discriminants the maximal order must reach.
RAMIFIED = {
    (3, -1): (2, 3),
    # enumerate: cheap saturation; `cm enumerate --height 2` plus
    # `units --height 3` cost 0.36-0.40 s
    (3, -7): (3, 7), (2, -5): (2, 5), (5, -7): (5, 7), (2, -13): (2, 13),
    # saturate, heavy tier: odd unramified gap prime 17 or 19, 0.69-0.71 s
    # per saturation
    (7, -57): (2, 7), (21, -34): (2, 3), (11, -38): (2, 11),
    (34, -51): (2, 17), (30, -57): (2, 5), (19, -29): (2, 29),
    # saturate, middle tier: gap prime 13, 0.35-0.40 s
    (13, -22): (2, 11), (39, -42): (2, 3), (13, -38): (2, 19),
    (13, -42): (2, 7), (13, -14): (2, 7), (13, -10): (2, 5),
    # saturate, light tier: gap prime 7, 0.06-0.07 s
    (7, -34): (2, 17), (7, -17): (2, 17), (7, -33): (2, 11),
    (11, -14): (2, 11), (2, -35): (2, 5), (7, -35): (5, 7),
}

ENUMERATE_ALGEBRAS = ((3, -7), (2, -5), (5, -7), (2, -13))
SATURATE_TIERS = (
    ((7, -57), (21, -34), (11, -38), (34, -51), (30, -57), (19, -29)),
    ((13, -22), (39, -42), (13, -38), (13, -42), (13, -14), (13, -10)),
    ((7, -34), (7, -17), (7, -33), (11, -14), (2, -35), (7, -35)),
)

# rectangles re_min,re_max,im_min,im_max for the seeded CM window
WINDOW_RE = ("-1,1", "-0.5,0.5", "0,1.5", "-1.5,0")
WINDOW_IM = ("0.5,2", "0.3,1", "1,4")
WINDOW_HEIGHT = 3

TAUS = ("i", "0.5+2i", "-0.3+0.8i", "0.25+1.5i", "1.2+0.6i", "-2+3i",
        "0.1+0.4i", "-0.75+1.1i")
# elliptic elements of the maximal order of (3, -1), (1, x, y, xy) coordinates
MUS = ("0,0,1,0", "1/2,1/2,3/2,1/2", "1/2,-1/2,3/2,1/2", "0,-1,2,0",
       "-1/2,-1/2,3/2,-1/2", "1/2,1/2,5/2,1/2", "0,1,2,0", "1,0,2,1")
PRECISIONS = (128, 256)
SUITE_TRIALS = 10

# classify: one case per branch of the case rules, with the verdict the
# theory dictates; variants differ only in the covering data
CLASSIFY_BRANCHES = {
    "fiber": ((("--in-fiber",),), "NonSplit"),
    "surface": (((),), "NonSplit"),
    "rational": ((("--genus", "0"), ("--genus", "0", "--in-fiber")),
                 "NonSplit"),
    "elliptic": ((("--genus", "1", "--in-fiber"),), "Split"),
    "genus_in_fiber": (tuple(("--genus", str(g), "--in-fiber")
                             for g in (2, 3, 4)), "NonSplit"),
    # etale: 2g - 2 = d (2 gc - 2)
    "etale": (tuple(("--genus", str(d * (gc - 1) + 1), "--degree", str(d),
                     "--gc", str(gc)) for d in (1, 2, 3) for gc in (2, 3)),
              "Split"),
    # ramified: 2g - 2 = d (2 gc - 2) + r with r > 0
    "ramified": (tuple(("--genus", str((2 * d + r) // 2 + 1), "--degree",
                        str(d), "--ramification", str(r))
                       for d in (1, 2) for r in (2, 4)), "NonSplit"),
}

WORKLOADS = ("enumerate", "certify", "saturate")

# reference-kernel units per slice (one slice before each child and one
# after the last); about a quarter of the pass time
REF_UNITS = {"enumerate": 75, "certify": 14, "saturate": 35}


class Command:
    """One CLI invocation: subcommand words, the config, then options.

    The config path goes right after the subcommand words: argparse
    rejects `suite all --trials 10 x.cfg` (exit 2) but accepts
    `suite all x.cfg --trials 10`.
    """

    __slots__ = ("words", "config", "options", "kind", "expect")

    def __init__(self, words, config, options=(), expect=None):
        self.words = tuple(words)
        self.config = config
        self.options = tuple(options)
        self.kind = " ".join(self.words)
        self.expect = expect

    @property
    def key(self):
        """Stable identity used for the reference digests."""
        return " ".join((config_name(self.config),) + self.words
                        + self.options)

    def argv(self, config_path):
        return list(self.words) + [config_path] + list(self.options)

    def __eq__(self, other):
        return isinstance(other, Command) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Command({self.key!r})"


def config_name(config):
    (a, b), prec = config
    return f"a{a}_b{b}_p{prec}"


def config_text(config):
    """Config file text; precision is explicit so the environment cannot
    change it."""
    (a, b), prec = config
    return (f"algebra.a = {a}\nalgebra.b = {b}\n"
            f"order = saturate-from-standard\n"
            f"precision = {prec}\nseed = 0\n")


def _b31(prec=128):
    return ((3, -1), prec)


def _enumerate_cmds(window, algebra):
    base = _b31()
    alg = (algebra, 128)
    return [
        Command(("cm", "enumerate"), base, ("--height", "4")),
        Command(("units",), base, ("--height", "4", "--congruence", "3")),
        Command(("cm", "enumerate"), base,
                ("--height", str(WINDOW_HEIGHT), f"--window={window}")),
        Command(("cm", "enumerate"), alg, ("--height", "2")),
        Command(("units",), alg, ("--height", "3")),
    ]


def _certify_cmds(prec, tau, mu):
    cfg = _b31(prec)
    return [
        Command(("fiber", "h0"), cfg, (f"--tau={tau}",)),
        Command(("curve", "split"), cfg, (f"--mu={mu}",)),
        Command(("suite", "all"), cfg, ("--trials", str(SUITE_TRIALS))),
    ]


def _classify_cmd(branch, options):
    return Command(("classify",), _b31(), options,
                   expect=CLASSIFY_BRANCHES[branch][1])


def _saturate_cmds(algebra):
    cfg = (algebra, 128)
    return [Command(("algebra", "check"), cfg),
            Command(("order", "saturate"), cfg),
            Command(("order", "maximal"), cfg),
            Command(("order", "verify"), cfg)]


def setup_command(config):
    return Command(("order", "disc"), config)


class Workload:
    """A seeded pass of commands and the configs it needs."""

    def __init__(self, name, commands):
        self.name = name
        self.commands = commands
        self.setup = [setup_command(c)
                      for c in sorted({c.config for c in commands})]
        self.ref_units = REF_UNITS[name]


def generate(name, seed):
    """The pass for workload `name` at `seed`; equal seeds give equal passes."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    if name == "enumerate":
        window = f"{rng.choice(WINDOW_RE)},{rng.choice(WINDOW_IM)}"
        cmds = _enumerate_cmds(window, rng.choice(ENUMERATE_ALGEBRAS))
    elif name == "certify":
        cmds = []
        for prec in PRECISIONS:
            cmds += _certify_cmds(prec, rng.choice(TAUS), rng.choice(MUS))
        for branch, (variants, _) in CLASSIFY_BRANCHES.items():
            cmds.append(_classify_cmd(branch, rng.choice(variants)))
    else:
        cmds = []
        for tier in SATURATE_TIERS:
            cmds += _saturate_cmds(rng.choice(tier))
    rng.shuffle(cmds)
    return Workload(name, cmds)


def universe():
    """Every command any seed of any workload can run, set-up included."""
    cmds = []
    for re_ in WINDOW_RE:
        for im in WINDOW_IM:
            for alg in ENUMERATE_ALGEBRAS:
                cmds += _enumerate_cmds(f"{re_},{im}", alg)
    for prec in PRECISIONS:
        for tau in TAUS:
            for mu in MUS:
                cmds += _certify_cmds(prec, tau, mu)
    for branch, (variants, _) in CLASSIFY_BRANCHES.items():
        cmds += [_classify_cmd(branch, v) for v in variants]
    for tier in SATURATE_TIERS:
        for alg in tier:
            cmds += _saturate_cmds(alg)
    cmds += [setup_command(c) for c in {c.config for c in cmds}]
    return sorted(set(cmds), key=lambda c: c.key)
