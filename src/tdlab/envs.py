"""Environment generators and feature-representation builders.

Random Markov reward processes are described by a 3-tuple (k, b, sigma):
k states, branching factor b, and reward noise sigma. Construction draws,
for each state, b distinct successors uniformly without replacement,
transition probabilities from b-1 sorted uniform cut points of the unit
interval, and expected rewards from a standard normal. Generated chains
are continuing (no terminal states). A Markov decision process is one
such chain per action: the chain the process follows while that action
is taken.

Three canonical small tasks are provided by name, plus three discrete
representations (tabular / binary / random-normalized) and a hashed tile
coder for continuous signals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .core import ConfigError, check_integer, check_real, check_seed, is_real
from .rng import SplitMix64, SplitMix64Rows, mix64

ROW_SUM_TOL = 1e-12
# Steps x rows entries of each array one draw batch of simulate_chains
# holds (uniforms, normals, rewards), 32 KB: a batch costs a few numpy
# passes plus one per step, and its arrays stay small beside a time
# block's. On the tabular paper grid (600 rows, 6 steps a batch), at 2**13
# the chains took 2-5% less time and the sweep's peak RSS read 0.1 MB
# more; at 2**11 they took 5-8% longer.
DRAW_BATCH_VALUES = 1 << 12
# The most states a generated chain may have: each chain holds two k x k
# float64 arrays (P and r_mean), 256 MiB at this cap.
MAX_GENERATED_STATES = 4096


def _real_array(value, name: str) -> np.ndarray:
    """value as a float64 array, once every entry is a real number: np.asarray
    would turn a bool into 1.0 and a string such as "0.5" into 0.5."""
    array = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if array.dtype == object:  # a sequence: check each entry's type, once per type
        bad = sorted(t.__name__ for t in set(map(type, array.flat))
                     if not issubclass(t, Real) or issubclass(t, bool))
    else:
        bad = [] if array.dtype.kind in "iuf" else [str(array.dtype)]
    if bad:
        raise ConfigError(f"{name} must hold real numbers, not {', '.join(bad)}")
    return array.astype(np.float64, copy=False)


@dataclass(frozen=True)
class Mrp:
    """Markov reward process: P[s, s'], expected rewards, reward noise, discount."""

    k: int
    P: np.ndarray
    r_mean: np.ndarray
    sigma: float
    gamma: float
    terminal_states: frozenset[int] = frozenset()
    initial: int | np.ndarray = 0
    b: int | None = None
    name: str | None = None
    # cumulative rows of P and of a distributional initial (None for a state),
    # computed once for the samplers, each with its last entry set to +inf:
    # P >= 0, so the entries <= u < 1 are a prefix, and counting them on the
    # capped row is min(count, k - 1)
    cum_P: np.ndarray = field(init=False, repr=False, compare=False)
    cum_initial: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_integer(self.k, "k", low=1)
        if self.b is not None:
            check_integer(self.b, "b", 1, self.k)
        P = _real_array(self.P, "P")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "r_mean", _real_array(self.r_mean, "r_mean"))
        if P.shape != (self.k, self.k) or self.r_mean.shape != (self.k, self.k):
            raise ConfigError("P and r_mean must be k x k")
        bad = ~(P >= 0.0).all(axis=1)  # NaN fails this too
        if bad.any():
            raise ConfigError(f"transition probabilities must be >= 0: states {np.nonzero(bad)[0]}")
        bad = np.abs(P.sum(axis=1) - 1.0) > ROW_SUM_TOL
        if bad.any():
            raise ConfigError(f"transition rows must sum to 1: states {np.nonzero(bad)[0]}")
        bad = ~np.isfinite(self.r_mean).all(axis=1)
        if bad.any():
            raise ConfigError(f"expected rewards must be finite: states {np.nonzero(bad)[0]}")
        check_real(self.sigma, "sigma")
        check_real(self.gamma, "gamma", 1.0)
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "gamma", float(self.gamma))
        for s in self.terminal_states:  # before the set folds True into 1
            check_integer(s, "terminal state", 0, self.k - 1)
        object.__setattr__(self, "terminal_states", frozenset(self.terminal_states))
        cum_initial = None
        if isinstance(self.initial, (list, tuple, np.ndarray)):
            d = _real_array(self.initial, "initial")
            if d.shape != (self.k,) or not (d >= 0.0).all() or abs(d.sum() - 1.0) > ROW_SUM_TOL:
                raise ConfigError("initial must be a state or a distribution over the k states")
            object.__setattr__(self, "initial", d)
            cum_initial = np.cumsum(d)
            cum_initial[-1] = np.inf
        else:
            check_integer(self.initial, "initial state", 0, self.k - 1)
        if self.name is not None and not isinstance(self.name, str):
            raise ConfigError(f"name must be a string or None, got {self.name!r}")
        cum_P = np.cumsum(P, axis=1)
        cum_P[:, -1] = np.inf
        object.__setattr__(self, "cum_P", cum_P)
        object.__setattr__(self, "cum_initial", cum_initial)

    @property
    def continuing(self) -> bool:
        return not self.terminal_states

    def nonterminal_states(self) -> np.ndarray:
        return np.array([s for s in range(self.k) if s not in self.terminal_states])

    def expected_rewards(self) -> np.ndarray:
        """r_bar[s] = sum_s' P[s, s'] r_mean[s, s']."""
        return (self.P * self.r_mean).sum(axis=1)

    def initial_state(self, rng: SplitMix64) -> int:
        if self.cum_initial is None:
            return int(self.initial)
        return int(self.cum_initial.searchsorted(rng.random(), side="right"))


@dataclass(frozen=True)
class Mdp:
    """Markov decision process as one Mrp per action: chains[a] is the
    chain followed while action a is taken.

    The chains share k, gamma and the terminal states; episodes start
    from chains[0]'s initial state.
    """

    chains: tuple[Mrp, ...]

    def __post_init__(self):
        if not self.chains:
            raise ConfigError("an MDP needs at least one action")
        shared = [(c.k, c.gamma, c.terminal_states) for c in self.chains]
        for a, key in enumerate(shared):
            if key != shared[0]:
                raise ConfigError(
                    f"action {a}'s chain differs from action 0's in k, gamma or terminal states"
                )

    @property
    def num_actions(self) -> int:
        return len(self.chains)


@dataclass(frozen=True)
class Representation:
    """State-to-feature mapping as a fixed k x n table; terminal rows are zero."""

    kind: str
    table: np.ndarray

    @property
    def n(self) -> int:
        return self.table.shape[1]

    def phi(self, state: int) -> np.ndarray:
        return self.table[state]


def _cut_point_probabilities(rng: SplitMix64, b: int) -> np.ndarray:
    if b == 1:
        return np.array([1.0])
    cuts = np.sort(np.array([rng.random() for _ in range(b - 1)]))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


def _random_chain(rng: SplitMix64, k: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, r_mean) of one random chain. Per state, in stream order: b
    successors, b-1 cut points, b expected rewards."""
    P = np.zeros((k, k))
    r_mean = np.zeros((k, k))
    for s in range(k):
        successors = rng.sample_without_replacement(k, b)
        probs = _cut_point_probabilities(rng, b)
        for nxt, p in zip(successors, probs):
            P[s, nxt] = p
        for nxt in successors:
            r_mean[s, nxt] = rng.normal()
    return P, r_mean


def generate_mdp(
    k: int, b: int, sigma: float, gamma: float, num_actions: int, seed: int
) -> Mdp:
    """Random continuing MDP; deterministic given the seed, in [0, 2^64).

    One random chain per action, drawn in action order from a single
    stream. Every chain starts from the uniform initial-state distribution.
    """
    check_integer(k, "k", low=1)
    check_integer(num_actions, "num_actions", low=1)
    if k > MAX_GENERATED_STATES:
        raise ConfigError(
            f"k={k} states exceeds the cap of {MAX_GENERATED_STATES}: "
            "a chain holds two k x k arrays"
        )
    check_integer(b, "b", 1, k)
    check_seed(seed, "seed")
    check_real(sigma, "sigma")  # before the chains' names format it
    rng = SplitMix64(seed)
    return Mdp(tuple(
        Mrp(
            k, *_random_chain(rng, k, b), sigma=sigma, gamma=gamma,
            initial=np.full(k, 1.0 / k), b=b, name=f"mrp({k},{b},{sigma:g})",
        )
        for _ in range(num_actions)
    ))


def generate_mrp(k: int, b: int, sigma: float, gamma: float, seed: int) -> Mrp:
    """Random continuing MRP: the one-action random MDP."""
    return generate_mdp(k, b, sigma, gamma, 1, seed).chains[0]


def sample_step(mrp: Mrp, state: int, rng: SplitMix64) -> tuple[int, float]:
    """Draw (next state, reward) from one MRP step."""
    if state in mrp.terminal_states:
        raise ConfigError(f"cannot step from terminal state {state}")
    nxt = int(mrp.cum_P[state].searchsorted(rng.random(), side="right"))
    mean = mrp.r_mean[state, nxt]
    reward = mean if mrp.sigma == 0.0 else rng.normal(mean, mrp.sigma)
    return nxt, reward


def simulate_chains(
    mrp: Mrp, steps: int, rng: SplitMix64Rows, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(states, rewards) of one chain per rng row, time-major: (steps + 1, rows)
    and (steps, rows). Row i is the chain that initial_state and sample_step
    draw from SplitMix64 row i.

    Given start, the chains go on from those states instead of drawing
    initial ones. The rng carries its streams from call to call, so a
    chain drawn a time block at a time, each block starting from the last
    block's final states, is the chain drawn at once.

    The steps go in draw batches of at most DRAW_BATCH_VALUES // rows
    steps: one rng.chain_draws call, then one pass per step, in which the
    next state is the first entry of the capped cumulative row above u
    (the count of entries <= u, as searchsorted(side="right") counts
    them), then one reward gather for the batch."""
    states = np.empty((steps + 1, len(rng)), dtype=np.int64)
    rewards = np.empty((steps, len(rng)))
    if start is not None:
        states[0] = start
    elif mrp.cum_initial is None:
        states[0] = mrp.initial
    else:
        np.greater(mrp.cum_initial, rng.random()[:, None]).argmax(axis=1, out=states[0])
    batch = max(1, DRAW_BATCH_VALUES // len(rng))
    for t0 in range(0, steps, batch):
        t1 = min(t0 + batch, steps)
        u, z = rng.chain_draws(t1 - t0, mrp.sigma != 0.0)
        for t, u_t in enumerate(u, t0):
            np.greater(mrp.cum_P.take(states[t], axis=0), u_t[:, None]).argmax(axis=1, out=states[t + 1])
        if mrp.terminal_states:
            stuck = np.isin(states[t0:t1], list(mrp.terminal_states))
            if stuck.any():
                raise ConfigError(f"cannot step from terminal state {states[t0:t1][stuck][0]}")
        # the batch's mean rewards r_mean[s, s'] in one gather: every index is in
        # range, and mode="clip" spares take the buffered copy that "raise" makes
        index = states[t0:t1] * mrp.k
        index += states[t0 + 1 : t1 + 1]
        mean = mrp.r_mean.take(index, out=rewards[t0:t1], mode="clip")
        if z is not None:
            mean += np.multiply(z, mrp.sigma, out=z)  # mean + sigma * z, as sample_step draws it
    return states, rewards


CANONICAL_TASKS = ("random-walk-10", "one-state", "two-state")

# Not stated for the one-state task; 0.9 gives mean episode length 10, which
# reproduces the reported step-size sensitivity contrast at desk scale.
ONE_STATE_CONTINUE_PROB = 0.9


def canonical_task(name: str) -> tuple[Mrp, Representation]:
    """Small tasks with known structure, by name.

    random-walk-10: ten states in a row plus a terminal state on the left
    (index 10). Each state moves left with probability 0.7 and right with
    0.3 (the right-most state self-loops on its right move). All rewards
    are 1, gamma = 1, tabular features, right-most state initial.

    one-state: a single always-active unit feature; the state self-loops
    with reward 0 and ends the episode with reward 1, so every episode's
    return is 1 under gamma = 1.

    two-state: left -> right -> terminal with rewards 2 then 0, gamma = 1,
    and a single always-1 feature shared by both states; true values are
    (2, 0) and the best single weight is 1 (RMS error 1).
    """
    if name == "random-walk-10":
        k = 11
        terminal = 10
        P = np.zeros((k, k))
        r = np.zeros((k, k))
        for s in range(10):
            left = terminal if s == 0 else s - 1
            right = s if s == 9 else s + 1
            P[s, left] += 0.7
            P[s, right] += 0.3
            r[s, left] = 1.0
            r[s, right] = 1.0
        P[terminal, terminal] = 1.0
        mrp = Mrp(
            k=k, P=P, r_mean=r, sigma=0.0, gamma=1.0,
            terminal_states=frozenset({terminal}), initial=9, name=name,
        )
        table = np.zeros((k, 10))
        table[:10, :10] = np.eye(10)
        return mrp, Representation(kind="tabular", table=table)
    if name == "one-state":
        p = ONE_STATE_CONTINUE_PROB
        P = np.array([[p, 1.0 - p], [0.0, 1.0]])
        r = np.array([[0.0, 1.0], [0.0, 0.0]])
        mrp = Mrp(
            k=2, P=P, r_mean=r, sigma=0.0, gamma=1.0,
            terminal_states=frozenset({1}), initial=0, name=name,
        )
        table = np.array([[1.0], [0.0]])
        return mrp, Representation(kind="tabular", table=table)
    if name == "two-state":
        P = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
        ])
        r = np.zeros((3, 3))
        r[0, 1] = 2.0
        mrp = Mrp(
            k=3, P=P, r_mean=r, sigma=0.0, gamma=1.0,
            terminal_states=frozenset({2}), initial=0, name=name,
        )
        table = np.array([[1.0], [1.0], [0.0]])
        return mrp, Representation(kind="binary", table=table)
    raise ConfigError(f"unknown canonical task {name!r}; expected one of {CANONICAL_TASKS}")


REPRESENTATION_KINDS = ("tabular", "binary", "random-normalized")


def binary_feature_length(k: int) -> int:
    return math.ceil(math.log2(k + 1))


def build_representation(kind: str, mrp: Mrp, seed: int = 0) -> Representation:
    """Feature table for a discrete MRP; deterministic given (kind, mrp, seed).

    binary encodes the 1-based state index so no state shares the all-zero
    terminal code; random-normalized draws 5 standard-normal features per
    state and scales them to unit length.
    """
    if kind == "tile-coding":
        raise ConfigError("tile coding applies to continuous signals, not discrete MRPs")
    if kind not in REPRESENTATION_KINDS:
        raise ConfigError(f"unknown representation {kind!r}; expected one of {REPRESENTATION_KINDS}")
    check_seed(seed, "seed")
    k = mrp.k
    if kind == "tabular":
        table = np.eye(k)
    elif kind == "binary":
        n = binary_feature_length(k)
        table = np.zeros((k, n))
        for s in range(k):
            code = s + 1
            table[s] = [(code >> (n - 1 - j)) & 1 for j in range(n)]
    else:
        rng = SplitMix64(seed)
        table = np.zeros((k, 5))
        for s in range(k):
            row = np.array([rng.normal() for _ in range(5)])
            table[s] = row / np.linalg.norm(row)
    for s in mrp.terminal_states:
        table[s] = 0.0
    return Representation(kind=kind, table=table)


@dataclass(frozen=True)
class TileCoderConfig:
    """Hashed grid tile coder over continuous signals normalized to [0, 1].

    Tiling i is offset by i/num_tilings of one bin width; each tiling
    contributes one active feature, hashed into hash_size buckets, plus an
    optional always-on bias unit at the last index.
    """

    num_tilings: int
    bins_per_signal: int
    signal_ranges: tuple[tuple[float, float], ...]
    hash_size: int
    bias_unit: bool = True

    def __post_init__(self):
        for name in ("num_tilings", "bins_per_signal", "hash_size"):
            check_integer(getattr(self, name), name, low=1)
        try:
            ranges = tuple((lo, hi) for lo, hi in self.signal_ranges)
        except (TypeError, ValueError):  # not a sequence of pairs
            raise ConfigError(f"signal_ranges must be (lo, hi) pairs, got {self.signal_ranges!r}") from None
        if not ranges:
            raise ConfigError("a tile coder needs at least one signal range")
        top = sys.float_info.max  # not math.inf: float(10**400) overflows
        for lo, hi in ranges:
            # a numpy float compared with top would be cast to its own width, where top is inf
            a, b = (float(x) if isinstance(x, np.floating) else x for x in (lo, hi))
            if not (is_real(a) and is_real(b) and -top <= a < b <= top):
                raise ConfigError(f"each signal range must be finite with hi > lo, got {(lo, hi)!r}")
            if not math.isfinite(float(b) - float(a)):  # the width scales every signal
                raise ConfigError(f"each signal range must have a finite width hi - lo, got {(lo, hi)!r}")
        object.__setattr__(self, "signal_ranges", tuple((float(lo), float(hi)) for lo, hi in ranges))

    @property
    def n(self) -> int:
        return self.hash_size + (1 if self.bias_unit else 0)

    @property
    def active_features(self) -> int:
        return self.num_tilings + (1 if self.bias_unit else 0)


def tile_code(signals: list[float] | np.ndarray, config: TileCoderConfig) -> np.ndarray:
    """Dense length-n encoding of the signals; out-of-range values are clipped.

    Each active feature adds 1 at its hashed index, so tilings whose
    hashes collide share one entry of value 2 (or more). A NaN signal
    lies in no bin and is refused, and so is a bool.
    """
    raw = signals
    try:
        signals = np.asarray(raw, dtype=np.float64)
        out = np.zeros(config.n)
        indices = np.empty(config.active_features, dtype=np.int64)
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        # a non-number, an int beyond the floats, or too many features
        raise ConfigError(f"cannot tile-code {signals!r} into {config.n} features: {exc}") from exc
    if signals.shape != (len(config.signal_ranges),):
        raise ConfigError(
            f"expected {len(config.signal_ranges)} signals in a list, got shape {signals.shape}"
        )
    if np.isnan(signals).any() or any(isinstance(x, (bool, np.bool_)) for x in raw):
        raise ConfigError(f"signals must be numbers, not NaN or a bool, got {raw!r}")
    unit = np.empty_like(signals)
    for d, (lo, hi) in enumerate(config.signal_ranges):
        unit[d] = (min(max(signals[d], lo), hi) - lo) / (hi - lo)
    nt = config.num_tilings
    for i in range(nt):
        h = mix64(i + 1)
        for d in range(unit.shape[0]):
            coord = int(unit[d] * config.bins_per_signal + i / nt)
            h = mix64(h ^ mix64((coord << 8) + d + 1))
        indices[i] = h % config.hash_size
    if config.bias_unit:
        indices[nt] = config.hash_size
    np.add.at(out, indices, 1.0)
    return out


def true_values(mrp: Mrp) -> np.ndarray:
    """Exact state values from the Bellman linear system (I - gamma P) v = r_bar.

    Terminal states are pinned at 0 and the system is solved on the
    transient part, which also covers gamma = 1 for episodic chains.
    """
    r_bar = mrp.expected_rewards()
    if mrp.continuing:
        if mrp.gamma >= 1.0:
            raise ConfigError("continuing chain requires gamma < 1 for finite values")
        return np.linalg.solve(np.eye(mrp.k) - mrp.gamma * mrp.P, r_bar)
    nt = mrp.nonterminal_states()
    A = np.eye(nt.size) - mrp.gamma * mrp.P[np.ix_(nt, nt)]
    v = np.zeros(mrp.k)
    v[nt] = np.linalg.solve(A, r_bar[nt])
    return v


def stationary_distribution(mrp: Mrp, tol: float = 1e-12, max_iter: int = 200_000) -> np.ndarray:
    """Stationary distribution of a continuing chain by power iteration.

    An iterate that repeats bit for bit cycles forever, so Brent's check
    (one iterate, re-saved at each power-of-two step) raises at a repeat.
    """
    if not mrp.continuing:
        raise ConfigError("stationary distribution requires a continuing chain")
    d = np.full(mrp.k, 1.0 / mrp.k)
    saved = d.tobytes()
    for i in range(1, max_iter + 1):
        d_next = d @ mrp.P
        d_next /= d_next.sum()
        if np.max(np.abs(d_next - d_next @ mrp.P)) <= tol:
            return d_next
        d = d_next
        if d.tobytes() == saved:
            break
        if i & (i - 1) == 0:  # i is a power of two
            saved = d.tobytes()
    raise ConfigError(
        f"power iteration did not reach residual {tol:g} in {max_iter} iterations; "
        "the chain may be periodic or reducible"
    )


MRP_FORMAT = "tdlab-mrp"
FORMAT_VERSION = 1


def mrp_to_dict(mrp: Mrp) -> dict:
    """Versioned, self-describing form used by the env file format."""
    return {
        "format": MRP_FORMAT,
        "version": FORMAT_VERSION,
        "k": mrp.k,
        "b": mrp.b,
        "sigma": mrp.sigma,
        "gamma": mrp.gamma,
        "P": mrp.P.tolist(),
        "r_mean": mrp.r_mean.tolist(),
        "terminal_states": sorted(mrp.terminal_states),
        "initial": np.asarray(mrp.initial).tolist(),  # a state or a distribution
        "name": mrp.name,
    }


def mrp_from_dict(data: dict) -> Mrp:
    """The Mrp of an env-file payload, its values passed to Mrp unchanged: a value
    Mrp refuses (such as "k": 6.0, "gamma": false, a "0.5" in "P" or "name":
    [1, 2]) is a ConfigError."""
    if data.get("format") != MRP_FORMAT:
        raise ConfigError(f"not an MRP file (format={data.get('format')!r})")
    if data.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported MRP file version {data.get('version')!r}")
    try:
        return Mrp(
            k=data["k"], P=data["P"], r_mean=data["r_mean"], sigma=data["sigma"],
            gamma=data["gamma"], terminal_states=data["terminal_states"],
            initial=data["initial"], b=data.get("b"), name=data.get("name"),
        )
    except KeyError as exc:
        raise ConfigError(f"MRP file lacks the key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        # a ConfigError from Mrp's checks too; OverflowError: an int beyond the floats
        raise ConfigError(f"malformed MRP file: {exc}") from exc
