"""One-stage subproblem solver: a closed form on the exact cut envelope.

Costs-to-go are in the cash-additive entropic form ``J(w, e) = -(w + CE(e))``:
minus the wealth plus the certainty equivalent of the remaining trading.
Exponential utility makes the certainty equivalent independent of wealth, so
every cut has wealth slope exactly -1.  A cut is therefore stored as its
line in energy, ``a + g * e``, and a node's cuts define the convex
piecewise-linear function of the next energy

    H(e') = max_c (a_c + g_c * e')      over [0, capacity],

stored as its upper envelope (`Envelope`: the cuts that are the maximum
somewhere on [0, capacity], with the breakpoints between them; the height at
a break is the larger of the two lines that meet there).  A stage
subproblem minimizes ``-w' + H(e')`` over the relaxed controls after the
stage's prices are observed.  The cheapest way to move the energy by ``d``
costs ``G(d)``, convex piecewise linear with slopes ``s1 = min(ask/c+,
bid/c-)`` and ``s2 = max(ask/c+, bid/c-)`` and its kink at 0 when the spread
condition ``bid/c- <= ask/c+`` holds (otherwise at ``c+ U - c- U``, buying
and selling at the battery's one speed ``U``).  With ``E = leak * e`` the
stage value is

    -w + min over e' in [lo, hi] of G(e' - E) + H(e')

with ``lo = max(0, E - c- U)`` and ``hi = min(capacity, E + c+ U)``.  Its
minimizer is ``clip(median(x2, E + kink, x1), lo, hi)``, where x1 and x2 are
the envelope breakpoints at which H's slope crosses ``-s1`` and ``-s2``
(found by bisection).  The energy subgradient is ``leak * lambda`` for any
lambda in ``d(H + box)(e*)`` and in ``-d(G + box)(e* - E)`` (the rule for
an infimal convolution); where that set is an interval, the largest lambda
is taken if the battery ends empty (``e* = 0``) and the smallest otherwise.
The wealth subgradient is -1 at every state, so solves return only the
energy subgradient.  Wealth is not bounded: it only shifts the value, so a
solve at any wealth has the controls and next energy of a solve at zero
wealth.  A node without cuts has no value, and its solves raise
`NotTrainedError`.

The terminal stage is the case ``H = 0``, a cut set that holds the zero
line: its cost is minus the terminal wealth.  `NodeSubproblem` solves one
state per call on Python floats.  `StageLanes`, built from the policy's one
`BatterySpec` and a stage's cut sets, gives the controls and next energies
of K lanes of one stage in one call on numpy arrays, each lane at its own
node and bid/ask, with every floating-point operation in the scalar order,
so each lane equals the scalar solve bit for bit; it takes no wealth and
computes no value.  `solve_stage` is
the Bellman stage that training's backward pass calls: the entropic risk
``(1/rho) log sum_j p_j exp(rho J_j)`` of a node's successor solves (nested
entropic risk, as ``SDDP.Entropic`` in SDDP.jl).

A `CutSet` holds nothing but its envelope: a new cut is spliced into it in
O(envelope size), since ``envelope(pool + cut) = envelope(envelope + cut)``.
A cut that is the maximum nowhere on [0, capacity] never binds at a feasible
state, so it is dropped on arrival (the exact form of dominance cut
selection).  Each update is published by a single attribute assignment and
solves write nothing, so solves on a trained policy may run concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from math import isfinite
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError, NotTrainedError
from .storage import BatterySpec, StageData

_STATE_TOL = 1e-9
_INF = math.inf


class Envelope(NamedTuple):
    """Upper envelope of a node's cuts in energy over ``[0, capacity]``.

    Line i, ``intercepts[i] + slopes[i] * e``, is the maximum on
    ``[breaks[i], breaks[i + 1]]``; slopes and breaks strictly increase, and
    ``breaks`` runs from 0 to the capacity.  The lines and breaks fix the
    envelope: its height at a break is the larger of the two lines that
    meet there (at either end, the one line's value).  Python lists: the
    scalar solve reads them element by element.  Without cuts there are no
    lines, and ``breaks`` is ``[0, capacity]``.
    """

    slopes: list
    intercepts: list
    breaks: list


# builds an Envelope from a 3-tuple without the field-by-field constructor
_new_envelope = partial(tuple.__new__, Envelope)


def splice(env: Envelope, a_new: float, g_new: float) -> Envelope:
    """The envelope of ``env``'s lines plus the line ``a_new + g_new * e``.

    The new line minus the envelope is concave, so it is positive exactly on
    one interval, found from its values at the breaks: at each break the new
    line is compared with the larger of the lines that meet there (at
    either end, with the one line).  A line positive at no break is
    dominated and ``env`` itself is returned.  An envelope without lines
    takes the new line as its only one.  Otherwise the new line replaces the
    lines inside that interval and crosses the two lines at its ends.
    Training calls this once per cut, so it is written for speed on short
    Python lists.
    """
    g, a, x = env
    if not g:
        return _new_envelope(([g_new], [a_new], x))
    h = len(g)
    first = last = -1
    # the new line at break k, and whether it tops the line that ends there
    # (none ends at break 0)
    yk = a_new + g_new * x[0]
    above = True
    for k in range(h):
        xk = x[k]
        if above and yk > a[k] + g[k] * xk:
            if first < 0:
                first = k
            last = k
        xk = x[k + 1]
        yk = a_new + g_new * xk
        above = yk > a[k] + g[k] * xk
    if above:
        if first < 0:
            first = h
        last = h
    # a line no steeper than the one before its first positive break (or
    # at least as steep as the one after its last) cannot exceed it there:
    # the residue is rounding and the line is dominated
    if first < 0 or (first and g_new <= g[first - 1]) or (last < h and g_new >= g[last]):
        return env
    left, right = first, last
    if first:
        i = first - 1
        xl = (a[i] - a_new) / (g_new - g[i])
        if xl <= x[i]:
            xl, left = x[i], i  # the line before has no length left
        elif xl > x[first]:
            xl = x[first]
    else:
        xl = x[0]
    if last < h:
        xr = (a_new - a[last]) / (g[last] - g_new)
        if xr >= x[last + 1]:
            xr, right = x[last + 1], last + 1  # the line after has no length left
        elif xr < x[last]:
            xr = x[last]
    else:
        xr = x[h]
    if xr <= xl:
        return env
    slopes, intercepts, breaks = g.copy(), a.copy(), x.copy()
    slopes[left:right] = (g_new,)
    intercepts[left:right] = (a_new,)
    breaks[left : right + 1] = xl, xr
    return _new_envelope((slopes, intercepts, breaks))


_NO_CUTS = "the cut set is empty: a node has no value before its first cut"


class CutSet:
    """A node's cuts, kept as their upper envelope over ``[0, capacity]``.

    Every cut on the cash-additive cost-to-go is ``a - w + g * e``, so a cut
    is the line ``a + g * e`` in energy, and the cost-to-go at ``(w, e)`` is
    ``value(e) - w``.  `append` splices each cut into `envelope`; a cut that
    is the maximum nowhere on ``[0, capacity]`` never binds at a feasible
    state and leaves it as it was.
    """

    __slots__ = ("envelope",)

    def __init__(self, capacity: float) -> None:
        self.envelope = Envelope([], [], [0.0, float(capacity)])

    def append(self, intercept: float, grad_energy: float) -> None:
        """Splice the cut ``intercept - w + grad_energy * e`` into the envelope."""
        if not (isfinite(intercept) and isfinite(grad_energy)):
            raise ValueError("cut coefficients must be finite")
        self.envelope = splice(self.envelope, intercept, grad_energy)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The envelope lines as (intercepts, wealth slopes, energy slopes).

        The wealth slopes are all -1; the triple stays because the
        benchmark's `bench/spans.py` reads it.
        """
        env = self.envelope
        slopes = np.array(env.slopes, dtype=float)
        return np.array(env.intercepts, dtype=float), np.full(slopes.size, -1.0), slopes

    def value(self, energy: float) -> float:
        """The envelope's height ``max(a + g * energy)``; `NotTrainedError` without cuts."""
        env = self.envelope
        if not env.slopes:
            raise NotTrainedError(_NO_CUTS)
        return max([a + g * energy for a, g in zip(env.intercepts, env.slopes)])

    def __len__(self) -> int:
        return len(self.envelope.slopes)


@dataclass(frozen=True)
class NodeSolution:
    """Optimum of one successor subproblem; `subgradient` is in energy (in wealth it is -1)."""

    controls: tuple[float, float]
    value: float
    subgradient: float
    next_state: tuple[float, float]


@dataclass(frozen=True)
class TerminalSolution(NodeSolution):
    """A `NodeSolution` with ``gaps = (0.0,)``, the one pass of the closed form.

    Only `NodeSubproblem.solve_terminal` returns it, and no package code
    calls that: the terminal stage is `NodeSubproblem.solve` on the zero
    line.  Both stay only because the benchmark's `bench/spans.py` traces
    `solve_terminal` and reads `gaps`.
    """

    gaps: tuple[float, ...] = (0.0,)


def _battery_constants(battery: BatterySpec, *cutsets: CutSet) -> tuple:
    """``(leak, capacity, U, c+, c-, c+ U, c- U)`` of ``battery``, ``U`` its one speed.

    Refuses, with `ValueError`, a cut set built for another capacity.
    """
    capacity = battery.capacity
    for cutset in cutsets:
        if cutset.envelope.breaks[-1] != capacity:
            raise ValueError("the cut set was built for another capacity")
    u_max, cp, cm = battery.max_charge, battery.charge_eff, battery.discharge_eff
    return 1.0 - battery.leakage, capacity, u_max, cp, cm, cp * u_max, cm * u_max


def _price_slopes(ask, bid, cp: float, cm: float, cp_b: float, cm_s: float):
    """(s1, s2, kink, spread condition holds) of the trading cost G at ``ask``/``bid``.

    ``ask`` and ``bid`` are the node's scalars or per-lane arrays.
    """
    ask_c = ask / cp
    bid_c = bid / cm
    if np.ndim(ask_c) == 0:
        if bid_c <= ask_c:
            return bid_c, ask_c, 0.0, True
        return ask_c, bid_c, cp_b - cm_s, False
    spread = bid_c <= ask_c
    return (
        np.where(spread, bid_c, ask_c),
        np.where(spread, ask_c, bid_c),
        np.where(spread, 0.0, cp_b - cm_s),
        spread,
    )


def _clamp(buy, sell, xe, leak, cap, u_max, cp, cm) -> tuple[float, float]:
    """Snap the controls into their boxes and the energy band; returns ``(buy, sell)``.

    Rounding can put a recovered control an ulp outside its box or the next
    energy an ulp outside [0, capacity]; repairing the controls here (rather
    than clipping the state) keeps the dynamics identity exact and stops
    drift across stages.  The battery enters as the constants of
    `_battery_constants`, which the solve has already unpacked.
    """
    buy = buy if buy >= 0.0 else 0.0
    sell = sell if sell >= 0.0 else 0.0
    buy = buy if buy <= u_max else u_max
    sell = sell if sell <= u_max else u_max
    nxt = leak * xe + cp * buy - cm * sell
    if nxt < 0.0:
        sell = max(sell + nxt / cm, 0.0)
    elif nxt > cap:
        buy = max(buy - (nxt - cap) / cp, 0.0)
    return buy, sell


class NodeSubproblem:
    """One (stage, node) subproblem: the node's prices and battery, and its cut set.

    ``data.battery`` is the policy's one battery.  The incoming state
    enters only the closed form, so a subproblem is built once per node and
    solved for many states; every solve reads the cut set's current
    envelope.  A subproblem holds nothing that a solve writes.  The terminal
    stage is no special case: its subproblems hold a cut set whose one line
    is zero.  A cut set built for another capacity is refused with
    `ValueError`.
    """

    def __init__(self, data: StageData, cutset: CutSet) -> None:
        self.data = data
        self.cutset = cutset
        const = _battery_constants(data.battery, cutset)
        s1, s2, kink, spread = _price_slopes(data.ask, data.bid, *const[3:])
        self._const = (*const, -s1, -s2, kink, spread)

    def _optimum(self, state: tuple[float, float], full: bool = True):
        """``(controls, value, energy subgradient, next_state)`` at ``state``, as plain tuples.

        With ``full`` false, only the next state, without the value and
        subgradient work.
        """
        xm, xe = state
        leak, cap, u_max, cp, cm, cp_b, cm_s, ns1, ns2, kink, spread = self._const
        if not (-_STATE_TOL <= xe <= cap + _STATE_TOL):
            raise InfeasibleError(f"energy state {xe:.6g} outside [0, {cap:.6g}]")
        g, a, x = self.cutset.envelope
        if not g:
            raise NotTrainedError(_NO_CUTS)
        d = self.data
        big = leak * xe
        low = big - cm_s  # selling at full speed
        high = big + cp_b  # buying at full speed
        kink = big + kink
        # median(x2, kink, x1), then into the reachable band
        e = x[bisect_left(g, ns2)]
        if e < kink:
            e = kink
        x1 = x[bisect_left(g, ns1)]
        if e > x1:
            e = x1
        if e < low:
            e = low
        if e > high:
            e = high
        if not 0.0 <= e <= cap:
            raise InfeasibleError("stage subproblem infeasible")
        # the cheapest controls that move the energy from leak*xe to e
        if spread:
            if e >= big:
                buy, sell = (u_max if e == high else (e - big) / cp), 0.0
            else:
                buy, sell = 0.0, (u_max if e == low else (big - e) / cm)
        elif e < kink:
            buy, sell = (e - low) / cp, u_max
        elif e > kink:
            buy, sell = u_max, (high - e) / cm
        else:
            buy, sell = u_max, u_max
        controls = _clamp(buy, sell, xe, leak, cap, u_max, cp, cm)
        buy, sell = controls
        w_next = xm - d.ask * buy + d.bid * sell
        e_next = leak * xe + cp * buy - cm * sell
        if not full:
            return w_next, e_next
        h = len(g)
        p = bisect_right(x, e_next) - 1
        p = 0 if p < 0 else (h - 1 if p >= h else p)
        value = a[p] + g[p] * e_next - w_next
        # lambda in d(H + box)(e) = [hl, hr] and in -d(G + box)(e - E) = [gl, gr]
        j = bisect_left(x, e)
        if x[j] == e:
            hl = g[j - 1] if j else -_INF
            hr = g[j] if j < h else _INF
        else:
            hl = hr = g[j - 1]
        if hl == hr:
            lam = hl
        else:
            gr = _INF if e <= low else (ns1 if e <= kink else ns2)
            gl = -_INF if e >= high else (ns1 if e < kink else ns2)
            # the largest where the battery ends empty, else the smallest
            lam = min(hr, gr) if e == 0.0 else max(hl, gl)
        return controls, value, leak * lam, (w_next, e_next)

    def next_state(self, state: tuple[float, float]) -> tuple[float, float]:
        """The optimal next state alone: `solve` without its record (the forward pass)."""
        return self._optimum(state, False)

    def solve(self, state: tuple[float, float]) -> NodeSolution:
        """Solve the subproblem at the incoming ``state``.

        The state keeps its wealth, which only shifts the value, because the
        benchmark's `bench/spans.py` passes ``(wealth, energy)``.
        """
        return NodeSolution(*self._optimum(state))

    def solve_terminal(self, state: tuple[float, float]) -> TerminalSolution:
        """`solve`, returned as a `TerminalSolution`.

        No package code calls it; it stays only as a name that the
        benchmark's `bench/spans.py` traces.
        """
        return TerminalSolution(*self._optimum(state))


class StageLanes:
    """The controls and next energies of many lanes of one stage, each at its own node and prices.

    Built from the policy's battery and the stage's cut sets, node i's at
    position i; a cut set built for another capacity is refused with
    `ValueError`.  Row i of two padded tables holds node i's envelope: its
    slopes padded with ``+inf`` and its breaks padded with the capacity, so
    counting a row's slopes below a threshold is the scalar solve's
    ``bisect_left``.  The tables are a copy: a later envelope update does
    not reach them.
    """

    def __init__(self, battery: BatterySpec, cutsets: list[CutSet]) -> None:
        self._const = _battery_constants(battery, *cutsets)
        envs = [c.envelope for c in cutsets]
        lines = [len(env.slopes) for env in envs]
        h, cap = max(lines), self._const[1]
        self._slopes = np.array([env.slopes + [_INF] * (h - n) for env, n in zip(envs, lines)])
        self._breaks = np.array(
            [env.breaks[:n] + [cap] * (h + 1 - n) for env, n in zip(envs, lines)]
        )
        self._trained = np.array(lines) > 0

    def next_states(self, nodes, energy, ask, bid):
        """``(buy, sell, next_energy)`` per lane, as arrays.

        Lane k solves node ``nodes[k]`` from ``energy[k]`` at the prices
        ``ask[k]``/``bid[k]``, which set only the slopes and kink of the
        trading cost.  Every operation is the scalar solve's, elementwise and
        in its order, so lane k equals the controls and next energy of that
        node's subproblem at lane k's prices, at any wealth, bit for bit.
        Raises the scalar solve's errors.
        """
        xe = np.asarray(energy, dtype=float)
        ask = np.asarray(ask, dtype=float)
        bid = np.asarray(bid, dtype=float)
        leak, cap, u_max, cp, cm, cp_b, cm_s = self._const
        s1, s2, kink, spread = _price_slopes(ask, bid, cp, cm, cp_b, cm_s)
        if not ((-_STATE_TOL <= xe) & (xe <= cap + _STATE_TOL)).all():
            raise InfeasibleError(f"energy state outside [0, {cap:.6g}]")
        if not self._trained[nodes].all():
            raise NotTrainedError(_NO_CUTS)
        g = self._slopes[nodes]
        big = leak * xe
        low = big - cm_s
        high = big + cp_b
        kink = big + kink
        e = self._breaks[nodes, np.count_nonzero(g < (-s2)[:, None], axis=1)]
        e = np.where(e < kink, kink, e)
        x1 = self._breaks[nodes, np.count_nonzero(g < (-s1)[:, None], axis=1)]
        e = np.where(e > x1, x1, e)
        e = np.where(e < low, low, e)
        e = np.where(e > high, high, e)
        if not ((0.0 <= e) & (e <= cap)).all():
            raise InfeasibleError("stage subproblem infeasible")
        with np.errstate(divide="ignore", invalid="ignore"):
            up = e >= big
            buy = np.where(up, np.where(e == high, u_max, (e - big) / cp), 0.0)
            sell = np.where(up, 0.0, np.where(e == low, u_max, (big - e) / cm))
            if not np.all(spread):
                buy_v = np.where(e < kink, (e - low) / cp, u_max)
                sell_v = np.where(e > kink, (high - e) / cm, u_max)
                buy = np.where(spread, buy, buy_v)
                sell = np.where(spread, sell, sell_v)
        buy, sell = _clamp_lanes(np.array([buy, sell]), xe, leak, cap, u_max, cp, cm)
        return buy, sell, leak * xe + cp * buy - cm * sell


def _clamp_lanes(x: np.ndarray, xe: np.ndarray, leak, cap, u_max, cp, cm):
    """Snap per-lane controls ``x = (buys, sells)`` into their boxes and the energy band.

    As `_clamp`, lane by lane; where() reproduces min/max exactly, signed
    zeros included.  Returns (buy, sell).
    """
    x = np.where(0.0 > x, 0.0, x)
    buy, sell = np.where(u_max < x, u_max, x)
    nxt = leak * xe + cp * buy - cm * sell
    low = nxt < 0.0
    high = ~low & (nxt > cap)
    if low.any():
        s_fix = sell + nxt / cm
        sell = np.where(low, np.where(0.0 > s_fix, 0.0, s_fix), sell)
    if high.any():
        b_fix = buy - (nxt - cap) / cp
        buy = np.where(high, np.where(0.0 > b_fix, 0.0, b_fix), buy)
    return buy, sell


def solve_stage(
    state: tuple[float, float], subproblems: list[NodeSubproblem], probs: list, rho: float
) -> tuple[float, float]:
    """Solve one Bellman stage: entropic risk over the successor subproblems.

    Prices are observed before the stage control is chosen, so successor
    node i has its own deterministic subproblem ``subproblems[i]``, reached
    with probability ``probs[i]``: a row of the chain's transition matrix
    as Python floats, on which scalar arithmetic is faster than on numpy
    scalars and rounds identically.  The stage value is
    ``(1/rho) log sum_i p_i exp(rho J_i)``, evaluated around the largest
    successor value ``m`` as ``m + log(sum_i p_i exp(rho (J_i - m))) / rho``.
    Its energy subgradient is the successors' energy subgradients averaged
    with the weights ``q_i ∝ p_i exp(rho J_i)``; its wealth subgradient is
    -1, as for every cost-to-go.  Successors with probability 0 are not
    solved.  The row and rho are not checked here: `MarkovChain` checks
    that its rows are stochastic, and `UtilitySpec` that rho is positive.
    Returns ``(value, grad_energy)``.
    """
    sols = [(p, sub.solve(state)) for p, sub in zip(probs, subproblems) if p > 0.0]
    top = max([sol.value for _, sol in sols])
    weights = [p * math.exp(rho * (sol.value - top)) for p, sol in sols]
    total = sum(weights)
    value = top + math.log(total) / rho
    ve = sum([q * sol.subgradient for q, (_, sol) in zip(weights, sols)]) / total
    return value, ve
