"""Mini ``541.leela_r``: a Go engine with Monte-Carlo tree search.

The SPEC benchmark takes an incomplete Go game (SGF) and plays it to
the end with a fixed number of simulations per move.  This substrate
implements the full stack from scratch:

* a Go board with group/liberty tracking, captures, suicide and
  simple-ko rules, for 9x9 / 13x13 / 19x19 boards;
* an SGF parser for game records;
* MCTS: UCT selection over a game tree, node expansion, uniform random
  playouts, and Tromp-Taylor-style area scoring.

The real benchmark shows the *highest bad-speculation fraction* in the
paper's Table II (27.6%): random playout move legality checks are
inherently unpredictable branches, which the telemetry reproduces
directly.  Coverage is concentrated in the playout loop regardless of
workload (``mu_g(M) = 1``).

Workload payload: :class:`GoInput` — SGF records plus the number of
playouts per move.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from ..core.registry import register_benchmark
from ..core.workload import Workload
from ..machine.telemetry import Probe
from .base import BenchmarkError

__all__ = ["GoInput", "LeelaBenchmark", "GoBoard", "parse_sgf", "sgf_coord"]

EMPTY, BLACK, WHITE = 0, 1, 2
_BOARD_REGION = 0x4000_0000
_TREE_REGION = 0x4400_0000


@dataclass(frozen=True)
class GoInput:
    """One leela workload: SGF games to finish + search effort."""

    games: tuple[str, ...]
    playouts_per_move: int = 12
    max_moves_to_play: int = 8

    def __post_init__(self) -> None:
        if not self.games:
            raise ValueError("GoInput: need at least one game")
        if self.playouts_per_move < 1 or self.max_moves_to_play < 1:
            raise ValueError("GoInput: effort parameters must be >= 1")


def sgf_coord(move: str, size: int) -> int | None:
    """SGF two-letter coordinate -> board index, None for a pass."""
    if not move or move == "tt" and size <= 19:
        return None
    col = ord(move[0]) - ord("a")
    row = ord(move[1]) - ord("a")
    if not (0 <= col < size and 0 <= row < size):
        raise BenchmarkError(f"sgf: coordinate {move!r} outside board {size}")
    return row * size + col


def parse_sgf(text: str) -> tuple[int, list[tuple[int, int | None]]]:
    """Parse a minimal SGF game record.

    Returns (board_size, moves) where each move is (color, point) with
    point None for a pass.  Supports the properties SZ, B, W.
    """
    size = 19
    moves: list[tuple[int, int | None]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ";)(":
            i += 1
            continue
        j = i
        while j < n and text[j].isalpha():
            j += 1
        prop = text[i:j]
        values: list[str] = []
        while j < n and text[j] == "[":
            end = text.find("]", j)
            if end < 0:
                raise BenchmarkError("sgf: unterminated property value")
            values.append(text[j + 1 : end])
            j = end + 1
        i = j
        if not prop:
            i += 1
            continue
        if prop == "SZ":
            size = int(values[0])
        elif prop in ("B", "W"):
            color = BLACK if prop == "B" else WHITE
            moves.append((color, sgf_coord(values[0], size)))
    if size not in (9, 13, 19):
        raise BenchmarkError(f"sgf: unsupported board size {size}")
    return size, moves


@functools.cache
def _neighbor_table(size: int) -> tuple[tuple[int, ...], ...]:
    """Every point's orthogonal neighbours (up, down, left, right) on a
    ``size`` board; built on first use of that size."""
    table = []
    for point in range(size * size):
        row, col = divmod(point, size)
        out = []
        if row > 0:
            out.append(point - size)
        if row < size - 1:
            out.append(point + size)
        if col > 0:
            out.append(point - 1)
        if col < size - 1:
            out.append(point + 1)
        table.append(tuple(out))
    return tuple(table)


class GoBoard:
    """Go board with group capture, suicide, and simple-ko rules.

    ``cells`` is mutated in place and never rebound, so loops may hold
    a local reference to it across :meth:`play` calls.
    """

    __slots__ = ("size", "cells", "ko_point", "captures", "_nbrs")

    def __init__(self, size: int):
        self.size = size
        self.cells = [EMPTY] * (size * size)
        self.ko_point = -1
        self.captures = [0, 0, 0]
        self._nbrs = _neighbor_table(size)

    def copy(self) -> "GoBoard":
        b = GoBoard.__new__(GoBoard)
        b.size = self.size
        b.cells = self.cells[:]
        b.ko_point = self.ko_point
        b.captures = self.captures[:]
        b._nbrs = self._nbrs
        return b

    def neighbors(self, point: int) -> tuple[int, ...]:
        return self._nbrs[point]

    def _group_and_liberties(self, point: int) -> tuple[list[int], int]:
        """Flood-fill the group at ``point``; returns (stones, #liberties)."""
        cells = self.cells
        nbrs = self._nbrs
        color = cells[point]
        stack = [point]
        seen = {point}
        liberties: set[int] = set()
        group = []
        while stack:
            p = stack.pop()
            group.append(p)
            for q in nbrs[p]:
                c = cells[q]
                if c == EMPTY:
                    liberties.add(q)
                elif c == color and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return group, len(liberties)

    def _dead_group(self, point: int) -> set[int] | None:
        """The stones of the group at ``point`` if it has no liberty.

        ``None`` as soon as the search reaches an empty point: the
        callers only ask whether a group has zero liberties, which
        :meth:`_group_and_liberties` answers with a full flood fill.
        """
        cells = self.cells
        nbrs = self._nbrs
        color = cells[point]
        stack = [point]
        seen = {point}
        while stack:
            for q in nbrs[stack.pop()]:
                c = cells[q]
                if c == EMPTY:
                    return None
                if c == color and q not in seen:
                    seen.add(q)
                    stack.append(q)
        return seen

    def is_legal(self, point: int, color: int) -> bool:
        cells = self.cells
        if cells[point] != EMPTY or point == self.ko_point:
            return False
        nbrs = self._nbrs[point]
        # fast path: any empty neighbor makes the move legal
        for q in nbrs:
            if cells[q] == EMPTY:
                return True
        # otherwise legal iff it captures something or joins a group
        # that keeps a liberty
        other = BLACK + WHITE - color
        cells[point] = color
        try:
            for q in nbrs:
                if cells[q] == other and self._dead_group(q) is not None:
                    return True
            return self._dead_group(point) is None
        finally:
            cells[point] = EMPTY

    def play(self, point: int | None, color: int) -> int:
        """Apply a move (None = pass); returns stones captured."""
        if point is None:
            self.ko_point = -1
            return 0
        cells = self.cells
        if cells[point] != EMPTY:
            raise BenchmarkError(f"go: point {point} occupied")
        other = BLACK + WHITE - color
        cells[point] = color
        captured: set[int] = set()
        for q in self._nbrs[point]:
            if cells[q] == other and q not in captured:
                group = self._dead_group(q)
                if group is not None:
                    captured |= group
        for p in captured:
            cells[p] = EMPTY
        n_captured = len(captured)
        if n_captured == 0 and self._dead_group(point) is not None:
            cells[point] = EMPTY
            raise BenchmarkError("go: suicide move")
        # simple ko: single-stone capture of a single stone
        self.ko_point = -1
        if n_captured == 1:
            group, libs = self._group_and_liberties(point)
            if len(group) == 1 and libs == 1:
                (self.ko_point,) = captured
        self.captures[color] += n_captured
        return n_captured

    def is_eyelike(self, point: int, color: int) -> bool:
        """True if ``point`` is surrounded by ``color`` stones (do not fill)."""
        cells = self.cells
        for q in self._nbrs[point]:
            if cells[q] != color:
                return False
        return True

    def score(self) -> float:
        """Tromp-Taylor area score, positive in Black's favour."""
        size2 = self.size * self.size
        cells = self.cells
        nbrs = self._nbrs
        black = white = 0
        visited = [False] * size2
        for p in range(size2):
            c = cells[p]
            if c == BLACK:
                black += 1
            elif c == WHITE:
                white += 1
            elif not visited[p]:
                # flood-fill the empty region, find bordering colors
                stack = [p]
                visited[p] = True
                region = []
                borders = set()
                while stack:
                    q = stack.pop()
                    region.append(q)
                    for r in nbrs[q]:
                        c2 = cells[r]
                        if c2 == EMPTY and not visited[r]:
                            visited[r] = True
                            stack.append(r)
                        elif c2 != EMPTY:
                            borders.add(c2)
                if borders == {BLACK}:
                    black += len(region)
                elif borders == {WHITE}:
                    white += len(region)
        return black - white - 6.5  # komi


class _MctsNode:
    """One node of the UCT search tree."""

    __slots__ = ("move", "color", "visits", "wins", "children", "untried", "addr")

    _next = 0

    def __init__(self, move: int | None, color: int, untried: list[int]):
        self.move = move
        self.color = color  # color that made `move` to reach this node
        self.visits = 0
        self.wins = 0.0
        self.children: list[_MctsNode] = []
        self.untried = untried
        self.addr = _TREE_REGION + (_MctsNode._next % 65_536) * 64
        _MctsNode._next += 1

    def uct_child(self, exploration: float, reads: list[int]) -> "_MctsNode":
        """The child maximizing the UCT bound."""
        log_n = math.log(max(1, self.visits))
        best = self.children[0]
        best_value = -1e18
        for child in self.children:
            reads.append(child.addr)
            value = child.wins / child.visits + exploration * math.sqrt(
                log_n / child.visits
            )
            if value > best_value:
                best_value = value
                best = child
        return best


def _mcts_move(
    board: GoBoard,
    color: int,
    legal: list[int],
    n_playouts: int,
    rng: random.Random,
    branch_buf: list[bool],
    reads: list[int],
    playout_counter: list[int],
    exploration: float = 0.9,
) -> int:
    """Full UCT: select, expand, random playout, backpropagate."""
    size = board.size
    root = _MctsNode(None, BLACK + WHITE - color, legal[:])
    rng.shuffle(root.untried)

    for _ in range(n_playouts):
        playout_counter[0] += 1
        node = root
        sim = board.copy()
        sim_color = color
        path = [root]

        # --- selection: descend fully-expanded nodes by UCT ------------
        while not node.untried and node.children:
            node = node.uct_child(exploration, reads)
            sim.play(node.move, sim_color)
            sim_color = BLACK + WHITE - sim_color
            path.append(node)

        # --- expansion: try one untried move ---------------------------
        if node.untried:
            move = node.untried.pop()
            # the move may have become illegal in this line of play
            legal_now = sim.cells[move] == EMPTY and sim.is_legal(move, sim_color)
            branch_buf.append(legal_now)
            if legal_now:
                sim.play(move, sim_color)
                child_untried = _legal_moves(sim, BLACK + WHITE - sim_color)
                rng.shuffle(child_untried)
                child = _MctsNode(move, sim_color, child_untried)
                node.children.append(child)
                path.append(child)
                sim_color = BLACK + WHITE - sim_color

        # --- playout + backpropagation ----------------------------------
        pool = _BOARD_REGION + (playout_counter[0] * 2048) % (384 << 10)
        reads.extend(pool + i * 64 for i in range(0, size * size * 4, 256))
        result = _playout(
            sim, sim_color, rng, branch_buf, reads,
            max_steps=size * size // 2, pool_base=pool,
        )
        for visited in path:
            visited.visits += 1
            reads.append(visited.addr)
            # a node holds the move played by `visited.color`; score is
            # from Black's perspective
            node_score = result if visited.color == BLACK else -result
            branch_buf.append(node_score > 0)
            if node_score > 0:
                visited.wins += 1.0

    if not root.children:
        return legal[0]
    # final choice: most-visited child (standard robust-child rule)
    return max(root.children, key=lambda c: c.visits).move


def _legal_moves(board: GoBoard, color: int) -> list[int]:
    cells = board.cells
    is_eyelike = board.is_eyelike
    is_legal = board.is_legal
    return [
        p
        for p in range(board.size * board.size)
        if cells[p] == EMPTY
        and not is_eyelike(p, color)
        and is_legal(p, color)
    ]


def _playout(
    board: GoBoard,
    color: int,
    rng: random.Random,
    branch_buf: list[bool],
    reads: list[int],
    max_steps: int,
    pool_base: int = _BOARD_REGION,
) -> float:
    """Uniform random playout; returns the final area score.

    ``pool_base`` is the heap address of this playout's private board
    copy — each playout works on freshly allocated state, so the
    address stream sweeps a large heap pool rather than one hot board.
    """
    passes = 0
    steps = 0
    size2 = board.size * board.size
    cells = board.cells
    randrange = rng.randrange
    is_eyelike = board.is_eyelike
    is_legal = board.is_legal
    play = board.play
    while passes < 2 and steps < max_steps:
        steps += 1
        # sample candidate points until a legal one is found — each
        # legality test is a data-dependent, effectively random branch
        move = None
        for _ in range(12):
            p = randrange(size2)
            reads.append(pool_base + p * 4)
            ok = cells[p] == EMPTY and not is_eyelike(p, color) and is_legal(p, color)
            branch_buf.append(ok)
            if ok:
                move = p
                break
        if move is None:
            play(None, color)
            passes += 1
        else:
            play(move, color)
            passes = 0
        color = BLACK + WHITE - color
    return board.score()


@register_benchmark
class LeelaBenchmark:
    """The ``541.leela_r`` substrate."""

    name = "541.leela_r"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict:
        payload = workload.payload
        if not isinstance(payload, GoInput):
            raise BenchmarkError(f"leela: bad payload type {type(payload).__name__}")
        # the tree-node allocation cursor is process-global; start every
        # run from a canonical layout so results depend only on the workload
        _MctsNode._next = 0
        rng = random.Random(0xA11CE)
        finished = 0
        total_playouts = 0
        scores: list[float] = []
        for sgf in payload.games:
            with probe.method("parse_sgf", code_bytes=1024):
                size, moves = parse_sgf(sgf)
                probe.ops(len(sgf) * 2)
            board = GoBoard(size)
            color = BLACK
            with probe.method("replay_game", code_bytes=1536):
                for mv_color, point in moves:
                    if point is not None and not board.is_legal(point, mv_color):
                        raise BenchmarkError("leela: illegal move in SGF record")
                    board.play(point, mv_color)
                    color = BLACK + WHITE - mv_color
                probe.ops(len(moves) * 30)
                probe.accesses([_BOARD_REGION + p * 4 for p in range(0, size * size, 2)])

            # play the culled tail of the game with MCTS
            for _ply in range(payload.max_moves_to_play):
                with probe.method("uct_select", code_bytes=2048):
                    legal = _legal_moves(board, color)
                    probe.ops(len(legal) * 18 + 32)
                    probe.accesses([_BOARD_REGION + p * 4 for p in legal[:64]])
                if not legal:
                    board.play(None, color)
                    color = BLACK + WHITE - color
                    continue
                branch_buf: list[bool] = []
                reads: list[int] = []
                with probe.method("run_playout", code_bytes=2560):
                    counter = [total_playouts]
                    # search effort: 8 tree playouts per candidate-move
                    # budget unit, as the flat search used
                    n_playouts = payload.playouts_per_move * min(len(legal), 8)
                    best_move = _mcts_move(
                        board, color, legal, n_playouts, rng,
                        branch_buf, reads, counter,
                    )
                    total_playouts = counter[0]
                    probe.branches(branch_buf, site=1)
                    probe.accesses(reads)
                    probe.ops(len(branch_buf) * 8)
                with probe.method("update_board", code_bytes=1024):
                    board.play(best_move, color)
                    probe.ops(64)
                color = BLACK + WHITE - color

            with probe.method("score_game", code_bytes=1280):
                final = board.score()
                probe.ops(size * size * 4)
                probe.accesses([_BOARD_REGION + p * 4 for p in range(size * size)])
            scores.append(final)
            finished += 1
        return {
            "games": finished,
            "scores": scores,
            "playouts": total_playouts,
        }

    def verify(self, workload: Workload, output: dict) -> bool:
        if output["games"] != len(workload.payload.games):
            return False
        max_area = 19 * 19 + 7
        return output["playouts"] > 0 and all(
            -max_area <= s <= max_area for s in output["scores"]
        )
