"""Mini ``531.deepsjeng_r``: a chess engine performing alpha-beta search.

The SPEC benchmark analyzes chess positions (FEN + ply depth) with an
alpha-beta tree search.  This substrate is a real, compact engine:

* 0x88 board representation with a FEN parser;
* pseudo-legal move generation with legality filtering;
* material + piece-square evaluation;
* fixed-depth alpha-beta with a Zobrist-keyed transposition table and
  MVV-LVA move ordering.

Telemetry captures the benchmark's signature behaviour: scattered
transposition-table probes (back-end bound), data-dependent cutoff
branches (bad speculation), and a method-coverage profile dominated by
the search/movegen/eval trio regardless of workload — the paper reports
``mu_g(M) = 1`` for this benchmark.

Workload payload: :class:`ChessInput` — a list of (FEN, depth) pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.registry import register_benchmark
from ..core.workload import Workload
from ..machine.telemetry import Probe
from .base import BenchmarkError

__all__ = ["ChessInput", "DeepsjengBenchmark", "Position", "START_FEN", "perft"]

START_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

# piece codes: positive = white, negative = black
EMPTY, PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = 0, 1, 2, 3, 4, 5, 6
_PIECE_CHARS = {"p": PAWN, "n": KNIGHT, "b": BISHOP, "r": ROOK, "q": QUEEN, "k": KING}
_CHAR_PIECES = {v: k for k, v in _PIECE_CHARS.items()}
_VALUES = {PAWN: 100, KNIGHT: 320, BISHOP: 330, ROOK: 500, QUEEN: 900, KING: 20000}

_KNIGHT_DELTAS = (-33, -31, -18, -14, 14, 18, 31, 33)
_KING_DELTAS = (-17, -16, -15, -1, 1, 15, 16, 17)
_BISHOP_DELTAS = (-17, -15, 15, 17)
_ROOK_DELTAS = (-16, -1, 1, 16)

#: The 64 on-board squares of the 0x88 board, in scan order.  The
#: other 64 entries of ``Position.board`` are always ``EMPTY``.
_SQUARES = tuple(sq for sq in range(128) if not sq & 0x88)

# central piece-square bonus, mirrored for black
_PST = [0] * 128
for _sq in range(128):
    if not _sq & 0x88:
        _file, _rank = _sq & 7, _sq >> 4
        _PST[_sq] = 6 - (abs(2 * _file - 7) + abs(2 * _rank - 7))

_ZOBRIST_RNG = random.Random(0xC0FFEE)
_ZOBRIST = [[_ZOBRIST_RNG.getrandbits(64) for _ in range(13)] for _ in range(128)]
_ZOBRIST_SIDE = _ZOBRIST_RNG.getrandbits(64)

_TT_REGION = 0x0800_0000
_BOARD_REGION = 0x0700_0000


@dataclass(frozen=True)
class ChessInput:
    """One deepsjeng workload: positions with per-position search depth."""

    positions: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("ChessInput: need at least one position")
        for fen, depth in self.positions:
            if depth < 1:
                raise ValueError(f"ChessInput: depth must be >= 1, got {depth}")
            if len(fen.split()) < 4:
                raise ValueError(f"ChessInput: malformed FEN {fen!r}")


def _material(piece: int, sq: int) -> int:
    """``piece``'s material + centralization term on ``sq``, from White's view."""
    if piece == EMPTY:
        return 0
    value = _VALUES[abs(piece)] + _PST[sq]
    return value if piece > 0 else -value


class Position:
    """A chess position on a 0x88 board.

    ``hash_`` (Zobrist) and ``score`` (see :func:`evaluate`) are kept in
    step with ``board`` by :meth:`from_fen` and :meth:`make_move`.
    """

    __slots__ = ("board", "white_to_move", "castling", "ep_square", "hash_", "score")

    def __init__(self) -> None:
        self.board = [EMPTY] * 128
        self.white_to_move = True
        self.castling = ""
        self.ep_square = -1
        self.hash_ = 0
        self.score = 0

    @classmethod
    def from_fen(cls, fen: str) -> "Position":
        parts = fen.split()
        if len(parts) < 4:
            raise BenchmarkError(f"bad FEN: {fen!r}")
        pos = cls()
        rank, file = 7, 0
        for ch in parts[0]:
            if ch == "/":
                rank -= 1
                file = 0
            elif ch.isdigit():
                file += int(ch)
            else:
                piece = _PIECE_CHARS.get(ch.lower())
                if piece is None or rank < 0 or file > 7:
                    raise BenchmarkError(f"bad FEN piece field: {fen!r}")
                sq = rank * 16 + file
                pos.board[sq] = piece if ch.isupper() else -piece
                file += 1
        pos.white_to_move = parts[1] == "w"
        pos.castling = parts[2] if parts[2] != "-" else ""
        pos.ep_square = -1
        if parts[3] != "-":
            f = ord(parts[3][0]) - ord("a")
            r = int(parts[3][1]) - 1
            pos.ep_square = r * 16 + f
        pos._rehash()
        return pos

    def to_fen(self) -> str:
        rows = []
        for rank in range(7, -1, -1):
            row = ""
            empties = 0
            for file in range(8):
                piece = self.board[rank * 16 + file]
                if piece == EMPTY:
                    empties += 1
                else:
                    if empties:
                        row += str(empties)
                        empties = 0
                    ch = _CHAR_PIECES[abs(piece)]
                    row += ch.upper() if piece > 0 else ch
            if empties:
                row += str(empties)
            rows.append(row)
        side = "w" if self.white_to_move else "b"
        castle = self.castling or "-"
        ep = "-"
        if self.ep_square >= 0:
            ep = "abcdefgh"[self.ep_square & 7] + str((self.ep_square >> 4) + 1)
        return f"{'/'.join(rows)} {side} {castle} {ep} 0 1"

    def _rehash(self) -> None:
        """Recompute ``hash_`` and ``score`` from the board."""
        h = 0
        for sq in range(128):
            if not sq & 0x88 and self.board[sq] != EMPTY:
                h ^= _ZOBRIST[sq][self.board[sq] + 6]
        if not self.white_to_move:
            h ^= _ZOBRIST_SIDE
        self.hash_ = h
        self.score = sum(_material(self.board[sq], sq) for sq in _SQUARES)

    def copy(self) -> "Position":
        p = Position.__new__(Position)
        p.board = self.board[:]
        p.white_to_move = self.white_to_move
        p.castling = self.castling
        p.ep_square = self.ep_square
        p.hash_ = self.hash_
        p.score = self.score
        return p

    # ------------------------------------------------------------- movegen

    def find_king(self, white: bool) -> int:
        # the first match in square order; off-board squares are EMPTY
        try:
            return self.board.index(KING if white else -KING)
        except ValueError:
            return -1

    def attacked_by(self, sq: int, by_white: bool) -> bool:
        board = self.board
        sign = 1 if by_white else -1
        # pawns
        pawn = sign * PAWN
        for d in ((-15, -17) if by_white else (15, 17)):
            f = sq + d
            if not f & 0x88 and board[f] == pawn:
                return True
        knight = sign * KNIGHT
        for d in _KNIGHT_DELTAS:
            f = sq + d
            if not f & 0x88 and board[f] == knight:
                return True
        king = sign * KING
        for d in _KING_DELTAS:
            f = sq + d
            if not f & 0x88 and board[f] == king:
                return True
        queen = sign * QUEEN
        for deltas, slider in ((_BISHOP_DELTAS, sign * BISHOP), (_ROOK_DELTAS, sign * ROOK)):
            for d in deltas:
                f = sq + d
                while not f & 0x88:
                    piece = board[f]
                    if piece != EMPTY:
                        if piece == slider or piece == queen:
                            return True
                        break
                    f += d
        return False

    def pseudo_moves(self) -> list[tuple[int, int, int]]:
        """(from, to, captured) pseudo-legal moves for the side to move."""
        board = self.board
        white = self.white_to_move
        sign = 1 if white else -1
        moves: list[tuple[int, int, int]] = []
        for sq in _SQUARES:
            kind = board[sq] * sign
            if kind <= 0:  # empty or the opponent's
                continue
            if kind == PAWN:
                fwd = 16 * sign
                one = sq + fwd
                if not one & 0x88 and board[one] == EMPTY:
                    moves.append((sq, one, EMPTY))
                    start_rank = 1 if white else 6
                    two = one + fwd
                    if sq >> 4 == start_rank and not two & 0x88 and board[two] == EMPTY:
                        moves.append((sq, two, EMPTY))
                for d in (fwd - 1, fwd + 1):
                    t = sq + d
                    if t & 0x88:
                        continue
                    if board[t] * sign < 0:
                        moves.append((sq, t, board[t]))
                    elif t == self.ep_square:
                        moves.append((sq, t, -sign * PAWN))
            elif kind == KNIGHT or kind == KING:
                for d in _KNIGHT_DELTAS if kind == KNIGHT else _KING_DELTAS:
                    t = sq + d
                    if t & 0x88:
                        continue
                    if board[t] * sign <= 0:
                        moves.append((sq, t, board[t]))
            else:
                deltas = (
                    _BISHOP_DELTAS
                    if kind == BISHOP
                    else _ROOK_DELTAS
                    if kind == ROOK
                    else _BISHOP_DELTAS + _ROOK_DELTAS
                )
                for d in deltas:
                    t = sq + d
                    while not t & 0x88:
                        captured = board[t]
                        if captured * sign > 0:
                            break
                        moves.append((sq, t, captured))
                        if captured != EMPTY:
                            break
                        t += d
        return moves

    def make_move(self, move: tuple[int, int, int]) -> "Position":
        """Return a new position with the move applied (copy-make)."""
        frm, to, _captured = move
        p = Position.__new__(Position)
        p.board = board = self.board[:]
        p.castling = self.castling
        piece = board[frm]
        sign = 1 if piece > 0 else -1
        is_pawn = piece * sign == PAWN
        h = self.hash_ ^ _ZOBRIST[frm][piece + 6]
        score = self.score - _material(piece, frm)
        target = board[to]
        if target != EMPTY:
            h ^= _ZOBRIST[to][target + 6]
            score -= _material(target, to)
        # en passant capture removes a pawn not on `to`
        if is_pawn and to == self.ep_square and target == EMPTY:
            cap_sq = to - 16 * sign
            h ^= _ZOBRIST[cap_sq][board[cap_sq] + 6]
            score -= _material(board[cap_sq], cap_sq)
            board[cap_sq] = EMPTY
        board[frm] = EMPTY
        p.ep_square = -1
        if is_pawn:
            if (to >> 4) in (0, 7):
                # promotion (always to queen, as search substrate)
                piece = QUEEN * sign
            elif abs(to - frm) == 32:
                p.ep_square = (frm + to) // 2
        board[to] = piece
        p.hash_ = h ^ _ZOBRIST[to][piece + 6] ^ _ZOBRIST_SIDE
        p.score = score + _material(piece, to)
        p.white_to_move = not self.white_to_move
        return p

    def legal_moves(self) -> list[tuple[int, int, int]]:
        moves = []
        for move in self.pseudo_moves():
            child = self.make_move(move)
            king = child.find_king(self.white_to_move)
            if king >= 0 and not child.attacked_by(king, child.white_to_move):
                moves.append(move)
        return moves

    def in_check(self) -> bool:
        king = self.find_king(self.white_to_move)
        return king >= 0 and self.attacked_by(king, not self.white_to_move)


def evaluate(pos: Position) -> int:
    """Static evaluation (material + centralization), from White's view.

    The sum of :func:`_material` over the board, which ``make_move``
    keeps up to date move by move.
    """
    return pos.score


def perft(pos: Position, depth: int) -> int:
    """Move-path enumeration; the standard movegen correctness check."""
    if depth == 0:
        return 1
    total = 0
    for move in pos.legal_moves():
        total += perft(pos.make_move(move), depth - 1)
    return total


#: Quiescence search explores capture chains at most this deep.
_QSEARCH_DEPTH = 3


class _Searcher:
    """Alpha-beta with transposition table, killer-move ordering, and a
    capture-only quiescence search at the horizon."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.tt: dict[int, tuple[int, int]] = {}
        self.nodes = 0
        self.qnodes = 0
        self.cutoff_branches: list[bool] = []
        self.tt_reads: list[int] = []
        self.eval_reads: list[int] = []
        # two killer moves per ply (indexed by remaining depth)
        self.killers: dict[int, list[tuple[int, int, int]]] = {}

    def _note_killer(self, depth: int, move: tuple[int, int, int]) -> None:
        slot = self.killers.setdefault(depth, [])
        if move in slot:
            return
        slot.insert(0, move)
        del slot[2:]

    def _order_moves(
        self, moves: list[tuple[int, int, int]], depth: int
    ) -> list[tuple[int, int, int]]:
        """Captures by MVV-LVA, then killers, then the rest."""
        killers = self.killers.get(depth, ())

        def _key(move: tuple[int, int, int]) -> tuple[int, int]:
            capture_value = _VALUES.get(abs(move[2]), 0)
            killer_bonus = 1 if move in killers else 0
            return (-capture_value, -killer_bonus)

        moves.sort(key=_key)
        # the ordering comparisons branch on move content
        prev = None
        for move in moves:
            key = _key(move)
            self.cutoff_branches.append(prev is not None and key == prev)
            self.cutoff_branches.append(move[2] != 0)
            prev = key
        return moves

    def qsearch(self, pos: Position, alpha: int, beta: int, qdepth: int) -> int:
        """Capture-only search to settle tactical noise at the horizon."""
        self.qnodes += 1
        probe = self.probe
        with probe.method("static_eval", code_bytes=6144):
            stand_pat = evaluate(pos)
            probe.ops(64)
            probe.branches([piece != EMPTY for piece in pos.board[::8]], site=3)
        score = stand_pat if pos.white_to_move else -stand_pat
        if score >= beta or qdepth <= 0:
            return score
        if score > alpha:
            alpha = score
        with probe.method("gen_captures", code_bytes=4096):
            captures = [m for m in pos.pseudo_moves() if m[2] != EMPTY]
            probe.ops(len(captures) * 12 + 48)
        captures.sort(key=lambda m: -_VALUES.get(abs(m[2]), 0))
        for move in captures:
            child = pos.make_move(move)
            king = child.find_king(pos.white_to_move)
            if king < 0 or child.attacked_by(king, child.white_to_move):
                continue  # illegal capture (left the king hanging)
            value = -self.qsearch(child, -beta, -alpha, qdepth - 1)
            took_cutoff = value >= beta
            self.cutoff_branches.append(took_cutoff)
            if took_cutoff:
                return value
            if value > alpha:
                alpha = value
        return alpha

    def _flush(self) -> None:
        probe = self.probe
        with probe.method("ProbeTT", code_bytes=768):
            probe.accesses(self.tt_reads)
            probe.ops(len(self.tt_reads) * 4)
        with probe.method("search", code_bytes=10240):
            probe.branches(self.cutoff_branches, site=2)
        self.tt_reads.clear()
        self.cutoff_branches.clear()

    def search(self, pos: Position, depth: int, alpha: int, beta: int) -> int:
        self.nodes += 1
        probe = self.probe
        key = pos.hash_
        self.tt_reads.append(_TT_REGION + (key % 262_144) * 16)
        hit = self.tt.get(key)
        self.cutoff_branches.append(hit is not None and hit[1] >= depth)
        if hit is not None and hit[1] >= depth:
            return hit[0]

        if depth == 0:
            with probe.method("static_eval", code_bytes=6144):
                probe.accesses(
                    [_BOARD_REGION + (key % 4096) * 64 + i * 8 for i in range(4)]
                )
            return self.qsearch(pos, alpha, beta, _QSEARCH_DEPTH)

        with probe.method("gen_moves", code_bytes=8192):
            moves = pos.legal_moves()
            probe.ops(len(moves) * 24 + 128)
            probe.branches(
                [m[2] != EMPTY for m in moves], site=1
            )
        if not moves:
            return -30_000 if pos.in_check() else 0

        moves = self._order_moves(moves, depth)

        best = -1_000_000
        for move in moves:
            with probe.method("make_move", code_bytes=2048):
                child = pos.make_move(move)
                probe.ops(40)
            score = -self.search(child, depth - 1, -beta, -alpha)
            took_cutoff = score >= beta
            self.cutoff_branches.append(took_cutoff)
            self.cutoff_branches.append(score > best)
            self.cutoff_branches.append(score > alpha)
            if score > best:
                best = score
            if score > alpha:
                alpha = score
            if took_cutoff:
                if move[2] == EMPTY:
                    self._note_killer(depth, move)
                break

        self.tt[key] = (best, depth)
        if len(self.tt) > 200_000:
            self.tt.clear()
        if len(self.tt_reads) >= 4096:
            self._flush()
        return best


@register_benchmark
class DeepsjengBenchmark:
    """The ``531.deepsjeng_r`` substrate."""

    name = "531.deepsjeng_r"
    suite = "int"

    def run(self, workload: Workload, probe: Probe) -> dict:
        payload = workload.payload
        if not isinstance(payload, ChessInput):
            raise BenchmarkError(f"deepsjeng: bad payload type {type(payload).__name__}")
        results = []
        total_nodes = 0
        for fen, depth in payload.positions:
            with probe.method("parse_fen", code_bytes=1024):
                pos = Position.from_fen(fen)
                probe.ops(len(fen) * 3)
            searcher = _Searcher(probe)
            # iterative deepening: shallow passes seed the transposition
            # table and killers that speed up the full-depth pass
            score = 0
            with probe.method("search", code_bytes=10240):
                for d in range(1, depth + 1):
                    score = searcher.search(pos, d, -1_000_000, 1_000_000)
                probe.ops(searcher.nodes * 12)
            searcher._flush()
            total_nodes += searcher.nodes + searcher.qnodes
            results.append(score)
        return {"scores": results, "nodes": total_nodes}

    def verify(self, workload: Workload, output: dict) -> bool:
        scores = output["scores"]
        if len(scores) != len(workload.payload.positions):
            return False
        # scores are centipawn-ish values or mate scores
        return all(-40_000 <= s <= 40_000 for s in scores) and output["nodes"] > 0
