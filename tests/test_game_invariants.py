"""Property-based invariant tests for the game-engine substrates.

Random legal play must never violate the rules' structural invariants
— the kind of deep correctness the fixed-example tests cannot cover.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.deepsjeng import (
    _PST,
    _VALUES,
    EMPTY as NO_PIECE,
    KING,
    START_FEN,
    Position,
    evaluate,
)
from repro.benchmarks.leela import BLACK, EMPTY, WHITE, GoBoard, _legal_moves


# Reference implementations: full scans of all 128 entries of the 0x88
# board, which find_king and evaluate must match.


def scan_find_king(pos: Position, white: bool) -> int:
    target = KING if white else -KING
    for sq in range(128):
        if not sq & 0x88 and pos.board[sq] == target:
            return sq
    return -1


def scan_evaluate(pos: Position) -> int:
    score = 0
    for sq in range(128):
        if sq & 0x88:
            continue
        piece = pos.board[sq]
        if piece == NO_PIECE:
            continue
        value = _VALUES[abs(piece)] + _PST[sq]
        score += value if piece > 0 else -value
    return score


#: Start points with promotions, en passant and a missing king in reach.
CHESS_FENS = (
    START_FEN,
    "r3k2r/pPppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
    "4k3/1P6/8/2pP4/8/8/6p1/8 w - c6 0 1",
    "8/8/8/8/8/8/6p1/K7 b - - 0 1",
)


class TestChessInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_play_preserves_kings(self, seed):
        """Kings are never captured: every legal move sequence keeps
        both kings on the board."""
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(5, 30)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
            board_pieces = [p for p in pos.board if p != 0]
            assert board_pieces.count(KING) == 1
            assert board_pieces.count(-KING) == 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_moves_never_leave_mover_in_check(self, seed):
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(3, 20)):
            moves = pos.legal_moves()
            if not moves:
                break
            mover_is_white = pos.white_to_move
            pos = pos.make_move(rng.choice(moves))
            king = pos.find_king(mover_is_white)
            assert king >= 0
            assert not pos.attacked_by(king, not mover_is_white)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_piece_count_never_increases(self, seed):
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        count = sum(1 for p in pos.board if p != 0)
        for _ in range(rng.randint(3, 25)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
            new_count = sum(1 for p in pos.board if p != 0)
            assert new_count <= count
            count = new_count

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_hash_consistency(self, seed):
        """Incremental Zobrist hashing equals recomputation from scratch."""
        rng = random.Random(seed)
        pos = Position.from_fen(START_FEN)
        for _ in range(rng.randint(2, 15)):
            moves = pos.legal_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))
        fresh = Position.from_fen(pos.to_fen())
        assert fresh.hash_ == pos.hash_

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(CHESS_FENS))
    @settings(max_examples=30, deadline=None)
    def test_scans_match_128_square_reference(self, seed, fen):
        rng = random.Random(seed)
        pos = Position.from_fen(fen)
        for _ in range(rng.randint(1, 40)):
            assert evaluate(pos) == scan_evaluate(pos)
            for white in (True, False):
                assert pos.find_king(white) == scan_find_king(pos, white)
            moves = pos.pseudo_moves()
            if not moves:
                break
            pos = pos.make_move(rng.choice(moves))


def reference_is_legal(board: GoBoard, point: int, color: int) -> bool:
    """Legality from full flood fills: the reference for ``is_legal``."""
    if board.cells[point] != EMPTY or point == board.ko_point:
        return False
    other = BLACK + WHITE - color
    board.cells[point] = color
    try:
        if any(board.cells[q] == EMPTY for q in board.neighbors(point)):
            return True
        for q in board.neighbors(point):
            if board.cells[q] == other and board._group_and_liberties(q)[1] == 0:
                return True
        return board._group_and_liberties(point)[1] > 0
    finally:
        board.cells[point] = EMPTY


class TestGoInvariants:
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from((9, 13)))
    @settings(max_examples=15, deadline=None)
    def test_early_exit_search_matches_flood_fill(self, seed, size):
        """After a stone lands on any empty point, the early-exit search
        finds exactly the groups the full flood fill counts zero
        liberties for, and legality agrees with the flood-fill rule."""
        rng = random.Random(seed)
        board = GoBoard(size)
        color = BLACK
        for _ in range(rng.randint(5, 80)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            color = BLACK + WHITE - color
        for point in range(size * size):
            if board.cells[point] != EMPTY:
                continue
            for stone in (BLACK, WHITE):
                assert board.is_legal(point, stone) == reference_is_legal(board, point, stone)
                board.cells[point] = stone
                for q in (point, *board.neighbors(point)):
                    if board.cells[q] == EMPTY:
                        continue
                    group, libs = board._group_and_liberties(q)
                    dead = board._dead_group(q)
                    assert (dead is not None) == (libs == 0)
                    assert dead is None or dead == set(group)
                board.cells[point] = EMPTY

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_no_zero_liberty_groups_after_play(self, seed):
        """After any legal move, no group on the board has zero
        liberties (captures resolve atomically)."""
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        for _ in range(rng.randint(5, 40)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            for p in range(81):
                if board.cells[p] != EMPTY:
                    _, libs = board._group_and_liberties(p)
                    assert libs > 0
            color = BLACK + WHITE - color

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_captures_counter_matches_board(self, seed):
        """Stones placed minus stones on board equals stones captured."""
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        placed = 0
        for _ in range(rng.randint(5, 50)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            placed += 1
            color = BLACK + WHITE - color
        on_board = sum(1 for c in board.cells if c != EMPTY)
        captured = board.captures[BLACK] + board.captures[WHITE]
        assert placed == on_board + captured

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_score_bounded_by_board_area(self, seed):
        rng = random.Random(seed)
        board = GoBoard(9)
        color = BLACK
        for _ in range(rng.randint(5, 30)):
            legal = _legal_moves(board, color)
            if not legal:
                break
            board.play(rng.choice(legal), color)
            color = BLACK + WHITE - color
        score = board.score()
        assert -(81 + 7) <= score <= 81 + 7

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_copy_is_independent(self, seed):
        rng = random.Random(seed)
        board = GoBoard(9)
        board.play(40, BLACK)
        clone = board.copy()
        legal = _legal_moves(clone, WHITE)
        clone.play(rng.choice(legal), WHITE)
        assert board.cells.count(EMPTY) == 80  # original untouched
