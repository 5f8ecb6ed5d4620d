"""Control-flow signals used inside the interpreter."""

from __future__ import annotations


class LoopBreak(Exception):
    def __init__(self, levels: int = 1):
        super().__init__(levels)
        self.levels = levels


class LoopContinue(Exception):
    def __init__(self, levels: int = 1):
        super().__init__(levels)
        self.levels = levels


class FuncReturn(Exception):
    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class ShellExit(Exception):
    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


class FuncNestLimit(Exception):
    """Unwinds a function-call chain that hit the nesting limit back to
    its outermost call (see ``Interpreter.call_function``)."""
