"""Lowering MiniCC ASTs to the guarded straight-line partial-SSA IR.

Responsibilities (paper §3.1 / §4.1 preliminaries):

* split variables into top-level SSA variables ``V`` and address-taken
  objects ``O`` (anything whose address is taken, plus globals);
* flatten nested dereferences through auxiliary temporaries so each load
  and store is a single shared access;
* compute each instruction's *path condition* (``guard``) — branch
  conditions become SMT terms; conditions over the same ``extern``
  symbolic constant are correlated program-wide;
* merge SSA values at structured joins with guarded phis.

The output order linearizes the bounded control flow: instruction ℓ1 may
reach ℓ2 within a function only if ℓ1 precedes ℓ2 (guards rule out
cross-arm flows between exclusive branches).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..frontend import ast_nodes as A
from ..frontend.source import Location
from ..ir.instructions import (
    AddrOfInst,
    AllocInst,
    BinOpInst,
    CallInst,
    CmpInst,
    CopyInst,
    ForkInst,
    FreeInst,
    Instruction,
    JoinInst,
    LoadInst,
    LockInst,
    PhiInst,
    ReturnInst,
    SignalInst,
    SinkInst,
    SourceInst,
    StoreInst,
    UnlockInst,
    WaitInst,
)
from ..ir.module import IRFunction, IRModule
from ..ir.values import (
    NULL,
    FunctionRef,
    IntConstant,
    MemObject,
    SymbolicConstant,
    Value,
    Variable,
    VariableNamer,
)
from ..smt.terms import (
    FALSE,
    TRUE,
    BoolTerm,
    IntTerm,
    and_,
    bool_var,
    eq,
    int_const,
    int_var,
    le,
    lt,
    ne,
    not_,
    or_,
)
from .unroll import DEFAULT_UNROLL_DEPTH, unroll_loops

__all__ = [
    "lower_program",
    "lower_program_incremental",
    "LoweringError",
]

#: Intrinsic function names recognized by the lowering.
INTRINSICS = frozenset(
    {
        "malloc",
        "free",
        "nondet",
        "print",
        "lock",
        "unlock",
        "taint_source",
        "taint_sink",
    }
)


class LoweringError(Exception):
    pass


def lower_program(
    program: A.Program,
    unroll_depth: int = DEFAULT_UNROLL_DEPTH,
) -> IRModule:
    """Lower a parsed MiniCC program to an :class:`IRModule`.

    Loops are unrolled to ``unroll_depth`` first (paper §6 unrolls twice).
    Each function is lowered into its own label block (indexed by
    declaration order), so labels — and therefore bug keys — of one
    function never depend on the contents of another.
    """
    bounded = unroll_loops(program, unroll_depth)
    module = IRModule()
    for ext in bounded.externs:
        module.externs[ext.name] = SymbolicConstant(ext.name)
    for glob in bounded.globals:
        module.globals[glob.name] = MemObject(glob.name, "global")
    func_names = {f.name for f in bounded.functions}
    for i, func in enumerate(bounded.functions):
        module.begin_label_block(i)
        module.functions[func.name] = _FunctionLowerer(module, func, func_names).lower()
    return module


def lower_program_incremental(
    program: A.Program,
    unroll_depth: int = DEFAULT_UNROLL_DEPTH,
) -> Tuple[IRModule, Tuple[str, ...]]:
    """:func:`lower_program` plus the names of functions reused from an
    earlier run, which is always empty: every run lowers every function.
    The pipeline's ``lower`` pass calls this name, and
    ``perfbench/layers.py`` wraps it and unpacks the pair."""
    return lower_program(program, unroll_depth), ()


def _collect_addr_taken(block: A.BlockStmt, acc: Set[str]) -> None:
    """Names whose address is taken anywhere in the function body."""

    def walk_expr(e: A.Expr) -> None:
        if isinstance(e, A.AddrOfExpr):
            acc.add(e.name)
        elif isinstance(e, A.UnaryExpr):
            walk_expr(e.operand)
        elif isinstance(e, A.BinaryExpr):
            walk_expr(e.lhs)
            walk_expr(e.rhs)
        elif isinstance(e, A.CallExpr):
            for a in e.args:
                walk_expr(a)
        elif isinstance(e, A.DerefExpr):
            walk_expr(e.operand)
        elif isinstance(e, A.IndexExpr):
            walk_expr(e.base)
            walk_expr(e.index)

    def walk_stmt(s: A.Stmt) -> None:
        if isinstance(s, A.BlockStmt):
            for inner in s.body:
                walk_stmt(inner)
        elif isinstance(s, A.IfStmt):
            walk_expr(s.cond)
            walk_stmt(s.then_body)
            if s.else_body:
                walk_stmt(s.else_body)
        elif isinstance(s, A.WhileStmt):
            walk_expr(s.cond)
            walk_stmt(s.body)
        elif isinstance(s, A.VarDeclStmt) and s.init is not None:
            walk_expr(s.init)
        elif isinstance(s, A.AssignStmt):
            walk_expr(s.value)
        elif isinstance(s, A.StoreStmt):
            walk_expr(s.pointer)
            walk_expr(s.value)
        elif isinstance(s, A.IndexStoreStmt):
            walk_expr(s.base)
            walk_expr(s.index)
            walk_expr(s.value)
        elif isinstance(s, A.ReturnStmt) and s.value is not None:
            walk_expr(s.value)
        elif isinstance(s, A.ExprStmt):
            walk_expr(s.expr)
        elif isinstance(s, A.ForkStmt):
            for a in s.args:
                walk_expr(a)

    walk_stmt(block)


class _FunctionLowerer:
    def __init__(self, module: IRModule, func: A.FuncDef, func_names: Set[str]) -> None:
        self.module = module
        self.func_ast = func
        self.func_names = func_names
        # Content-derived SSA names scoped to this function: identical
        # source lowers to identical names in any process.
        self.namer = VariableNamer(func.name)
        self.out = IRFunction(name=func.name)
        self.guard: BoolTerm = TRUE
        # Source-level name -> current SSA value (top-level vars only).
        self.env: Dict[str, Value] = {}
        self.addr_taken: Set[str] = set()
        # Address-taken local name -> its stack object.
        self.stack_objs: Dict[str, MemObject] = {}
        # Cached pointer variable per address-taken local / global.
        self.slot_ptrs: Dict[str, Variable] = {}
        # Symbolic integer view of SSA variables, for branch conditions.
        self.symint: Dict[Variable, IntTerm] = {}
        # Boolean view of SSA variables (for vars holding comparison results).
        self.symbool: Dict[Variable, BoolTerm] = {}

    # ----- helpers --------------------------------------------------------

    def emit(self, cls, location: Location, **fields) -> Instruction:
        inst = cls(
            label=self.module.new_label(),
            guard=self.guard,
            location=location,
            **fields,
        )
        self.out.body.append(inst)
        self.module.register(inst, self.out.name)
        return inst

    def _symint_of(self, value: Value) -> Optional[IntTerm]:
        if isinstance(value, IntConstant):
            return int_const(value.value)
        if isinstance(value, SymbolicConstant):
            return int_var(value.name)
        if isinstance(value, Variable):
            return self.symint.get(value)
        return None

    def _cond_of_value(self, value: Value) -> BoolTerm:
        """The truth of ``value`` as an SMT term (``value != 0``)."""
        if isinstance(value, IntConstant):
            return TRUE if value.value != 0 else FALSE
        if value is NULL:
            return FALSE
        if isinstance(value, Variable):
            known = self.symbool.get(value)
            if known is not None:
                return known
        si = self._symint_of(value)
        if si is not None:
            return ne(si, 0)
        if isinstance(value, Variable):
            return bool_var(f"b!{value.name}")
        return bool_var(f"b!{value!r}")

    # ----- entry ------------------------------------------------------------

    def lower(self) -> IRFunction:
        _collect_addr_taken(self.func_ast.body, self.addr_taken)
        for param in self.func_ast.params:
            var = self.namer.fresh(param.name, source_name=param.name)
            self.out.params.append(var)
            if param.name in self.addr_taken:
                # Parameter whose address is taken: spill to a stack slot.
                obj = MemObject(f"{self.out.name}.{param.name}", "stack")
                self.stack_objs[param.name] = obj
                ptr = self._slot_pointer(param.name, self.func_ast.location)
                self.emit(StoreInst, self.func_ast.location, pointer=ptr, value=var)
            else:
                self.env[param.name] = var
        self._lower_block(self.func_ast.body)
        return self.out

    def _slot_pointer(self, name: str, location: Location) -> Variable:
        """The pointer to an address-taken local's or global's memory slot."""
        cached = self.slot_ptrs.get(name)
        if cached is not None:
            return cached
        if name in self.module.globals:
            obj = self.module.globals[name]
        else:
            obj = self.stack_objs.get(name)
            if obj is None:
                obj = MemObject(f"{self.out.name}.{name}", "stack")
                self.stack_objs[name] = obj
        ptr = self.namer.fresh(f"addr.{name}")
        saved_guard, self.guard = self.guard, TRUE  # address is unconditional
        self.emit(AddrOfInst, location, dst=ptr, obj=obj)
        self.guard = saved_guard
        self.slot_ptrs[name] = ptr
        return ptr

    # ----- statements ---------------------------------------------------

    def _lower_block(self, block: A.BlockStmt) -> None:
        for stmt in block.body:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.BlockStmt):
            self._lower_block(stmt)
        elif isinstance(stmt, A.VarDeclStmt):
            self._lower_vardecl(stmt)
        elif isinstance(stmt, A.AssignStmt):
            self._lower_assign(stmt.name, stmt.value, stmt.location)
        elif isinstance(stmt, A.StoreStmt):
            ptr = self._lower_expr(stmt.pointer)
            value = self._lower_expr(stmt.value)
            self.emit(StoreInst, stmt.location, pointer=ptr, value=value)
        elif isinstance(stmt, A.IndexStoreStmt):
            # Arrays are monolithic (paper §6): the index is evaluated for
            # its side effects only; the store hits the whole object.
            base = self._lower_expr(stmt.base)
            self._lower_expr(stmt.index)
            value = self._lower_expr(stmt.value)
            self.emit(StoreInst, stmt.location, pointer=base, value=value)
        elif isinstance(stmt, A.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, A.WhileStmt):
            raise LoweringError(
                f"{stmt.location}: while-loop survived unrolling (internal error)"
            )
        elif isinstance(stmt, A.ReturnStmt):
            value = self._lower_expr(stmt.value) if stmt.value is not None else None
            self.emit(ReturnInst, stmt.location, value=value)
            if value is not None:
                self.out.returns.append((value, self.guard))
        elif isinstance(stmt, A.ExprStmt):
            self._lower_expr(stmt.expr, effect_only=True)
        elif isinstance(stmt, A.ForkStmt):
            callee = self._callee_value(stmt.callee, stmt.location)
            args = [self._lower_expr(a) for a in stmt.args]
            self.emit(ForkInst, stmt.location, thread=stmt.thread, callee=callee, args=args)
        elif isinstance(stmt, A.JoinStmt):
            self.emit(JoinInst, stmt.location, thread=stmt.thread)
        else:  # pragma: no cover - defensive
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")

    def _lower_vardecl(self, stmt: A.VarDeclStmt) -> None:
        if stmt.name in self.addr_taken:
            obj = MemObject(f"{self.out.name}.{stmt.name}", "stack")
            self.stack_objs.setdefault(stmt.name, obj)
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                ptr = self._slot_pointer(stmt.name, stmt.location)
                self.emit(StoreInst, stmt.location, pointer=ptr, value=value)
            return
        if stmt.init is not None:
            self._lower_assign(stmt.name, stmt.init, stmt.location)
        else:
            # Uninitialized: an opaque value (no defining flow).
            var = self.namer.fresh(stmt.name, source_name=stmt.name)
            self.env[stmt.name] = var

    def _lower_assign(self, name: str, value_expr: A.Expr, location: Location) -> None:
        value = self._lower_expr(value_expr)
        if name in self.addr_taken or name in self.module.globals:
            ptr = self._slot_pointer(name, location)
            self.emit(StoreInst, location, pointer=ptr, value=value)
            return
        dst = self.namer.fresh(name, source_name=name)
        inst = self.emit(CopyInst, location, dst=dst, src=value)
        si = self._symint_of(value)
        if si is not None:
            self.symint[dst] = si
        sb = self.symbool.get(value) if isinstance(value, Variable) else None
        if sb is not None:
            self.symbool[dst] = sb
        self.env[name] = dst

    def _lower_if(self, stmt: A.IfStmt) -> None:
        cond = self._lower_condition(stmt.cond)
        outer_guard = self.guard
        before_env = dict(self.env)

        self.guard = and_(outer_guard, cond)
        self._lower_block(stmt.then_body)
        then_env = self.env

        self.env = dict(before_env)
        self.guard = and_(outer_guard, not_(cond))
        if stmt.else_body is not None:
            self._lower_block(stmt.else_body)
        else_env = self.env

        self.guard = outer_guard
        merged: Dict[str, Value] = {}
        for name in before_env:
            tv = then_env.get(name, before_env[name])
            ev = else_env.get(name, before_env[name])
            if tv is ev:
                merged[name] = tv
                continue
            dst = self.namer.fresh(name, source_name=name)
            self.emit(
                PhiInst,
                stmt.location,
                dst=dst,
                incomings=[(tv, cond), (ev, not_(cond))],
            )
            merged[name] = dst
        self.env = merged

    # ----- conditions -----------------------------------------------------

    _CMP_BUILDERS = {
        "<": lambda a, b: lt(a, b),
        "<=": lambda a, b: le(a, b),
        ">": lambda a, b: lt(b, a),
        ">=": lambda a, b: le(b, a),
        "==": lambda a, b: eq(a, b),
        "!=": lambda a, b: ne(a, b),
    }

    def _lower_condition(self, expr: A.Expr) -> BoolTerm:
        """Lower a branch condition to an SMT term, preserving correlation:
        conditions over the same externs/values yield identical atoms."""
        if isinstance(expr, A.UnaryExpr) and expr.op == "!":
            return not_(self._lower_condition(expr.operand))
        if isinstance(expr, A.BinaryExpr):
            if expr.op == "&&":
                return and_(self._lower_condition(expr.lhs), self._lower_condition(expr.rhs))
            if expr.op == "||":
                return or_(self._lower_condition(expr.lhs), self._lower_condition(expr.rhs))
            if expr.op in self._CMP_BUILDERS:
                lhs = self._lower_expr(expr.lhs)
                rhs = self._lower_expr(expr.rhs)
                li, ri = self._symint_of(lhs), self._symint_of(rhs)
                if li is not None and ri is not None:
                    return self._CMP_BUILDERS[expr.op](li, ri)
                # Opaque comparison: a fresh-but-deterministic atom keyed by
                # the compared SSA values, so repeated tests correlate.
                return bool_var(f"cmp!{expr.op}!{lhs!r}!{rhs!r}")
        value = self._lower_expr(expr)
        return self._cond_of_value(value)

    # ----- expressions -----------------------------------------------------

    def _callee_value(self, name: str, location: Location) -> Value:
        if name in self.func_names:
            return FunctionRef(name)
        return self._read_var(name, location)

    def _read_var(self, name: str, location: Location) -> Value:
        if name in self.module.externs:
            return self.module.externs[name]
        if name in self.func_names:
            return FunctionRef(name)
        if name in self.addr_taken or name in self.module.globals:
            ptr = self._slot_pointer(name, location)
            dst = self.namer.fresh(f"ld.{name}")
            self.emit(LoadInst, location, dst=dst, pointer=ptr)
            return dst
        value = self.env.get(name)
        if value is None:
            # Read of a never-written variable: opaque value.
            value = self.namer.fresh(name, source_name=name)
            self.env[name] = value
        return value

    def _lower_expr(self, expr: A.Expr, effect_only: bool = False) -> Value:
        if isinstance(expr, A.NumberExpr):
            return IntConstant(expr.value)
        if isinstance(expr, A.NullExpr):
            return NULL
        if isinstance(expr, A.VarExpr):
            return self._read_var(expr.name, expr.location)
        if isinstance(expr, A.AddrOfExpr):
            return self._slot_pointer(expr.name, expr.location)
        if isinstance(expr, A.DerefExpr):
            ptr = self._lower_expr(expr.operand)
            dst = self.namer.fresh("ld")
            self.emit(LoadInst, expr.location, dst=dst, pointer=ptr)
            return dst
        if isinstance(expr, A.IndexExpr):
            # Monolithic arrays: p[i] loads the whole object behind p.
            base = self._lower_expr(expr.base)
            self._lower_expr(expr.index)
            dst = self.namer.fresh("ld")
            self.emit(LoadInst, expr.location, dst=dst, pointer=base)
            return dst
        if isinstance(expr, A.UnaryExpr):
            operand = self._lower_expr(expr.operand)
            dst = self.namer.fresh("t")
            if expr.op == "-":
                self.emit(
                    BinOpInst, expr.location, dst=dst, op="-", lhs=IntConstant(0), rhs=operand
                )
                si = self._symint_of(operand)
                if si is not None:
                    self.symint[dst] = int_const(0) - si
            else:  # '!'
                self.emit(
                    CmpInst, expr.location, dst=dst, op="==", lhs=operand, rhs=IntConstant(0)
                )
                self.symbool[dst] = not_(self._cond_of_value(operand))
            return dst
        if isinstance(expr, A.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, A.CallExpr):
            return self._lower_call(expr, effect_only)
        raise LoweringError(f"unhandled expression {type(expr).__name__}")

    def _lower_binary(self, expr: A.BinaryExpr) -> Value:
        if expr.op in ("&&", "||"):
            cond = self._lower_condition(expr)
            dst = self.namer.fresh("t")
            self.emit(
                CmpInst, expr.location, dst=dst, op="!=", lhs=IntConstant(0), rhs=IntConstant(0)
            )
            self.symbool[dst] = cond
            return dst
        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        dst = self.namer.fresh("t")
        if expr.op in self._CMP_BUILDERS:
            self.emit(CmpInst, expr.location, dst=dst, op=expr.op, lhs=lhs, rhs=rhs)
            li, ri = self._symint_of(lhs), self._symint_of(rhs)
            if li is not None and ri is not None:
                self.symbool[dst] = self._CMP_BUILDERS[expr.op](li, ri)
            else:
                self.symbool[dst] = bool_var(f"cmp!{expr.op}!{lhs!r}!{rhs!r}")
            return dst
        self.emit(BinOpInst, expr.location, dst=dst, op=expr.op, lhs=lhs, rhs=rhs)
        li, ri = self._symint_of(lhs), self._symint_of(rhs)
        if li is not None and ri is not None:
            if expr.op == "+":
                self.symint[dst] = li + ri
            elif expr.op == "-":
                self.symint[dst] = li - ri
        return dst

    def _lower_call(self, expr: A.CallExpr, effect_only: bool) -> Value:
        name = expr.callee
        loc = expr.location
        if name == "malloc":
            dst = self.namer.fresh("p")
            inst = self.emit(AllocInst, loc, dst=dst, obj=None)
            inst.obj = MemObject(f"o{inst.label}", "heap")  # named by alloc site
            return dst
        if name == "free":
            ptr = self._lower_expr(expr.args[0])
            self.emit(FreeInst, loc, pointer=ptr)
            return IntConstant(0)
        if name == "nondet":
            dst = self.namer.fresh("nd")
            self.emit(SourceInst, loc, dst=dst, kind="nondet")
            return dst
        if name == "taint_source":
            dst = self.namer.fresh("taint")
            self.emit(SourceInst, loc, dst=dst, kind="taint")
            return dst
        if name == "print":
            args = [self._lower_expr(a) for a in expr.args]
            self.emit(SinkInst, loc, kind="print", args=args)
            return IntConstant(0)
        if name == "taint_sink":
            args = [self._lower_expr(a) for a in expr.args]
            self.emit(SinkInst, loc, kind="taint_sink", args=args)
            return IntConstant(0)
        if name == "lock":
            self.emit(LockInst, loc, mutex=_mutex_name(expr))
            return IntConstant(0)
        if name == "unlock":
            self.emit(UnlockInst, loc, mutex=_mutex_name(expr))
            return IntConstant(0)
        if name == "signal":
            self.emit(SignalInst, loc, cond=_mutex_name(expr))
            return IntConstant(0)
        if name == "wait":
            self.emit(WaitInst, loc, cond=_mutex_name(expr))
            return IntConstant(0)
        callee = self._callee_value(name, loc)
        args = [self._lower_expr(a) for a in expr.args]
        dst = None if effect_only else self.namer.fresh("ret")
        self.emit(CallInst, loc, dst=dst, callee=callee, args=args)
        return dst if dst is not None else IntConstant(0)


def _mutex_name(expr: A.CallExpr) -> str:
    if expr.args and isinstance(expr.args[0], A.VarExpr):
        return expr.args[0].name
    return f"mutex@{expr.location.line}"
