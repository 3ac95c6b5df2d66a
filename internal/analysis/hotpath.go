package analysis

import (
	"go/ast"
	"go/types"
)

// HotPath enforces the ≤1-alloc contract on the publish/fan-out/read spine
// (docs/BENCHMARKS.md): functions annotated //vet:hotpath in their doc
// comment must not introduce per-call heap allocations through the easy-to-
// miss constructs:
//
//   - any call into package fmt (Sprintf, Errorf, ... all allocate),
//   - non-constant string concatenation (+ / += on strings),
//   - map composite literals and make(map...),
//   - function literals that capture enclosing variables (the closure and
//     its captured variables move to the heap).
//
// It also keeps them off the runtime's syscall entry: a call to any
// package-level function of package syscall other than RawSyscall and
// RawSyscall6 (Read, Write, Syscall, Syscall6, EpollWait, ...) is flagged.
// That entry wakes a parked sysmon thread on the first syscall after every
// idle spell — a thread wake-up per paced message — so the delivery path's
// reads, writes and harvests are raw syscalls on non-blocking descriptors
// (internal/netpoll's package doc).
//
// The benchmarks pin allocs/op only on the paths they drive; the annotation
// extends the same budget to every branch of the marked functions, including
// error paths the benchmarks never reach. Allocations that are intentional
// (e.g. constructing an error about to leave the hot path) carry a
// //vet:ignore hotpath -- <reason> directive.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//vet:hotpath functions must not allocate via fmt, string concat, map literals, or capturing closures, nor enter the runtime's syscall path",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathAnnotation(fn) {
				continue
			}
			hc := &hotpathChecker{pass: pass, fn: fn}
			hc.walk(fn.Body)
		}
	}
}

type hotpathChecker struct {
	pass *Pass
	fn   *ast.FuncDecl
}

func (hc *hotpathChecker) walk(body *ast.BlockStmt) {
	info := hc.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f := calleeOf(info, n)
			if f != nil && pkgPathOf(f) == "fmt" {
				hc.pass.Reportf(n.Pos(), "hot path calls fmt.%s, which allocates", f.Name())
				return true
			}
			if entersSyscall(f) {
				hc.pass.Reportf(n.Pos(), "hot path calls syscall.%s, which enters the runtime's syscall path (wakes sysmon); use syscall.RawSyscall on a non-blocking descriptor", f.Name())
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(n.Args) > 0 {
					if isMapType(info.Types[n.Args[0]].Type) {
						hc.pass.Reportf(n.Pos(), "hot path allocates a map with make")
					}
				}
			}

		case *ast.BinaryExpr:
			if hc.isAllocatingConcat(n) {
				hc.pass.Reportf(n.Pos(), "hot path concatenates strings, which allocates")
				return false // one report per concat chain
			}

		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if t := info.Types[n.Lhs[0]].Type; t != nil && isStringType(t) {
					hc.pass.Reportf(n.Pos(), "hot path concatenates strings with +=, which allocates")
				}
			}

		case *ast.CompositeLit:
			if t := info.Types[n].Type; isMapType(t) {
				hc.pass.Reportf(n.Pos(), "hot path allocates a map literal")
			}

		case *ast.FuncLit:
			if v := hc.capturedVar(n); v != nil {
				hc.pass.Reportf(n.Pos(), "hot path closure captures %q, forcing a heap allocation", v.Name())
				return false
			}
			// Non-capturing literals compile to plain functions; still scan
			// their bodies for the other constructs.
			return true
		}
		return true
	})
}

// isAllocatingConcat reports whether e is a string + that survives to
// runtime (non-constant result).
func (hc *hotpathChecker) isAllocatingConcat(e *ast.BinaryExpr) bool {
	if e.Op.String() != "+" {
		return false
	}
	tv, ok := hc.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil // constant-folded concats cost nothing at runtime
}

// capturedVar returns a variable the literal captures from the enclosing
// function, or nil for a capture-free literal.
func (hc *hotpathChecker) capturedVar(lit *ast.FuncLit) *types.Var {
	info := hc.pass.TypesInfo
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function (parameters,
		// receiver, or locals) but before/outside this literal.
		if v.Pos() >= hc.fn.Pos() && v.Pos() < lit.Pos() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// entersSyscall reports whether f is a package-level function of package
// syscall that goes through the runtime's syscall entry: all but the raw
// ones.
func entersSyscall(f *types.Func) bool {
	if pkgPathOf(f) != "syscall" || f.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return f.Name() != "RawSyscall" && f.Name() != "RawSyscall6"
}
