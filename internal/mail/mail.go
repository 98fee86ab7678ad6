// Package mail implements the Malware Analysis Intermediate Language
// (MAIL) of Alam et al. — the platform-independent representation
// DroidNative lifts binaries into before matching. Translators exist for
// both binary worlds of this system: SDEX bytecode (FromDex) and SELF
// ARM-flavoured native code (FromNative), mirroring DroidNative's ability
// to analyze "both bytecode and native code binaries" (paper §III-C).
//
// A MAIL Program is a set of functions; each function is a control-flow
// graph whose blocks carry the sequence of MAIL statement patterns — the
// annotation that turns a CFG into DroidNative's ACFG.
package mail

import (
	"sort"
	"strings"

	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
)

// Pattern is one MAIL statement pattern.
type Pattern byte

// The MAIL statement patterns.
const (
	// PatAssign covers data movement and arithmetic.
	PatAssign Pattern = 'A'
	// PatControl is a conditional transfer.
	PatControl Pattern = 'C'
	// PatCall is an intra-program function call.
	PatCall Pattern = 'F'
	// PatLib is a library/API/system call.
	PatLib Pattern = 'L'
	// PatJump is an unconditional transfer.
	PatJump Pattern = 'J'
	// PatTest sets condition flags from a comparison.
	PatTest Pattern = 'T'
	// PatStack is a stack push/pop.
	PatStack Pattern = 'S'
	// PatHalt ends execution of the function (return/throw).
	PatHalt Pattern = 'H'
	// PatUnknown covers anything unclassified.
	PatUnknown Pattern = 'U'
)

// Stmt is one MAIL statement.
type Stmt struct {
	Pattern Pattern
	// Detail carries auxiliary text (call target, syscall number) for
	// reporting; matching uses only the pattern.
	Detail string
}

// Block is one annotated basic block.
type Block struct {
	Index int
	Stmts []Stmt
	Succs []int
}

// Sig returns the block's pattern signature, e.g. "AALC".
func (b *Block) Sig() string {
	var sb strings.Builder
	for _, s := range b.Stmts {
		sb.WriteByte(byte(s.Pattern))
	}
	return sb.String()
}

// Function is one translated function with its CFG.
type Function struct {
	Name   string
	Blocks []*Block
}

// Program is one translated binary.
type Program struct {
	// Source labels the binary kind: "dex" or the native arch.
	Source    string
	Functions []*Function
}

// FromDex lifts SDEX bytecode into MAIL.
func FromDex(df *dex.File) *Program {
	p := &Program{Source: "dex"}
	for _, c := range df.Classes {
		for _, m := range c.Methods {
			if len(m.Code) == 0 {
				continue
			}
			fn := &Function{Name: c.Name + "." + m.Name}
			g := dex.BuildCFG(m)
			for _, bb := range g.Blocks {
				blk := &Block{Index: bb.Index, Succs: append([]int(nil), bb.Succs...)}
				for _, in := range bb.Instructions(m) {
					if st, ok := liftDexInstr(in); ok {
						blk.Stmts = append(blk.Stmts, st)
					}
				}
				fn.Blocks = append(fn.Blocks, blk)
			}
			p.Functions = append(p.Functions, fn)
		}
	}
	return p
}

func liftDexInstr(in dex.Instruction) (Stmt, bool) {
	switch in.Op {
	case dex.OpNop:
		return Stmt{}, false
	case dex.OpConst, dex.OpConstString, dex.OpMove, dex.OpMoveResult,
		dex.OpNewInstance, dex.OpNewArray, dex.OpIGet, dex.OpIPut,
		dex.OpSGet, dex.OpSPut, dex.OpAdd, dex.OpSub, dex.OpMul,
		dex.OpDiv, dex.OpXor, dex.OpArrayGet, dex.OpArrayPut,
		dex.OpArrayLength, dex.OpCheckCast, dex.OpInstanceOf:
		return Stmt{Pattern: PatAssign}, true
	case dex.OpIfEq, dex.OpIfNe, dex.OpIfLt, dex.OpIfGe, dex.OpIfEqz, dex.OpIfNez:
		return Stmt{Pattern: PatControl}, true
	case dex.OpGoto:
		return Stmt{Pattern: PatJump}, true
	case dex.OpReturn, dex.OpReturnVoid, dex.OpThrow:
		return Stmt{Pattern: PatHalt}, true
	default:
		if in.Op.IsInvoke() {
			if isFrameworkRef(in.Method.Class) {
				return Stmt{Pattern: PatLib, Detail: in.Method.Class + "." + in.Method.Name}, true
			}
			return Stmt{Pattern: PatCall, Detail: in.Method.Class + "." + in.Method.Name}, true
		}
		return Stmt{Pattern: PatUnknown}, true
	}
}

func isFrameworkRef(class string) bool {
	for _, p := range []string{"java.", "javax.", "android.", "dalvik.", "org.apache."} {
		if strings.HasPrefix(class, p) {
			return true
		}
	}
	return false
}

// FromNative lifts a SELF library into MAIL. Functions are delimited by
// symbol entries; each extends to the next symbol (or the end of code).
func FromNative(lib *nativebin.Library) *Program {
	p := &Program{Source: "native-" + lib.Arch}
	if len(lib.Code) == 0 {
		return p
	}
	// Determine function extents from symbol entries.
	type extent struct {
		name       string
		start, end int
	}
	syms := append([]nativebin.Symbol(nil), lib.Symbols...)
	sort.Slice(syms, func(i, j int) bool { return syms[i].Entry < syms[j].Entry })
	var extents []extent
	if len(syms) == 0 || syms[0].Entry > 0 {
		extents = append(extents, extent{name: "_start", start: 0, end: len(lib.Code)})
	}
	for i, s := range syms {
		end := len(lib.Code)
		if i+1 < len(syms) {
			end = syms[i+1].Entry
		}
		if len(extents) > 0 {
			extents[len(extents)-1].end = min(extents[len(extents)-1].end, s.Entry)
		}
		extents = append(extents, extent{name: s.Name, start: s.Entry, end: end})
	}
	for _, ext := range extents {
		if ext.end <= ext.start {
			continue
		}
		p.Functions = append(p.Functions, liftNativeFunc(lib, ext.name, ext.start, ext.end))
	}
	return p
}

func liftNativeFunc(lib *nativebin.Library, name string, start, end int) *Function {
	code := lib.Code[start:end]
	// Basic blocks: leaders at 0, branch targets (within extent), and
	// instructions after branches/returns.
	leaders := map[int]bool{0: true}
	for pc, in := range code {
		if in.Op.IsBranch() {
			t := in.Target - start
			if t >= 0 && t < len(code) {
				leaders[t] = true
			}
		}
		if (in.Op.IsBranch() || in.Op == nativebin.Ret) && pc+1 < len(code) {
			leaders[pc+1] = true
		}
	}
	starts := make([]int, 0, len(leaders))
	for pc := range leaders {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	blockAt := make(map[int]int, len(starts))
	for i, s := range starts {
		blockAt[s] = i
	}
	fn := &Function{Name: name}
	for i, s := range starts {
		e := len(code)
		if i+1 < len(starts) {
			e = starts[i+1]
		}
		blk := &Block{Index: i}
		for _, in := range code[s:e] {
			if st, ok := liftNativeInstr(in); ok {
				blk.Stmts = append(blk.Stmts, st)
			}
		}
		last := code[e-1]
		switch {
		case last.Op == nativebin.B:
			if t, ok := blockAt[last.Target-start]; ok {
				blk.Succs = append(blk.Succs, t)
			}
		case last.Op.IsConditional():
			if t, ok := blockAt[last.Target-start]; ok {
				blk.Succs = append(blk.Succs, t)
			}
			if e < len(code) {
				blk.Succs = append(blk.Succs, blockAt[e])
			}
		case last.Op == nativebin.Ret:
			// no successors
		default:
			if e < len(code) {
				blk.Succs = append(blk.Succs, blockAt[e])
			}
		}
		fn.Blocks = append(fn.Blocks, blk)
	}
	return fn
}

func liftNativeInstr(in nativebin.Instr) (Stmt, bool) {
	switch in.Op {
	case nativebin.NopN:
		return Stmt{}, false
	case nativebin.MovI, nativebin.MovR, nativebin.Ldrb, nativebin.Strb,
		nativebin.AddR, nativebin.SubR, nativebin.XorR, nativebin.AndR,
		nativebin.OrrR, nativebin.AddI:
		return Stmt{Pattern: PatAssign}, true
	case nativebin.Cmp, nativebin.CmpI:
		return Stmt{Pattern: PatTest}, true
	case nativebin.B:
		return Stmt{Pattern: PatJump}, true
	case nativebin.Beq, nativebin.Bne, nativebin.Blt, nativebin.Bge:
		return Stmt{Pattern: PatControl}, true
	case nativebin.Bl:
		return Stmt{Pattern: PatCall, Detail: in.Sym}, true
	case nativebin.Svc:
		return Stmt{Pattern: PatLib, Detail: sysName(in.Imm)}, true
	case nativebin.Ret:
		return Stmt{Pattern: PatHalt}, true
	case nativebin.Push, nativebin.Pop:
		return Stmt{Pattern: PatStack}, true
	default:
		return Stmt{Pattern: PatUnknown}, true
	}
}

func sysName(num int64) string {
	switch num {
	case nativebin.SysExit:
		return "exit"
	case nativebin.SysRead:
		return "read"
	case nativebin.SysWrite:
		return "write"
	case nativebin.SysOpen:
		return "open"
	case nativebin.SysClose:
		return "close"
	case nativebin.SysUnlink:
		return "unlink"
	case nativebin.SysTime:
		return "time"
	case nativebin.SysSetuid:
		return "setuid"
	case nativebin.SysGetuid:
		return "getuid"
	case nativebin.SysPtrace:
		return "ptrace"
	case nativebin.SysRename:
		return "rename"
	case nativebin.SysConnect:
		return "connect"
	case nativebin.SysSend:
		return "send"
	case nativebin.SysFindProc:
		return "findproc"
	default:
		return "sys?"
	}
}
