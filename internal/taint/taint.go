// Package taint implements the FlowDroid-style static data-flow analysis
// DyDroid runs on intercepted DEX binaries (paper §III-C). Unlike the
// stock FlowDroid, which needs a manifest and layout resources to find
// entry points, this analysis treats every method of every class as a
// potential entry point — the paper's modification for analyzing loaded
// code whose entry is an arbitrary class.
//
// Sources are the privacy APIs and content-provider URIs of
// internal/android's catalog (the 18 data types of Table X); sinks are the
// SuSi-style sink list. Propagation is interprocedural via fixed-point
// method summaries, flow-insensitive across fields, flow-sensitive within
// method bodies.
package taint

import (
	"sort"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/dex"
)

// Leak is one detected source-to-sink flow.
type Leak struct {
	Type     android.DataType
	Category android.Category
	Sink     dex.MethodRef
	// Class and Method locate the code where tainted data reached the
	// sink; Class drives responsible-entity attribution.
	Class  string
	Method string
}

// Result is the analysis outcome for one binary.
type Result struct {
	Leaks []Leak
	// SourcesSeen lists the data types read anywhere in the binary, even
	// if they never reach a sink (used by the "reads settings only"
	// classification of the Google Ads library).
	SourcesSeen map[android.DataType]bool
}

// LeakedTypes returns the distinct leaked data types, sorted.
func (r *Result) LeakedTypes() []android.DataType {
	seen := make(map[android.DataType]bool)
	for _, l := range r.Leaks {
		seen[l.Type] = true
	}
	out := make([]android.DataType, 0, len(seen))
	for dt := range seen {
		out = append(out, dt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LeakClasses returns the distinct classes whose code leaked the given
// type.
func (r *Result) LeakClasses(dt android.DataType) []string {
	seen := make(map[string]bool)
	for _, l := range r.Leaks {
		if l.Type == dt && !seen[l.Class] {
			seen[l.Class] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// taintSet is a small set of data types.
type taintSet map[android.DataType]bool

func (s taintSet) add(other taintSet) bool {
	changed := false
	for dt := range other {
		if !s[dt] {
			s[dt] = true
			changed = true
		}
	}
	return changed
}

func (s taintSet) clone() taintSet {
	c := make(taintSet, len(s))
	for dt := range s {
		c[dt] = true
	}
	return c
}

// summary is the interprocedural abstraction of one method.
type summary struct {
	// ret is the taint of the return value assuming untainted parameters.
	ret taintSet
	// paramToRet marks parameters whose taint flows to the return value.
	paramToRet []bool
	// paramToSink marks parameters whose taint reaches a sink inside the
	// method (transitively).
	paramToSink []bool
}

// analyzer carries the fixed-point state.
type analyzer struct {
	file     *dex.File
	methods  map[dex.MethodRef]*methodInfo
	fieldTnt map[dex.FieldRef]taintSet
	leaks    []Leak
	leakSeen map[Leak]bool
	seen     taintSet
}

type methodInfo struct {
	cls *dex.Class
	m   *dex.Method
	sum *summary
}

// MaxPasses bounds the fixed-point iteration; summaries for realistic
// loaded code converge in two or three passes.
const MaxPasses = 10

// Analyze runs the taint analysis over one decoded binary.
func Analyze(df *dex.File) *Result {
	a := &analyzer{
		file:     df,
		methods:  make(map[dex.MethodRef]*methodInfo),
		fieldTnt: make(map[dex.FieldRef]taintSet),
		leakSeen: make(map[Leak]bool),
		seen:     make(taintSet),
	}
	for _, c := range df.Classes {
		for _, m := range c.Methods {
			ref := m.Ref(c)
			a.methods[ref] = &methodInfo{cls: c, m: m, sum: &summary{
				ret:         make(taintSet),
				paramToRet:  make([]bool, len(m.Params)+1),
				paramToSink: make([]bool, len(m.Params)+1),
			}}
		}
	}
	// Fixed point over method summaries; leaks are collected on the final
	// pass (when summaries are stable, so no duplicates).
	for pass := 0; pass < MaxPasses; pass++ {
		changed := false
		for _, mi := range a.methods {
			if a.analyzeMethod(mi, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, mi := range a.methods {
		a.analyzeMethod(mi, true)
	}
	sort.Slice(a.leaks, func(i, j int) bool {
		li, lj := a.leaks[i], a.leaks[j]
		if li.Class != lj.Class {
			return li.Class < lj.Class
		}
		if li.Type != lj.Type {
			return li.Type < lj.Type
		}
		return li.Method < lj.Method
	})
	return &Result{Leaks: a.leaks, SourcesSeen: a.seen}
}

// regState is the per-register abstract value: a taint set plus an
// optional known string constant (for provider-URI matching) and
// parameter origin markers for summary construction.
type regState struct {
	taint  taintSet
	strval string
	// params marks which incoming parameters' taint this value carries.
	params map[int]bool
}

func emptyReg() regState { return regState{taint: make(taintSet)} }

func (r regState) clone() regState {
	n := regState{taint: r.taint.clone(), strval: r.strval}
	if r.params != nil {
		n.params = make(map[int]bool, len(r.params))
		for p := range r.params {
			n.params[p] = true
		}
	}
	return n
}

func mergeReg(a, b regState) regState {
	out := a.clone()
	out.taint.add(b.taint)
	if out.strval != b.strval {
		out.strval = ""
	}
	for p := range b.params {
		if out.params == nil {
			out.params = make(map[int]bool)
		}
		out.params[p] = true
	}
	return out
}

// analyzeMethod interprets the method body abstractly. When record is
// true, leaks are emitted; the return value reports whether the method's
// summary or any field taint changed.
func (a *analyzer) analyzeMethod(mi *methodInfo, record bool) bool {
	m := mi.m
	if len(m.Code) == 0 {
		return false
	}
	changed := false
	regs := make([]regState, m.Registers)
	for i := range regs {
		regs[i] = emptyReg()
	}
	// Arguments land in the first registers; mark parameter origins.
	nArgs := len(m.Params)
	if m.Flags&dex.ACCStatic == 0 {
		nArgs++
	}
	for i := 0; i < nArgs && i < len(regs); i++ {
		regs[i].params = map[int]bool{i: true}
	}
	var lastResult regState = emptyReg()

	// Worklist over basic blocks with register-state merging keeps the
	// abstraction flow-sensitive across branches without executing loops.
	g := dex.BuildCFG(m)
	in := make([]([]regState), len(g.Blocks))
	in[0] = cloneRegs(regs)
	work := []int{0}
	visited := make(map[int]int)
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		if visited[bi] > 2 { // loop bound: two visits reach the fixpoint for our lattice
			continue
		}
		visited[bi]++
		cur := cloneRegs(in[bi])
		b := g.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			a.step(mi, m.Code[pc], cur, &lastResult, &changed, record)
		}
		for _, succ := range b.Succs {
			if in[succ] == nil {
				in[succ] = cloneRegs(cur)
				work = append(work, succ)
			} else if mergeInto(in[succ], cur) {
				work = append(work, succ)
			}
		}
	}
	return changed
}

func cloneRegs(rs []regState) []regState {
	out := make([]regState, len(rs))
	for i, r := range rs {
		out[i] = r.clone()
	}
	return out
}

// mergeInto merges src into dst, reporting change.
func mergeInto(dst, src []regState) bool {
	changed := false
	for i := range dst {
		before := len(dst[i].taint)
		beforeParams := len(dst[i].params)
		merged := mergeReg(dst[i], src[i])
		if len(merged.taint) != before || len(merged.params) != beforeParams {
			changed = true
		}
		dst[i] = merged
	}
	return changed
}

// step abstractly executes one instruction.
func (a *analyzer) step(mi *methodInfo, in dex.Instruction, regs []regState, lastResult *regState, changed *bool, record bool) {
	sum := mi.sum
	switch in.Op {
	case dex.OpConst:
		regs[in.A] = emptyReg()
	case dex.OpConstString:
		regs[in.A] = emptyReg()
		regs[in.A].strval = in.Str
	case dex.OpMove:
		regs[in.A] = regs[in.B].clone()
	case dex.OpMoveResult:
		regs[in.A] = lastResult.clone()
	case dex.OpNewInstance, dex.OpNewArray, dex.OpArrayLength, dex.OpInstanceOf:
		regs[in.A] = emptyReg()
	case dex.OpAdd, dex.OpSub, dex.OpMul, dex.OpDiv, dex.OpXor:
		regs[in.A] = mergeReg(regs[in.B], regs[in.C])
		regs[in.A].strval = ""
	case dex.OpArrayGet:
		regs[in.A] = mergeReg(regs[in.B], regs[in.C])
	case dex.OpArrayPut:
		regs[in.B] = mergeReg(regs[in.B], regs[in.A])
	case dex.OpIGet, dex.OpSGet:
		regs[in.A] = emptyReg()
		if t, ok := a.fieldTnt[in.Field]; ok {
			regs[in.A].taint = t.clone()
		}
	case dex.OpIPut, dex.OpSPut:
		t, ok := a.fieldTnt[in.Field]
		if !ok {
			t = make(taintSet)
			a.fieldTnt[in.Field] = t
		}
		if t.add(regs[in.A].taint) {
			*changed = true
		}
	case dex.OpReturn:
		if sum.ret.add(regs[in.A].taint) {
			*changed = true
		}
		for p := range regs[in.A].params {
			if p < len(sum.paramToRet) && !sum.paramToRet[p] {
				sum.paramToRet[p] = true
				*changed = true
			}
		}
	default:
		if in.Op.IsInvoke() {
			a.stepInvoke(mi, in, regs, lastResult, changed, record)
		}
	}
}

func (a *analyzer) stepInvoke(mi *methodInfo, in dex.Instruction, regs []regState, lastResult *regState, changed *bool, record bool) {
	sum := mi.sum
	*lastResult = emptyReg()

	// Source APIs taint the result.
	if dt, ok := android.SourceType(in.Method); ok {
		a.seen[dt] = true
		lastResult.taint[dt] = true
		return
	}
	// Content-provider query: URI argument decides the type. The real
	// query has the resolver receiver at Args[0] and the URI at Args[1].
	if in.Method.Class == android.ResolverQuery.Class && in.Method.Name == android.ResolverQuery.Name {
		for _, r := range in.Args {
			if uri := regs[r].strval; uri != "" {
				if dt, ok := android.ProviderType(uri); ok {
					a.seen[dt] = true
					lastResult.taint[dt] = true
				}
			}
		}
		return
	}
	// Sinks: any tainted argument leaks.
	if android.IsSink(in.Method) {
		for _, r := range in.Args {
			for dt := range regs[r].taint {
				a.recordLeak(mi, in.Method, dt, record)
			}
			for p := range regs[r].params {
				if p < len(sum.paramToSink) && !sum.paramToSink[p] {
					sum.paramToSink[p] = true
					*changed = true
				}
			}
		}
		return
	}
	// App-internal call: apply the callee summary.
	if callee, ok := a.lookupCallee(in.Method); ok {
		cs := callee.sum
		lastResult.taint.add(cs.ret)
		for ai, r := range in.Args {
			if ai < len(cs.paramToRet) && cs.paramToRet[ai] {
				lastResult.taint.add(regs[r].taint)
				for p := range regs[r].params {
					if lastResult.params == nil {
						lastResult.params = make(map[int]bool)
					}
					lastResult.params[p] = true
				}
			}
			if ai < len(cs.paramToSink) && cs.paramToSink[ai] {
				for dt := range regs[r].taint {
					a.recordLeak(mi, in.Method, dt, record)
				}
				for p := range regs[r].params {
					if p < len(sum.paramToSink) && !sum.paramToSink[p] {
						sum.paramToSink[p] = true
						*changed = true
					}
				}
			}
		}
		return
	}
	// Unknown external call: taint flows through conservatively
	// (tainted arg -> tainted result).
	for _, r := range in.Args {
		lastResult.taint.add(regs[r].taint)
	}
}

// lookupCallee resolves an invoked method to its definition in this
// binary, trying the exact signature first, then by name (virtual
// dispatch across the file's classes).
func (a *analyzer) lookupCallee(ref dex.MethodRef) (*methodInfo, bool) {
	if mi, ok := a.methods[ref]; ok {
		return mi, true
	}
	for cand, mi := range a.methods {
		if cand.Class == ref.Class && cand.Name == ref.Name {
			return mi, true
		}
	}
	return nil, false
}

func (a *analyzer) recordLeak(mi *methodInfo, sink dex.MethodRef, dt android.DataType, record bool) {
	if !record {
		return
	}
	l := Leak{
		Type:     dt,
		Category: android.CategoryOf[dt],
		Sink:     sink,
		Class:    mi.cls.Name,
		Method:   mi.m.Name,
	}
	if !a.leakSeen[l] {
		a.leakSeen[l] = true
		a.leaks = append(a.leaks, l)
	}
}
