package dex

import "sort"

// BasicBlock is a maximal straight-line instruction sequence within a
// method body. Instruction indices are into Method.Code; Succs are indices
// into CFG.Blocks.
type BasicBlock struct {
	Index int // position within CFG.Blocks
	Start int // first instruction index (inclusive)
	End   int // last instruction index (exclusive)
	Succs []int
	Preds []int
}

// CFG is the control-flow graph of a single method.
type CFG struct {
	Method *Method
	Blocks []*BasicBlock
}

// BuildCFG partitions the method body into basic blocks and links
// successor edges. A method with no code yields an empty graph.
func BuildCFG(m *Method) *CFG {
	g := &CFG{Method: m}
	if len(m.Code) == 0 {
		return g
	}
	// Leaders: instruction 0, branch targets, instructions following
	// branches and terminators.
	leaders := map[int]bool{0: true}
	for pc, in := range m.Code {
		if in.Op.IsBranch() {
			leaders[in.Target] = true
		}
		if (in.Op.IsBranch() || in.Op.IsTerminator()) && pc+1 < len(m.Code) {
			leaders[pc+1] = true
		}
	}
	starts := make([]int, 0, len(leaders))
	for pc := range leaders {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	blockAt := make(map[int]int, len(starts)) // start pc -> block index
	for i, s := range starts {
		end := len(m.Code)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		blockAt[s] = i
		g.Blocks = append(g.Blocks, &BasicBlock{Index: i, Start: s, End: end})
	}
	for _, b := range g.Blocks {
		last := m.Code[b.End-1]
		addEdge := func(targetPC int) {
			if tb, ok := blockAt[targetPC]; ok {
				b.Succs = append(b.Succs, tb)
				g.Blocks[tb].Preds = append(g.Blocks[tb].Preds, b.Index)
			}
		}
		switch {
		case last.Op == OpGoto:
			addEdge(last.Target)
		case last.Op.IsConditional():
			addEdge(last.Target)
			if b.End < len(m.Code) {
				addEdge(b.End)
			}
		case last.Op.IsTerminator():
			// return/throw: no successors
		default:
			if b.End < len(m.Code) {
				addEdge(b.End)
			}
		}
	}
	return g
}

// Instructions returns the instruction slice covered by the block.
func (b *BasicBlock) Instructions(m *Method) []Instruction {
	return m.Code[b.Start:b.End]
}
