// Package droidnative reimplements the DroidNative malware detector the
// paper uses on intercepted binaries (§III-C): binaries are lifted to MAIL
// (internal/mail), turned into Annotated Control Flow Graphs (ACFGs), and
// matched against trained malware-family samples by parallel subgraph
// matching. A test binary is flagged when more than MatchThreshold of a
// training sample's ACFG has a parallel match — the paper's 90% rule.
package droidnative

import (
	"fmt"
	"sort"

	"github.com/dydroid/dydroid/internal/mail"
)

// MatchThreshold is the default ACFG coverage required to flag a sample
// (paper: "flags a malware when the degree of match is over 90%").
const MatchThreshold = 0.90

// ACFG is the annotated control flow graph of one function: blocks carry
// their MAIL pattern signatures, edges the successor indices.
type ACFG struct {
	Name   string
	Blocks []ACFGBlock
}

// ACFGBlock is one annotated block.
type ACFGBlock struct {
	Sig   string
	Succs []int
}

// BuildACFGs lifts a MAIL program into one ACFG per function.
func BuildACFGs(p *mail.Program) []ACFG {
	out := make([]ACFG, 0, len(p.Functions))
	for _, fn := range p.Functions {
		g := ACFG{Name: fn.Name, Blocks: make([]ACFGBlock, 0, len(fn.Blocks))}
		for _, b := range fn.Blocks {
			g.Blocks = append(g.Blocks, ACFGBlock{Sig: b.Sig(), Succs: append([]int(nil), b.Succs...)})
		}
		out = append(out, g)
	}
	return out
}

// matchACFG computes the fraction of train's blocks that have a parallel
// match in test: same signature, same out-degree, and matching successor
// signature multisets. Each test block matches at most one train block.
func matchACFG(train, test ACFG) float64 {
	if len(train.Blocks) == 0 {
		return 0
	}
	used := make([]bool, len(test.Blocks))
	matched := 0
	for _, tb := range train.Blocks {
		for i, sb := range test.Blocks {
			if used[i] || sb.Sig != tb.Sig || len(sb.Succs) != len(tb.Succs) {
				continue
			}
			if succSigs(train, tb) != succSigs(test, sb) {
				continue
			}
			used[i] = true
			matched++
			break
		}
	}
	return float64(matched) / float64(len(train.Blocks))
}

// succSigs renders the sorted multiset of successor signatures.
func succSigs(g ACFG, b ACFGBlock) string {
	sigs := make([]string, 0, len(b.Succs))
	for _, s := range b.Succs {
		if s >= 0 && s < len(g.Blocks) {
			sigs = append(sigs, g.Blocks[s].Sig)
		}
	}
	sort.Strings(sigs)
	out := ""
	for _, s := range sigs {
		out += s + "|"
	}
	return out
}

// Sample is one trained malware sample.
type Sample struct {
	Family string
	ACFGs  []ACFG
	blocks int
}

// Detection is a classification result.
type Detection struct {
	// Malware is true when some training sample matched above threshold.
	Malware bool
	// Family is the best-matching family.
	Family string
	// Score is the best sample match degree in [0,1].
	Score float64
}

// Classifier is the trained detector. The zero value is an untrained
// classifier that flags nothing.
type Classifier struct {
	// Threshold overrides MatchThreshold when non-zero (used by the
	// ablation bench sweeping the paper's 90% choice).
	Threshold float64
	samples   []*Sample
}

// Train adds one training sample lifted from a malware binary.
func (c *Classifier) Train(family string, p *mail.Program) error {
	if family == "" {
		return fmt.Errorf("droidnative: empty family name")
	}
	acfgs := BuildACFGs(p)
	total := 0
	for _, g := range acfgs {
		total += len(g.Blocks)
	}
	if total == 0 {
		return fmt.Errorf("droidnative: sample for %q has no code", family)
	}
	c.samples = append(c.samples, &Sample{Family: family, ACFGs: acfgs, blocks: total})
	return nil
}

func (c *Classifier) threshold() float64 {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return MatchThreshold
}

// Classify matches the test program against every training sample and
// reports the best match. The sample-level score is the
// block-count-weighted coverage of the training sample's ACFGs by their
// best-matching test functions.
func (c *Classifier) Classify(p *mail.Program) Detection {
	testACFGs := BuildACFGs(p)
	best := Detection{}
	for _, s := range c.samples {
		score := c.sampleScore(s, testACFGs)
		if score > best.Score {
			best.Score = score
			best.Family = s.Family
		}
	}
	best.Malware = best.Score > c.threshold()
	if !best.Malware {
		best.Family = ""
	}
	return best
}

func (c *Classifier) sampleScore(s *Sample, test []ACFG) float64 {
	weighted := 0.0
	for _, tg := range s.ACFGs {
		bestFn := 0.0
		for _, sg := range test {
			if m := matchACFG(tg, sg); m > bestFn {
				bestFn = m
				if bestFn == 1.0 {
					break
				}
			}
		}
		weighted += bestFn * float64(len(tg.Blocks))
	}
	return weighted / float64(s.blocks)
}
