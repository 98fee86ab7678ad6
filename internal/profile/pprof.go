// pprof.go decodes the subset of the gzipped pprof protobuf
// (profile.proto) that a CPU-profile summary needs: sample stacks,
// locations, functions and the string table. Decoding in-process — with a
// hand-rolled wire-format reader rather than a generated protobuf
// binding — keeps the profile ring self-describing: every stored window
// carries a parsed top-functions table (flat/cum self-time by function)
// that dashboards, the CLI and regression diffs can compare without any
// pprof tooling on the box.
package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// FuncCost is one function's share of a CPU-profile window. Flat is
// self-time (samples whose innermost frame is this function); Cum counts
// every sample the function appears anywhere in, deduplicated per sample
// so recursion never double-counts.
type FuncCost struct {
	Func   string `json:"func"`
	FlatNS int64  `json:"flat_ns"`
	CumNS  int64  `json:"cum_ns"`
}

// Summary is the parsed, comparable digest of one CPU-profile window.
type Summary struct {
	// Samples is the number of stack samples in the window.
	Samples int64 `json:"samples"`
	// TotalNS is the summed CPU time of all samples.
	TotalNS int64 `json:"total_ns"`
	// PeriodNS is the sampling period (typically 10ms at the default
	// 100 Hz rate).
	PeriodNS int64 `json:"period_ns"`
	// DurationNS is the profile's own recorded wall duration.
	DurationNS int64 `json:"duration_ns"`
	// Top holds the hottest functions by flat self-time; a recorder keeps
	// the 20 hottest.
	Top []FuncCost `json:"top,omitempty"`
}

// TopFunc names the hottest function ("" for an empty window) — the
// one-glance answer an index row or dashboard tile wants.
func (s *Summary) TopFunc() string {
	if s == nil || len(s.Top) == 0 {
		return ""
	}
	return s.Top[0].Func
}

// ParseCPUProfile decodes a (possibly gzipped) pprof CPU profile and
// returns its per-function summary keeping the topN hottest functions
// (all of them when topN <= 0). Profiles whose sample values carry no
// nanosecond unit fall back to samples×period.
func ParseCPUProfile(raw []byte, topN int) (*Summary, error) {
	body := raw
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		body, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
	}
	p, err := parseProfileProto(body)
	if err != nil {
		return nil, err
	}
	return p.summarize(topN)
}

// ---- decoded profile model (only the fields summaries need) ----

type protoProfile struct {
	sampleTypes []valueType // parallel to each sample's value vector
	samples     []protoSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
	durationNS  int64
	periodType  valueType
	period      int64
}

type valueType struct{ typ, unit int64 } // string-table indices

type protoSample struct {
	locationIDs []uint64 // leaf first
	values      []int64
}

func (p *protoProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// valueIndex picks which element of each sample's value vector measures
// CPU time: the last sample_type whose unit is "nanoseconds", else the
// last value (scaled by period via scale=true).
func (p *protoProfile) valueIndex() (idx int, inNanos bool) {
	idx = len(p.sampleTypes) - 1
	for i, st := range p.sampleTypes {
		if p.str(st.unit) == "nanoseconds" {
			idx, inNanos = i, true
		}
	}
	return idx, inNanos
}

func (p *protoProfile) summarize(topN int) (*Summary, error) {
	s := &Summary{PeriodNS: p.period, DurationNS: p.durationNS}
	vi, inNanos := p.valueIndex()
	if !inNanos && p.period == 0 {
		// No nanosecond-unit value vector and no period to scale counts
		// by: this is some other profile kind (heap, mutex), not CPU time.
		return nil, fmt.Errorf("profile: not a CPU profile (no nanosecond sample values)")
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	seen := map[string]bool{} // per-sample dedup scratch for cum
	for _, sm := range p.samples {
		idx := vi
		if idx < 0 { // no sample_type table: take each sample's last value
			idx = len(sm.values) - 1
		}
		if idx < 0 || idx >= len(sm.values) {
			continue
		}
		v := sm.values[idx]
		if !inNanos {
			v *= p.period
		}
		if v == 0 {
			continue
		}
		s.Samples++
		s.TotalNS += v
		clear(seen)
		for li, locID := range sm.locationIDs {
			fnIDs := p.locations[locID]
			for fi, fnID := range fnIDs {
				name := p.str(p.functions[fnID])
				if name == "" {
					name = fmt.Sprintf("location#%d", locID)
				}
				// The first function of the first location is the
				// innermost frame: flat self-time lands there.
				if li == 0 && fi == 0 {
					flat[name] += v
				}
				if !seen[name] {
					seen[name] = true
					cum[name] += v
				}
			}
		}
	}
	s.Top = make([]FuncCost, 0, len(cum))
	for name, c := range cum {
		s.Top = append(s.Top, FuncCost{Func: name, FlatNS: flat[name], CumNS: c})
	}
	sort.Slice(s.Top, func(i, j int) bool {
		a, b := s.Top[i], s.Top[j]
		if a.FlatNS != b.FlatNS {
			return a.FlatNS > b.FlatNS
		}
		if a.CumNS != b.CumNS {
			return a.CumNS > b.CumNS
		}
		return a.Func < b.Func
	})
	if topN > 0 && len(s.Top) > topN {
		s.Top = s.Top[:topN]
	}
	return s, nil
}

// ---- minimal protobuf wire-format reader ----

// profile.proto field numbers used below.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStringTab  = 6
	fProfileDuration   = 10
	fProfilePeriodType = 11
	fProfilePeriod     = 12

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfileProto(body []byte) (*protoProfile, error) {
	p := &protoProfile{
		locations: map[uint64][]uint64{},
		functions: map[uint64]int64{},
	}
	err := eachField(body, func(field int, wire int, varint uint64, chunk []byte) error {
		switch field {
		case fProfileSampleType:
			vt, err := parseValueType(chunk)
			if err != nil {
				return err
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case fProfileSample:
			sm, err := parseSample(chunk)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, sm)
		case fProfileLocation:
			id, fns, err := parseLocation(chunk)
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			id, name, err := parseFunction(chunk)
			if err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileStringTab:
			p.strings = append(p.strings, string(chunk))
		case fProfileDuration:
			p.durationNS = int64(varint)
		case fProfilePeriodType:
			vt, err := parseValueType(chunk)
			if err != nil {
				return err
			}
			p.periodType = vt
		case fProfilePeriod:
			p.period = int64(varint)
		}
		_ = wire
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

func parseValueType(b []byte) (valueType, error) {
	var vt valueType
	err := eachField(b, func(field, wire int, v uint64, _ []byte) error {
		switch field {
		case fValueTypeType:
			vt.typ = int64(v)
		case fValueTypeUnit:
			vt.unit = int64(v)
		}
		return nil
	})
	return vt, err
}

func parseSample(b []byte) (protoSample, error) {
	var sm protoSample
	err := eachField(b, func(field, wire int, v uint64, chunk []byte) error {
		switch field {
		case fSampleLocationID:
			if wire == wireBytes { // packed
				return eachPacked(chunk, func(u uint64) {
					sm.locationIDs = append(sm.locationIDs, u)
				})
			}
			sm.locationIDs = append(sm.locationIDs, v)
		case fSampleValue:
			if wire == wireBytes {
				return eachPacked(chunk, func(u uint64) {
					sm.values = append(sm.values, int64(u))
				})
			}
			sm.values = append(sm.values, int64(v))
		}
		return nil
	})
	return sm, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = eachField(b, func(field, wire int, v uint64, chunk []byte) error {
		switch field {
		case fLocationID:
			id = v
		case fLocationLine:
			// Lines are ordered innermost-first; keep that order so the
			// first function of the leaf location takes the flat time.
			return eachField(chunk, func(lf, _ int, lv uint64, _ []byte) error {
				if lf == fLineFunctionID {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

func parseFunction(b []byte) (id uint64, name int64, err error) {
	err = eachField(b, func(field, wire int, v uint64, _ []byte) error {
		switch field {
		case fFunctionID:
			id = v
		case fFunctionName:
			name = int64(v)
		}
		return nil
	})
	return id, name, err
}

// Protobuf wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField walks one protobuf message, calling fn per field with the
// decoded varint (wire type 0) or the raw chunk (wire type 2). Unknown
// fields and fixed-width wire types are skipped.
func eachField(b []byte, fn func(field, wire int, varint uint64, chunk []byte) error) error {
	for len(b) > 0 {
		tag, n := readVarint(b)
		if n == 0 {
			return fmt.Errorf("profile: truncated field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), int(tag&7)
		switch wire {
		case wireVarint:
			v, n := readVarint(b)
			if n == 0 {
				return fmt.Errorf("profile: truncated varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case wireBytes:
			l, n := readVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: truncated bytes in field %d", field)
			}
			chunk := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, chunk); err != nil {
				return err
			}
		case wireFixed64:
			if len(b) < 8 {
				return fmt.Errorf("profile: truncated fixed64 in field %d", field)
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return fmt.Errorf("profile: truncated fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// eachPacked decodes a packed repeated varint chunk.
func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := readVarint(b)
		if n == 0 {
			return fmt.Errorf("profile: truncated packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// readVarint decodes one base-128 varint, returning the value and the
// number of bytes consumed (0 on truncation/overflow).
func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i]&0x80 == 0 {
			return v, i + 1
		}
	}
	return 0, 0
}
