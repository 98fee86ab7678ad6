package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Binary format constants.
const (
	// Magic is the 4-byte magic of a plain SDEX file.
	Magic = "SDEX"
	// MagicODEX is the magic of an optimized SDEX file (see Optimize).
	MagicODEX = "SODX"
	// FormatVersion is the single supported format version.
	FormatVersion = 1
)

// maxSaneCount bounds decoded counts so corrupted inputs fail fast instead
// of attempting enormous allocations.
const maxSaneCount = 1 << 24

// Encode serializes the file into the SDEX binary format. The encoding is
// deterministic: equal Files produce identical bytes. A CRC32 of the body
// is appended so tampering and truncation are detectable.
func Encode(f *File) ([]byte, error) {
	return encode(f, Magic)
}

func encode(f *File, magic string) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("dex: encode: %w", err)
	}
	pool := newStringPool()
	poolFile(pool, f)

	var body bytes.Buffer
	w := &writer{buf: &body}
	// String pool section.
	w.uvarint(uint64(len(pool.list)))
	for _, s := range pool.list {
		w.str(s)
	}
	// Class section.
	w.uvarint(uint64(len(f.Classes)))
	for _, c := range f.Classes {
		w.uvarint(uint64(pool.id(c.Name)))
		w.uvarint(uint64(pool.id(c.Super)))
		w.uvarint(uint64(c.Flags))
		w.uvarint(uint64(pool.id(c.SourceFile)))
		w.uvarint(uint64(len(c.Interfaces)))
		for _, ifc := range c.Interfaces {
			w.uvarint(uint64(pool.id(ifc)))
		}
		w.uvarint(uint64(len(c.Fields)))
		for _, fl := range c.Fields {
			w.uvarint(uint64(pool.id(fl.Name)))
			w.uvarint(uint64(pool.id(fl.Type)))
			w.uvarint(uint64(fl.Flags))
		}
		w.uvarint(uint64(len(c.Methods)))
		for _, m := range c.Methods {
			w.uvarint(uint64(pool.id(m.Name)))
			w.uvarint(uint64(pool.id(m.Return)))
			w.uvarint(uint64(m.Flags))
			w.uvarint(uint64(m.Registers))
			w.uvarint(uint64(len(m.Params)))
			for _, p := range m.Params {
				w.uvarint(uint64(pool.id(p)))
			}
			w.uvarint(uint64(len(m.Code)))
			for i := range m.Code {
				encodeInstr(w, pool, &m.Code[i])
			}
		}
	}

	var out bytes.Buffer
	out.WriteString(magic)
	out.WriteByte(FormatVersion)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(body.Len()))
	out.Write(lenBuf[:])
	out.Write(body.Bytes())
	binary.LittleEndian.PutUint32(lenBuf[:], crc32.ChecksumIEEE(body.Bytes()))
	out.Write(lenBuf[:])
	return out.Bytes(), nil
}

func encodeInstr(w *writer, pool *stringPool, in *Instruction) {
	w.byte(byte(in.Op))
	switch in.Op {
	case OpNop, OpReturnVoid:
	case OpConst:
		w.uvarint(uint64(in.A))
		w.varint(in.Value)
	case OpConstString, OpNewInstance, OpCheckCast:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(pool.id(in.Str)))
	case OpNewArray, OpInstanceOf:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.B))
		w.uvarint(uint64(pool.id(in.Str)))
	case OpMove, OpArrayLength:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.B))
	case OpMoveResult, OpReturn, OpThrow:
		w.uvarint(uint64(in.A))
	case OpIGet, OpIPut:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.B))
		encodeFieldRef(w, pool, in.Field)
	case OpSGet, OpSPut:
		w.uvarint(uint64(in.A))
		encodeFieldRef(w, pool, in.Field)
	case OpAdd, OpSub, OpMul, OpDiv, OpXor, OpArrayGet, OpArrayPut:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.B))
		w.uvarint(uint64(in.C))
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.B))
		w.uvarint(uint64(in.Target))
	case OpIfEqz, OpIfNez:
		w.uvarint(uint64(in.A))
		w.uvarint(uint64(in.Target))
	case OpGoto:
		w.uvarint(uint64(in.Target))
	default:
		if in.Op.IsInvoke() {
			w.uvarint(uint64(pool.id(in.Method.Class)))
			w.uvarint(uint64(pool.id(in.Method.Name)))
			w.uvarint(uint64(pool.id(in.Method.Sig)))
			w.uvarint(uint64(len(in.Args)))
			for _, a := range in.Args {
				w.uvarint(uint64(a))
			}
		}
	}
}

func encodeFieldRef(w *writer, pool *stringPool, fr FieldRef) {
	w.uvarint(uint64(pool.id(fr.Class)))
	w.uvarint(uint64(pool.id(fr.Name)))
	w.uvarint(uint64(pool.id(fr.Type)))
}

// Decode parses SDEX bytes produced by Encode. It accepts both plain and
// optimized (ODEX) files; IsOptimized reports which one was decoded.
func Decode(data []byte) (*File, error) {
	f, _, err := decode(data)
	return f, err
}

// IsOptimized reports whether the bytes carry the ODEX magic.
func IsOptimized(data []byte) bool {
	return len(data) >= 4 && string(data[:4]) == MagicODEX
}

// ErrNotDex is the sentinel wrapped by Decode when the magic is wrong.
var ErrNotDex = fmt.Errorf("dex: not an SDEX file")

func decode(data []byte) (*File, bool, error) {
	if len(data) < 13 {
		return nil, false, fmt.Errorf("%w: %d bytes is too short", ErrNotDex, len(data))
	}
	magic := string(data[:4])
	if magic != Magic && magic != MagicODEX {
		return nil, false, fmt.Errorf("%w: bad magic %q", ErrNotDex, magic)
	}
	if data[4] != FormatVersion {
		return nil, false, fmt.Errorf("dex: unsupported format version %d", data[4])
	}
	bodyLen := binary.LittleEndian.Uint32(data[5:9])
	if int(bodyLen) != len(data)-13 {
		return nil, false, fmt.Errorf("dex: body length %d does not match file size %d", bodyLen, len(data))
	}
	body := data[9 : 9+bodyLen]
	wantCRC := binary.LittleEndian.Uint32(data[9+bodyLen:])
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, false, fmt.Errorf("dex: checksum mismatch: got %08x want %08x", got, wantCRC)
	}

	// One string conversion covers the whole body: every pool entry is a
	// zero-copy substring of it, replacing the per-string copies that
	// used to dominate decode allocations. The substrings share the one
	// backing allocation for as long as the File lives.
	r := &reader{data: body, text: string(body)}
	nStrings := r.count()
	pool := make([]string, 0, min(nStrings, 4096))
	for i := 0; i < nStrings && r.err == nil; i++ {
		pool = append(pool, r.str())
	}
	str := func(id int) string {
		if id < 0 || id >= len(pool) {
			r.fail(fmt.Errorf("dex: string index %d out of range [0,%d)", id, len(pool)))
			return ""
		}
		return pool[id]
	}

	f := &File{}
	nClasses := r.count()
	for i := 0; i < nClasses && r.err == nil; i++ {
		c := &Class{
			Name:       str(r.id()),
			Super:      str(r.id()),
			Flags:      AccessFlags(r.id()),
			SourceFile: str(r.id()),
		}
		for j, n := 0, r.count(); j < n && r.err == nil; j++ {
			c.Interfaces = append(c.Interfaces, str(r.id()))
		}
		for j, n := 0, r.count(); j < n && r.err == nil; j++ {
			c.Fields = append(c.Fields, &Field{
				Name:  str(r.id()),
				Type:  str(r.id()),
				Flags: AccessFlags(r.id()),
			})
		}
		for j, n := 0, r.count(); j < n && r.err == nil; j++ {
			m := &Method{
				Name:      str(r.id()),
				Return:    str(r.id()),
				Flags:     AccessFlags(r.id()),
				Registers: r.id(),
			}
			for k, np := 0, r.count(); k < np && r.err == nil; k++ {
				m.Params = append(m.Params, str(r.id()))
			}
			nCode := r.count()
			m.Code = make([]Instruction, 0, min(nCode, 4096))
			for k := 0; k < nCode && r.err == nil; k++ {
				m.Code = append(m.Code, decodeInstr(r, str))
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	if r.err != nil {
		return nil, false, r.err
	}
	if err := f.Validate(); err != nil {
		return nil, false, fmt.Errorf("dex: decode: %w", err)
	}
	return f, magic == MagicODEX, nil
}

func decodeInstr(r *reader, str func(int) string) Instruction {
	op := Opcode(r.byte())
	if !op.Valid() {
		r.fail(fmt.Errorf("dex: invalid opcode %d", op))
		return Instruction{}
	}
	in := Instruction{Op: op}
	switch op {
	case OpNop, OpReturnVoid:
	case OpConst:
		in.A = r.id()
		in.Value = r.varint()
	case OpConstString, OpNewInstance, OpCheckCast:
		in.A = r.id()
		in.Str = str(r.id())
	case OpNewArray, OpInstanceOf:
		in.A = r.id()
		in.B = r.id()
		in.Str = str(r.id())
	case OpMove, OpArrayLength:
		in.A = r.id()
		in.B = r.id()
	case OpMoveResult, OpReturn, OpThrow:
		in.A = r.id()
	case OpIGet, OpIPut:
		in.A = r.id()
		in.B = r.id()
		in.Field = decodeFieldRef(r, str)
	case OpSGet, OpSPut:
		in.A = r.id()
		in.Field = decodeFieldRef(r, str)
	case OpAdd, OpSub, OpMul, OpDiv, OpXor, OpArrayGet, OpArrayPut:
		in.A = r.id()
		in.B = r.id()
		in.C = r.id()
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe:
		in.A = r.id()
		in.B = r.id()
		in.Target = r.id()
	case OpIfEqz, OpIfNez:
		in.A = r.id()
		in.Target = r.id()
	case OpGoto:
		in.Target = r.id()
	default:
		if op.IsInvoke() {
			in.Method = MethodRef{Class: str(r.id()), Name: str(r.id()), Sig: str(r.id())}
			n := r.count()
			in.Args = make([]int, 0, min(n, 256))
			for i := 0; i < n && r.err == nil; i++ {
				in.Args = append(in.Args, r.id())
			}
		}
	}
	return in
}

func decodeFieldRef(r *reader, str func(int) string) FieldRef {
	return FieldRef{Class: str(r.id()), Name: str(r.id()), Type: str(r.id())}
}

// stringPool interns strings for encoding, assigning ids in first-use
// order so the encoding is deterministic.
type stringPool struct {
	ids  map[string]int
	list []string
}

func newStringPool() *stringPool {
	return &stringPool{ids: make(map[string]int)}
}

func (p *stringPool) id(s string) int {
	if id, ok := p.ids[s]; ok {
		return id
	}
	id := len(p.list)
	p.ids[s] = id
	p.list = append(p.list, s)
	return id
}

// poolFile interns every string in the file in deterministic traversal
// order.
func poolFile(p *stringPool, f *File) {
	for _, c := range f.Classes {
		p.id(c.Name)
		p.id(c.Super)
		p.id(c.SourceFile)
		for _, ifc := range c.Interfaces {
			p.id(ifc)
		}
		for _, fl := range c.Fields {
			p.id(fl.Name)
			p.id(fl.Type)
		}
		for _, m := range c.Methods {
			p.id(m.Name)
			p.id(m.Return)
			for _, prm := range m.Params {
				p.id(prm)
			}
			for i := range m.Code {
				in := &m.Code[i]
				switch {
				case in.Op == OpConstString || in.Op == OpNewInstance ||
					in.Op == OpCheckCast || in.Op == OpNewArray || in.Op == OpInstanceOf:
					p.id(in.Str)
				case in.Op.IsInvoke():
					p.id(in.Method.Class)
					p.id(in.Method.Name)
					p.id(in.Method.Sig)
				case in.Op == OpIGet || in.Op == OpIPut || in.Op == OpSGet || in.Op == OpSPut:
					p.id(in.Field.Class)
					p.id(in.Field.Name)
					p.id(in.Field.Type)
				}
			}
		}
	}
}

// writer accumulates the body section.
type writer struct {
	buf *bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *writer) byte(b byte) { w.buf.WriteByte(b) }

func (w *writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) varint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

// reader consumes the body section, remembering the first error. text
// mirrors data as an immutable string so str() can hand out zero-copy
// substrings instead of converting (and copying) each one.
type reader struct {
	data []byte
	text string
	pos  int
	err  error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail(fmt.Errorf("dex: truncated file at offset %d", r.pos))
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail(fmt.Errorf("dex: bad uvarint at offset %d", r.pos))
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail(fmt.Errorf("dex: bad varint at offset %d", r.pos))
		return 0
	}
	r.pos += n
	return v
}

// id reads a non-negative integer (register, index, flag word).
func (r *reader) id() int {
	v := r.uvarint()
	if v > maxSaneCount {
		r.fail(fmt.Errorf("dex: implausible value %d", v))
		return 0
	}
	return int(v)
}

// count reads a collection size with sanity bounds.
func (r *reader) count() int {
	v := r.uvarint()
	if v > maxSaneCount {
		r.fail(fmt.Errorf("dex: implausible count %d", v))
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	if r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("dex: truncated string at offset %d", r.pos))
		return ""
	}
	s := r.text[r.pos : r.pos+n]
	r.pos += n
	return s
}
