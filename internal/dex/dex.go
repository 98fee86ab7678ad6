// Package dex implements SDEX, a register-based Dalvik-style bytecode
// format used throughout DyDroid as the simulated equivalent of Android's
// DEX format.
//
// An SDEX file (conventionally named classes.dex inside an APK) holds a
// string pool and a set of class definitions. Each class has fields and
// methods; each method body is a linear sequence of register-machine
// instructions. The package provides:
//
//   - an in-memory object model (File, Class, Method, Field, Instruction),
//   - a deterministic binary encoding (Encode/Decode) with checksums,
//   - a smali-like textual disassembler (Disassemble), which the tests
//     reassemble to check the round trip,
//   - a builder API for constructing classes programmatically,
//   - control-flow-graph extraction (BuildCFG) used by the MAIL translator
//     and the static taint analysis, and
//   - a DEX->ODEX optimizer (Optimize) mirroring dexopt.
//
// The format intentionally preserves the properties DyDroid's analyses
// depend on: symbolic method references (for API source/sink detection and
// DCL pre-filtering), const-string pools (for path and URL extraction),
// and branch instructions (for CFG and ACFG construction).
package dex

import (
	"fmt"
	"strings"
)

// AccessFlags describe the visibility and dispatch properties of classes,
// methods and fields. They mirror the subset of Dalvik access flags that
// the analyses consume.
type AccessFlags uint32

// Access flag bits.
const (
	ACCPublic    AccessFlags = 1 << 0
	ACCPrivate   AccessFlags = 1 << 1
	ACCProtected AccessFlags = 1 << 2
	ACCStatic    AccessFlags = 1 << 3
	ACCFinal     AccessFlags = 1 << 4
	ACCNative    AccessFlags = 1 << 8
	ACCInterface AccessFlags = 1 << 9
	ACCAbstract  AccessFlags = 1 << 10
	ACCSynthetic AccessFlags = 1 << 12
	ACCConstruct AccessFlags = 1 << 16
)

// String renders the flags in smali order.
func (f AccessFlags) String() string {
	var parts []string
	for _, e := range []struct {
		bit  AccessFlags
		name string
	}{
		{ACCPublic, "public"},
		{ACCPrivate, "private"},
		{ACCProtected, "protected"},
		{ACCStatic, "static"},
		{ACCFinal, "final"},
		{ACCNative, "native"},
		{ACCInterface, "interface"},
		{ACCAbstract, "abstract"},
		{ACCSynthetic, "synthetic"},
		{ACCConstruct, "constructor"},
	} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, " ")
}

// MethodRef is a symbolic reference to a method: the defining class (in
// Java binary-name form, e.g. "dalvik.system.DexClassLoader"), the method
// name, and the descriptor signature.
type MethodRef struct {
	Class string // Java binary name of the defining class
	Name  string // method name, "<init>" for constructors
	Sig   string // descriptor, e.g. "(Ljava/lang/String;)V"
}

// String renders the reference in smali call-site form.
func (r MethodRef) String() string {
	return JavaToDesc(r.Class) + "->" + r.Name + r.Sig
}

// FieldRef is a symbolic reference to a field.
type FieldRef struct {
	Class string // Java binary name of the defining class
	Name  string // field name
	Type  string // type descriptor, e.g. "Ljava/lang/String;"
}

// String renders the reference in smali field form.
func (r FieldRef) String() string {
	return JavaToDesc(r.Class) + "->" + r.Name + ":" + r.Type
}

// File is one SDEX file: a set of classes sharing a string pool. The
// string pool is materialized during encoding; the object model keeps
// strings inline for ease of construction and analysis.
type File struct {
	// Classes in definition order. Order is preserved by encode/decode.
	Classes []*Class
}

// Class is a single class definition.
type Class struct {
	Name       string // Java binary name, e.g. "com.example.Main"
	Super      string // Java binary name of the superclass
	Interfaces []string
	Flags      AccessFlags
	SourceFile string
	Fields     []*Field
	Methods    []*Method
}

// Field is a field definition.
type Field struct {
	Name  string
	Type  string // type descriptor
	Flags AccessFlags
}

// Method is a method definition with its code body. Native and abstract
// methods have no code.
type Method struct {
	Name      string
	Params    []string // parameter type descriptors
	Return    string   // return type descriptor
	Flags     AccessFlags
	Registers int // number of registers the body uses
	Code      []Instruction
}

// Ref returns the symbolic reference identifying m within class c.
func (m *Method) Ref(c *Class) MethodRef {
	return MethodRef{Class: c.Name, Name: m.Name, Sig: m.Descriptor()}
}

// Descriptor renders the method signature descriptor, e.g.
// "(Ljava/lang/String;I)V".
func (m *Method) Descriptor() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range m.Params {
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(m.Return)
	return b.String()
}

// FindClass returns the class with the given Java binary name, or nil.
func (f *File) FindClass(name string) *Class {
	for _, c := range f.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FindMethod returns the method with the given name and descriptor, or nil.
// An empty descriptor matches the first method with the name.
func (c *Class) FindMethod(name, sig string) *Method {
	for _, m := range c.Methods {
		if m.Name == name && (sig == "" || m.Descriptor() == sig) {
			return m
		}
	}
	return nil
}

// FindField returns the field with the given name, or nil.
func (c *Class) FindField(name string) *Field {
	for _, fl := range c.Fields {
		if fl.Name == name {
			return fl
		}
	}
	return nil
}

// Package returns the Java package of the class ("" for the default
// package).
func (c *Class) Package() string {
	if i := strings.LastIndex(c.Name, "."); i >= 0 {
		return c.Name[:i]
	}
	return ""
}

// JavaToDesc converts a Java binary name to a type descriptor:
// "com.example.Main" -> "Lcom/example/Main;".
func JavaToDesc(name string) string {
	return "L" + strings.ReplaceAll(name, ".", "/") + ";"
}

// MethodCount returns the total number of method definitions in the file.
func (f *File) MethodCount() int {
	n := 0
	for _, c := range f.Classes {
		n += len(c.Methods)
	}
	return n
}

// Strings returns every string literal referenced by const-string
// instructions across the file, in encounter order without duplicates.
// The DCL pre-filter and the obfuscation rules consume this.
func (f *File) Strings() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range f.Classes {
		for _, m := range c.Methods {
			for i := range m.Code {
				in := &m.Code[i]
				if in.Op == OpConstString && !seen[in.Str] {
					seen[in.Str] = true
					out = append(out, in.Str)
				}
			}
		}
	}
	return out
}

// Validate performs structural sanity checks: branch targets in range,
// register indices within the declared register count, and non-empty
// names. It returns the first problem found.
func (f *File) Validate() error {
	// One scratch slice and pointer-indexed loops: Validate runs on every
	// Encode and Decode, so it must not copy or allocate per instruction.
	var scratch []int
	for _, c := range f.Classes {
		if c.Name == "" {
			return fmt.Errorf("dex: class with empty name")
		}
		for _, m := range c.Methods {
			if m.Name == "" {
				return fmt.Errorf("dex: %s: method with empty name", c.Name)
			}
			for pc := range m.Code {
				in := &m.Code[pc]
				if in.Op.IsBranch() {
					if in.Target < 0 || in.Target >= len(m.Code) {
						return fmt.Errorf("dex: %s.%s: pc %d: branch target %d out of range [0,%d)",
							c.Name, m.Name, pc, in.Target, len(m.Code))
					}
				}
				scratch = in.appendRegistersUsed(scratch[:0])
				for _, r := range scratch {
					if r < 0 || r >= m.Registers {
						return fmt.Errorf("dex: %s.%s: pc %d: register v%d out of range [0,%d)",
							c.Name, m.Name, pc, r, m.Registers)
					}
				}
			}
		}
	}
	return nil
}
