package dex

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Disassemble renders the file in a smali-like textual IR, one class per
// entry in the returned map keyed by the Java binary class name. This is
// the output format of the apktool decompiler and the input to the static
// pre-filter and obfuscation rules.
func Disassemble(f *File) map[string]string {
	out := make(map[string]string, len(f.Classes))
	for _, c := range f.Classes {
		out[c.Name] = DisassembleClass(c)
	}
	return out
}

// DisassembleClass renders one class in smali-like text.
func DisassembleClass(c *Class) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".class %s %s\n", flagsOrDefault(c.Flags), JavaToDesc(c.Name))
	fmt.Fprintf(&b, ".super %s\n", JavaToDesc(c.Super))
	if c.SourceFile != "" {
		fmt.Fprintf(&b, ".source %q\n", c.SourceFile)
	}
	for _, ifc := range c.Interfaces {
		fmt.Fprintf(&b, ".implements %s\n", JavaToDesc(ifc))
	}
	for _, fl := range c.Fields {
		fmt.Fprintf(&b, ".field %s %s:%s\n", flagsOrDefault(fl.Flags), fl.Name, fl.Type)
	}
	for _, m := range c.Methods {
		b.WriteString(disassembleMethod(m))
	}
	return b.String()
}

func flagsOrDefault(f AccessFlags) string {
	s := f.String()
	if s == "" {
		return "default"
	}
	return s
}

func disassembleMethod(m *Method) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".method %s %s%s\n", flagsOrDefault(m.Flags), m.Name, m.Descriptor())
	fmt.Fprintf(&b, "    .registers %d\n", m.Registers)
	// Collect branch targets so we can emit :L<n> labels.
	targets := make(map[int]string)
	for _, in := range m.Code {
		if in.Op.IsBranch() {
			if _, ok := targets[in.Target]; !ok {
				targets[in.Target] = fmt.Sprintf("L%d", len(targets))
			}
		}
	}
	for pc, in := range m.Code {
		if lbl, ok := targets[pc]; ok {
			fmt.Fprintf(&b, "  :%s\n", lbl)
		}
		b.WriteString("    ")
		b.WriteString(formatInstr(in, targets))
		b.WriteByte('\n')
	}
	// A branch may target one past the last instruction only if code is
	// malformed; Validate prevents that, so no trailing label is needed.
	b.WriteString(".end method\n")
	return b.String()
}

func formatInstr(in Instruction, targets map[int]string) string {
	v := func(r int) string { return "v" + strconv.Itoa(r) }
	lbl := func(t int) string { return ":" + targets[t] }
	switch in.Op {
	case OpNop:
		return "nop"
	case OpConst:
		return fmt.Sprintf("const %s, %d", v(in.A), in.Value)
	case OpConstString:
		return fmt.Sprintf("const-string %s, %q", v(in.A), in.Str)
	case OpMove:
		return fmt.Sprintf("move %s, %s", v(in.A), v(in.B))
	case OpMoveResult:
		return fmt.Sprintf("move-result %s", v(in.A))
	case OpNewInstance:
		return fmt.Sprintf("new-instance %s, %s", v(in.A), JavaToDesc(in.Str))
	case OpNewArray:
		return fmt.Sprintf("new-array %s, %s, %s", v(in.A), v(in.B), in.Str)
	case OpIGet:
		return fmt.Sprintf("iget %s, %s, %s", v(in.A), v(in.B), in.Field)
	case OpIPut:
		return fmt.Sprintf("iput %s, %s, %s", v(in.A), v(in.B), in.Field)
	case OpSGet:
		return fmt.Sprintf("sget %s, %s", v(in.A), in.Field)
	case OpSPut:
		return fmt.Sprintf("sput %s, %s", v(in.A), in.Field)
	case OpAdd, OpSub, OpMul, OpDiv, OpXor, OpArrayGet, OpArrayPut:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, v(in.A), v(in.B), v(in.C))
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, v(in.A), v(in.B), lbl(in.Target))
	case OpIfEqz, OpIfNez:
		return fmt.Sprintf("%s %s, %s", in.Op, v(in.A), lbl(in.Target))
	case OpGoto:
		return fmt.Sprintf("goto %s", lbl(in.Target))
	case OpReturn:
		return fmt.Sprintf("return %s", v(in.A))
	case OpReturnVoid:
		return "return-void"
	case OpThrow:
		return fmt.Sprintf("throw %s", v(in.A))
	case OpArrayLength:
		return fmt.Sprintf("array-length %s, %s", v(in.A), v(in.B))
	case OpCheckCast:
		return fmt.Sprintf("check-cast %s, %s", v(in.A), JavaToDesc(in.Str))
	case OpInstanceOf:
		return fmt.Sprintf("instance-of %s, %s, %s", v(in.A), v(in.B), JavaToDesc(in.Str))
	default:
		if in.Op.IsInvoke() {
			args := make([]string, len(in.Args))
			for i, a := range in.Args {
				args[i] = v(a)
			}
			return fmt.Sprintf("%s {%s}, %s", in.Op, strings.Join(args, ", "), in.Method)
		}
		return "op?"
	}
}

// identifiers extracts every class, method and field identifier defined in
// the file. Package segments of class names are included individually.
// The lexical-obfuscation detector consumes this.
func Identifiers(f *File) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(id string) {
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, c := range f.Classes {
		for _, seg := range strings.Split(c.Name, ".") {
			add(seg)
		}
		for _, fl := range c.Fields {
			add(fl.Name)
		}
		for _, m := range c.Methods {
			if !strings.HasPrefix(m.Name, "<") { // skip <init>/<clinit>
				add(m.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}
