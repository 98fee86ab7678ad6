package dex

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses smali-like text produced by DisassembleClass back into a
// class. It is the oracle of the disassembler's round-trip tests.
func Assemble(src string) (*Class, error) {
	p := &asmParser{lines: strings.Split(src, "\n")}
	c, err := p.parseClass()
	if err != nil {
		return nil, fmt.Errorf("dex: assemble: line %d: %w", p.pos, err)
	}
	return c, nil
}

type asmParser struct {
	lines []string
	pos   int
}

func (p *asmParser) next() (string, bool) {
	for p.pos < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.pos])
		p.pos++
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (p *asmParser) parseClass() (*Class, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, ".class ") {
		return nil, fmt.Errorf("expected .class directive, got %q", line)
	}
	toks := strings.Fields(line)
	desc := toks[len(toks)-1]
	c := &Class{
		Name:  DescToJava(desc),
		Flags: parseFlags(toks[1 : len(toks)-1]),
	}
	for {
		line, ok := p.next()
		if !ok {
			return c, nil
		}
		switch {
		case strings.HasPrefix(line, ".super "):
			c.Super = DescToJava(strings.TrimSpace(strings.TrimPrefix(line, ".super ")))
		case strings.HasPrefix(line, ".source "):
			s, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(line, ".source ")))
			if err != nil {
				return nil, fmt.Errorf("bad .source: %w", err)
			}
			c.SourceFile = s
		case strings.HasPrefix(line, ".implements "):
			c.Interfaces = append(c.Interfaces,
				DescToJava(strings.TrimSpace(strings.TrimPrefix(line, ".implements "))))
		case strings.HasPrefix(line, ".field "):
			fl, err := parseField(line)
			if err != nil {
				return nil, err
			}
			c.Fields = append(c.Fields, fl)
		case strings.HasPrefix(line, ".method "):
			m, err := p.parseMethod(line)
			if err != nil {
				return nil, err
			}
			c.Methods = append(c.Methods, m)
		default:
			return nil, fmt.Errorf("unexpected directive %q", line)
		}
	}
}

func parseFlags(toks []string) AccessFlags {
	var f AccessFlags
	for _, t := range toks {
		switch t {
		case "public":
			f |= ACCPublic
		case "private":
			f |= ACCPrivate
		case "protected":
			f |= ACCProtected
		case "static":
			f |= ACCStatic
		case "final":
			f |= ACCFinal
		case "native":
			f |= ACCNative
		case "interface":
			f |= ACCInterface
		case "abstract":
			f |= ACCAbstract
		case "synthetic":
			f |= ACCSynthetic
		case "constructor":
			f |= ACCConstruct
		case "default":
			// placeholder emitted when no flags are set
		}
	}
	return f
}

func parseField(line string) (*Field, error) {
	toks := strings.Fields(strings.TrimPrefix(line, ".field "))
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty .field")
	}
	nameType := toks[len(toks)-1]
	i := strings.LastIndex(nameType, ":")
	if i < 0 {
		return nil, fmt.Errorf("bad .field %q: missing type", line)
	}
	return &Field{
		Name:  nameType[:i],
		Type:  nameType[i+1:],
		Flags: parseFlags(toks[:len(toks)-1]),
	}, nil
}

func (p *asmParser) parseMethod(header string) (*Method, error) {
	toks := strings.Fields(strings.TrimPrefix(header, ".method "))
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty .method")
	}
	sigTok := toks[len(toks)-1]
	open := strings.Index(sigTok, "(")
	closeIdx := strings.Index(sigTok, ")")
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("bad method signature %q", sigTok)
	}
	params, err := splitDescriptors(sigTok[open+1 : closeIdx])
	if err != nil {
		return nil, fmt.Errorf("method %q: %w", sigTok, err)
	}
	m := &Method{
		Name:   sigTok[:open],
		Params: params,
		Return: sigTok[closeIdx+1:],
		Flags:  parseFlags(toks[:len(toks)-1]),
	}
	labels := make(map[string]int)
	type fixup struct {
		instr int
		label string
	}
	var fixups []fixup
	for {
		line, ok := p.next()
		if !ok {
			return nil, fmt.Errorf("unterminated method %s", m.Name)
		}
		switch {
		case line == ".end method":
			for _, fx := range fixups {
				t, ok := labels[fx.label]
				if !ok {
					return nil, fmt.Errorf("method %s: unknown label :%s", m.Name, fx.label)
				}
				m.Code[fx.instr].Target = t
			}
			return m, nil
		case strings.HasPrefix(line, ".registers "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".registers ")))
			if err != nil {
				return nil, fmt.Errorf("bad .registers: %w", err)
			}
			m.Registers = n
		case strings.HasPrefix(line, ":"):
			labels[line[1:]] = len(m.Code)
		default:
			in, label, err := parseInstr(line)
			if err != nil {
				return nil, fmt.Errorf("method %s: %w", m.Name, err)
			}
			if label != "" {
				fixups = append(fixups, fixup{len(m.Code), label})
			}
			m.Code = append(m.Code, in)
		}
	}
}

// splitDescriptors splits a concatenated parameter descriptor string into
// individual descriptors.
func splitDescriptors(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		d, rest, err := scanDescriptor(s)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		s = rest
	}
	return out, nil
}

func scanDescriptor(s string) (desc, rest string, err error) {
	i := 0
	for i < len(s) && s[i] == '[' {
		i++
	}
	if i >= len(s) {
		return "", "", fmt.Errorf("truncated descriptor %q", s)
	}
	switch s[i] {
	case 'L':
		j := strings.IndexByte(s[i:], ';')
		if j < 0 {
			return "", "", fmt.Errorf("unterminated class descriptor %q", s)
		}
		return s[:i+j+1], s[i+j+1:], nil
	case 'V', 'Z', 'B', 'S', 'C', 'I', 'J', 'F', 'D':
		return s[:i+1], s[i+1:], nil
	default:
		return "", "", fmt.Errorf("bad descriptor %q", s)
	}
}

// parseInstr parses one instruction line; for branch instructions the
// returned label is the pending target.
func parseInstr(line string) (Instruction, string, error) {
	mnemonic, rest := splitMnemonic(line)
	op, ok := opByName(mnemonic)
	if !ok {
		return Instruction{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	ops, err := splitOperands(rest)
	if err != nil {
		return Instruction{}, "", err
	}
	in := Instruction{Op: op}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s: want %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}
	reg := func(s string) (int, error) {
		if !strings.HasPrefix(s, "v") {
			return 0, fmt.Errorf("bad register %q", s)
		}
		return strconv.Atoi(s[1:])
	}
	switch op {
	case OpNop, OpReturnVoid:
		return in, "", need(0)
	case OpConst:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		in.Value, err = strconv.ParseInt(ops[1], 10, 64)
		return in, "", err
	case OpConstString:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		in.Str, err = strconv.Unquote(ops[1])
		return in, "", err
	case OpNewInstance, OpCheckCast:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		in.Str = DescToJava(ops[1])
		return in, "", nil
	case OpNewArray, OpInstanceOf:
		if err := need(3); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		if in.B, err = reg(ops[1]); err != nil {
			return in, "", err
		}
		if op == OpNewArray {
			in.Str = ops[2]
		} else {
			in.Str = DescToJava(ops[2])
		}
		return in, "", nil
	case OpMove, OpArrayLength:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		in.B, err = reg(ops[1])
		return in, "", err
	case OpMoveResult, OpReturn, OpThrow:
		if err := need(1); err != nil {
			return in, "", err
		}
		in.A, err = reg(ops[0])
		return in, "", err
	case OpIGet, OpIPut:
		if err := need(3); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		if in.B, err = reg(ops[1]); err != nil {
			return in, "", err
		}
		in.Field, err = parseFieldRef(ops[2])
		return in, "", err
	case OpSGet, OpSPut:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		in.Field, err = parseFieldRef(ops[1])
		return in, "", err
	case OpAdd, OpSub, OpMul, OpDiv, OpXor, OpArrayGet, OpArrayPut:
		if err := need(3); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		if in.B, err = reg(ops[1]); err != nil {
			return in, "", err
		}
		in.C, err = reg(ops[2])
		return in, "", err
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe:
		if err := need(3); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		if in.B, err = reg(ops[1]); err != nil {
			return in, "", err
		}
		return in, strings.TrimPrefix(ops[2], ":"), nil
	case OpIfEqz, OpIfNez:
		if err := need(2); err != nil {
			return in, "", err
		}
		if in.A, err = reg(ops[0]); err != nil {
			return in, "", err
		}
		return in, strings.TrimPrefix(ops[1], ":"), nil
	case OpGoto:
		if err := need(1); err != nil {
			return in, "", err
		}
		return in, strings.TrimPrefix(ops[0], ":"), nil
	default: // invokes
		if len(ops) < 2 {
			return in, "", fmt.Errorf("%s: want {args}, methodref", mnemonic)
		}
		argsPart := ops[0]
		if !strings.HasPrefix(argsPart, "{") || !strings.HasSuffix(argsPart, "}") {
			return in, "", fmt.Errorf("%s: bad args %q", mnemonic, argsPart)
		}
		inner := strings.TrimSpace(argsPart[1 : len(argsPart)-1])
		if inner != "" {
			for _, a := range strings.Split(inner, ",") {
				r, err := reg(strings.TrimSpace(a))
				if err != nil {
					return in, "", err
				}
				in.Args = append(in.Args, r)
			}
		}
		in.Method, err = parseMethodRef(ops[1])
		return in, "", err
	}
}

func splitMnemonic(line string) (mnemonic, rest string) {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i], strings.TrimSpace(line[i+1:])
	}
	return line, ""
}

// splitOperands splits on commas that are outside quotes and braces.
func splitOperands(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if inStr || depth != 0 {
		return nil, fmt.Errorf("unbalanced operands %q", s)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out, nil
}

// parseMethodRef parses "Lpkg/Cls;->name(sig)ret".
func parseMethodRef(s string) (MethodRef, error) {
	i := strings.Index(s, "->")
	if i < 0 {
		return MethodRef{}, fmt.Errorf("bad method ref %q", s)
	}
	open := strings.Index(s[i:], "(")
	if open < 0 {
		return MethodRef{}, fmt.Errorf("bad method ref %q: no signature", s)
	}
	return MethodRef{
		Class: DescToJava(s[:i]),
		Name:  s[i+2 : i+open],
		Sig:   s[i+open:],
	}, nil
}

// parseFieldRef parses "Lpkg/Cls;->name:type".
func parseFieldRef(s string) (FieldRef, error) {
	i := strings.Index(s, "->")
	if i < 0 {
		return FieldRef{}, fmt.Errorf("bad field ref %q", s)
	}
	j := strings.LastIndex(s, ":")
	if j < i {
		return FieldRef{}, fmt.Errorf("bad field ref %q: no type", s)
	}
	return FieldRef{
		Class: DescToJava(s[:i]),
		Name:  s[i+2 : j],
		Type:  s[j+1:],
	}, nil
}

// opByName resolves a smali mnemonic back to its opcode.
func opByName(name string) (Opcode, bool) {
	for op, n := range opNames {
		if n == name {
			return Opcode(op), true
		}
	}
	return 0, false
}

// DescToJava converts a class type descriptor back to a Java binary name.
// Non-class descriptors are returned unchanged.
func DescToJava(desc string) string {
	if strings.HasPrefix(desc, "L") && strings.HasSuffix(desc, ";") {
		return strings.ReplaceAll(desc[1:len(desc)-1], "/", ".")
	}
	return desc
}
