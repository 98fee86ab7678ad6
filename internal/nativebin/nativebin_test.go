package nativebin

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// xorLib builds a library whose "decrypt" symbol XORs a buffer in place:
// r0 = buffer address, r1 = length, r2 = key byte.
func xorLib() *Library {
	b := NewBuilder("libshell.so", "arm")
	b.Symbol("decrypt").
		MovI(3, 0). // index
		Label("top").
		MovR(4, 1).
		Cmp(3, 4).
		Bge("done").
		Add(5, 0, 3). // addr = buf + i
		Ldrb(6, 5, 0).
		Xor(6, 6, 2).
		Strb(6, 5, 0).
		AddI(3, 3, 1).
		B("top").
		Label("done").
		Ret()
	return b.Build()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := xorLib()
	data, err := Encode(l)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !IsSELF(data) {
		t.Fatal("missing SELF magic")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(normalizeLib(l), normalizeLib(got)) {
		t.Fatalf("round-trip mismatch:\nwant %+v\ngot  %+v", l, got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(xorLib())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)-6] }},
		{"flipped body", func(d []byte) []byte { d[15] ^= 0xff; return d }},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.mutate(append([]byte(nil), data...))); err == nil {
				t.Fatal("Decode accepted corrupted input")
			}
		})
	}
}

func TestMachineXorDecrypt(t *testing.T) {
	m := NewMachine(xorLib(), nil)
	plain := []byte("attack at dawn")
	enc := make([]byte, len(plain))
	const key = 0x5a
	for i, c := range plain {
		enc[i] = c ^ key
	}
	addr, err := m.Alloc(int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBytes(addr, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("decrypt", addr, int64(len(enc)), key); err != nil {
		t.Fatalf("Call: %v", err)
	}
	got, err := m.ReadBytes(addr, int64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(plain) {
		t.Fatalf("decrypt produced %q, want %q", got, plain)
	}
}

func TestMachineCallUnknownSymbol(t *testing.T) {
	m := NewMachine(xorLib(), nil)
	if _, err := m.Call("nope"); !errors.Is(err, ErrNoSymbol) {
		t.Fatalf("err = %v, want ErrNoSymbol", err)
	}
}

func TestMachineStepBudget(t *testing.T) {
	b := NewBuilder("libloop.so", "arm")
	b.Symbol("spin").Label("l").B("l")
	m := NewMachine(b.Build(), nil)
	m.StepBudget = 1000
	if _, err := m.Call("spin"); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
}

func TestMachineSyscallDispatch(t *testing.T) {
	b := NewBuilder("libsys.so", "arm")
	pathAddr := b.CString("/data/data/victim/file")
	b.Symbol("attack").
		MovI(0, pathAddr).
		Svc(SysOpen).
		MovI(0, 1234).
		Svc(SysPtrace).
		Ret()
	var calls []string
	sys := SyscallFunc(func(mem Memory, num int64, args [4]int64) (int64, error) {
		switch num {
		case SysOpen:
			s, err := mem.ReadCString(args[0])
			if err != nil {
				return -1, err
			}
			calls = append(calls, "open:"+s)
			return 3, nil
		case SysPtrace:
			calls = append(calls, "ptrace")
			return 0, nil
		}
		return -1, nil
	})
	m := NewMachine(b.Build(), sys)
	if _, err := m.Call("attack"); err != nil {
		t.Fatalf("Call: %v", err)
	}
	want := []string{"open:/data/data/victim/file", "ptrace"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("syscalls = %v, want %v", calls, want)
	}
}

func TestMachineExitStopsExecution(t *testing.T) {
	b := NewBuilder("libexit.so", "arm")
	b.Symbol("main").
		MovI(0, 42).
		Svc(SysExit).
		MovI(0, 7). // must not run
		Ret()
	m := NewMachine(b.Build(), nil)
	res, err := m.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if res != 42 {
		t.Fatalf("result = %d, want 42 (exit should stop execution)", res)
	}
}

func TestMachineNestedCalls(t *testing.T) {
	b := NewBuilder("libcall.so", "arm")
	b.Symbol("double").
		Add(0, 0, 0).
		Ret()
	b.Symbol("quad").
		Bl("double").
		Bl("double").
		Ret()
	m := NewMachine(b.Build(), nil)
	res, err := m.Call("quad", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res != 12 {
		t.Fatalf("quad(3) = %d, want 12", res)
	}
}

func TestMachinePushPop(t *testing.T) {
	b := NewBuilder("libstack.so", "arm")
	b.Symbol("swapish").
		Push(0).
		MovI(0, 99).
		Pop(1).
		Add(0, 0, 1).
		Ret()
	m := NewMachine(b.Build(), nil)
	res, err := m.Call("swapish", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res != 100 {
		t.Fatalf("result = %d, want 100", res)
	}
}

func TestMachinePopEmptyStack(t *testing.T) {
	b := NewBuilder("libbad.so", "arm")
	b.Symbol("bad").Pop(0).Ret()
	m := NewMachine(b.Build(), nil)
	if _, err := m.Call("bad"); err == nil {
		t.Fatal("pop on empty stack did not error")
	}
}

func TestMachineMemoryFaults(t *testing.T) {
	b := NewBuilder("libfault.so", "arm")
	b.Symbol("fault").
		MovI(1, MemSize+100).
		Ldrb(0, 1, 0).
		Ret()
	m := NewMachine(b.Build(), nil)
	if _, err := m.Call("fault"); !errors.Is(err, ErrMemFault) {
		t.Fatalf("err = %v, want ErrMemFault", err)
	}
}

func TestValidateRejectsBadTargets(t *testing.T) {
	l := &Library{Soname: "x.so", Arch: "arm", Code: []Instr{{Op: B, Target: 99}}}
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted bad branch target")
	}
	l = &Library{Soname: "x.so", Arch: "arm",
		Symbols: []Symbol{{Name: "f", Entry: 5}}, Code: []Instr{{Op: Ret}}}
	if err := l.Validate(); err == nil {
		t.Fatal("Validate accepted bad symbol entry")
	}
}

func TestDisassembleMentionsSymbolsAndOps(t *testing.T) {
	text := Disassemble(xorLib())
	for _, want := range []string{"libshell.so", "decrypt:", "eor", "ldrb", "strb", "ret"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func randLib(r *rand.Rand) *Library {
	b := NewBuilder("librand.so", "arm")
	b.Symbol("entry")
	n := 1 + r.Intn(20)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0:
			b.MovI(r.Intn(NumRegs), int64(r.Intn(100)))
		case 1:
			b.MovR(r.Intn(NumRegs), r.Intn(NumRegs))
		case 2:
			b.Add(r.Intn(NumRegs), r.Intn(NumRegs), r.Intn(NumRegs))
		case 3:
			b.Xor(r.Intn(NumRegs), r.Intn(NumRegs), r.Intn(NumRegs))
		case 4:
			b.CmpI(r.Intn(NumRegs), int64(r.Intn(10)))
		case 5:
			b.Nop()
		}
	}
	b.Ret()
	if r.Intn(2) == 0 {
		b.CString("random data")
	}
	return b.Build()
}

func TestPropertyEncodeDecodeRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 50,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randLib(r))
		},
	}
	prop := func(l *Library) bool {
		data, err := Encode(l)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalizeLib(l), normalizeLib(got))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStraightLineTerminates(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randLib(r))
		},
	}
	prop := func(l *Library) bool {
		m := NewMachine(l, nil)
		_, err := m.Call("entry")
		return err == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func normalizeLib(l *Library) *Library {
	nl := *l
	if len(nl.Data) == 0 {
		nl.Data = nil
	}
	if len(nl.Symbols) == 0 {
		nl.Symbols = nil
	}
	if len(nl.Code) == 0 {
		nl.Code = nil
	}
	return &nl
}

func TestAllOpsEncodeDisassemble(t *testing.T) {
	// One instruction of every opcode round-trips and disassembles.
	b := NewBuilder("liball.so", "x86")
	b.CString("data")
	b.Symbol("all").
		Nop().
		MovI(0, 7).
		MovR(1, 0).
		Ldrb(2, 1, 4).
		Strb(2, 1, 4).
		Add(3, 0, 1).
		Sub(3, 0, 1).
		Xor(3, 0, 1).
		And(3, 0, 1).
		Orr(3, 0, 1).
		AddI(3, 0, 9).
		Cmp(0, 1).
		CmpI(0, 5).
		Label("x").
		Beq("x").
		Bne("x").
		Blt("x").
		Bge("x").
		B("end").
		Label("end").
		Bl("all").
		Svc(SysTime).
		Push(0).
		Pop(1).
		Ret()
	lib := b.Build()
	data, err := Encode(lib)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeLib(lib), normalizeLib(got)) {
		t.Fatal("all-ops round trip mismatch")
	}
	text := Disassemble(got)
	for _, want := range []string{"mov r0, #7", "movr r1, r0", "ldrb", "strb",
		"add", "sub", "eor", "and", "orr", "addi", "cmp", "cmpi",
		"beq", "bne", "blt", "bge", "bl all", "svc #13", "push", "pop", "ret",
		"arch=x86"} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestMachineAndOrrSemantics(t *testing.T) {
	b := NewBuilder("libbits.so", "arm")
	b.Symbol("bits").
		MovI(1, 0b1100).
		MovI(2, 0b1010).
		And(3, 1, 2).
		Orr(4, 1, 2).
		Add(0, 3, 4). // 8 + 14 = 22
		Ret()
	m := NewMachine(b.Build(), nil)
	res, err := m.Call("bits")
	if err != nil {
		t.Fatal(err)
	}
	if res != 22 {
		t.Fatalf("and/orr combination = %d, want 22", res)
	}
}

func TestMachineConditionalBranchDirections(t *testing.T) {
	// blt taken and not taken; bge taken and not taken.
	mk := func(a, b int64) int64 {
		nb := NewBuilder("libcmp.so", "arm")
		nb.Symbol("f").
			MovI(1, a).
			MovI(2, b).
			Cmp(1, 2).
			Blt("less").
			MovI(0, 100).
			Ret().
			Label("less").
			MovI(0, 200).
			Ret()
		m := NewMachine(nb.Build(), nil)
		res, err := m.Call("f")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if mk(1, 2) != 200 || mk(3, 2) != 100 || mk(2, 2) != 100 {
		t.Fatal("comparison branch semantics wrong")
	}
}

func TestWriteStringAndAllocBounds(t *testing.T) {
	b := NewBuilder("libmem.so", "arm")
	b.Symbol("f").Ret()
	m := NewMachine(b.Build(), nil)
	addr, err := m.WriteString("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadCString(addr)
	if err != nil || s != "/a/b/c" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
	if _, err := m.Alloc(MemSize * 2); err == nil {
		t.Fatal("oversized alloc accepted")
	}
	if _, err := m.ReadBytes(-1, 4); err == nil {
		t.Fatal("negative read accepted")
	}
	if err := m.WriteBytes(MemSize-1, []byte{1, 2, 3}); err == nil {
		t.Fatal("overflowing write accepted")
	}
	if _, err := m.ReadCString(MemSize + 5); err == nil {
		t.Fatal("out-of-range cstring accepted")
	}
}

// SyscallFunc adapts a function to SyscallHandler.
type SyscallFunc func(mem Memory, num int64, args [4]int64) (int64, error)

// Syscall implements SyscallHandler.
func (f SyscallFunc) Syscall(mem Memory, num int64, args [4]int64) (int64, error) {
	return f(mem, num, args)
}
