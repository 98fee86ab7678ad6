package nativebin

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// svcProbe is the trap number of memProbeLib's syscall.
const svcProbe = 0x7e

// memProbeLib maps data and exports "probe": it stores r3's low byte at
// r2, loads the byte at r1 into r4 (which holds r3 before, so a load
// that leaves it alone shows), traps to svcProbe, then loads the byte at
// the original r0 into r5.
func memProbeLib(data []byte) *Library {
	b := NewBuilder("libprobe.so", "arm")
	b.Data(data)
	b.Symbol("probe").
		MovR(6, 0).
		MovR(4, 3).
		Strb(3, 2, 0).
		Ldrb(4, 1, 0).
		Svc(svcProbe).
		Ldrb(5, 6, 0).
		Ret()
	return b.Build()
}

// probeHandler serves svcProbe on args r0-r3: ReadCString(r0), then
// ReadBytes(r1, r3), then WriteBytes(r2, the bytes read), logging every
// result. It returns the string's length.
func probeHandler(log *[]string) SyscallHandler {
	return SyscallFunc(func(mem Memory, num int64, a [4]int64) (int64, error) {
		s, err := mem.ReadCString(a[0])
		*log = append(*log, fmt.Sprintf("cstring %q %v", s, err))
		p, err := mem.ReadBytes(a[1], a[3])
		*log = append(*log, fmt.Sprintf("read %x %v", p, err))
		err = mem.WriteBytes(a[2], p)
		*log = append(*log, fmt.Sprintf("write %v", err))
		return int64(len(s)), nil
	})
}

// machineRun is everything observable about one probe call.
type machineRun struct {
	ret  int64
	err  string
	regs [NumRegs]int64
	log  []string
}

// runProbe calls "probe" with the given registers, on a machine grown to
// MemSize up front when eager is set, and returns the run and the
// machine.
func runProbe(lib *Library, eager bool, regs [4]int64) (machineRun, *Machine) {
	var r machineRun
	m := NewMachine(lib, probeHandler(&r.log))
	if eager {
		m.grow(MemSize)
	}
	ret, err := m.Call("probe", regs[:]...)
	r.ret, r.regs = ret, m.Regs
	if err != nil {
		r.err = err.Error()
	}
	return r, m
}

// FuzzMachineCall runs the same call on a machine whose memory grows on
// first write and on one materialized to MemSize up front. Return value,
// error, registers, the syscall handler's log and memory contents must
// agree: growing on demand is not observable. The seeds aim at the
// materialized end, the last valid byte and the first invalid one; the
// committed corpus adds the data segments of generated marketplace
// libraries.
func FuzzMachineCall(f *testing.F) {
	data := []byte("/data/data/com.tencent.mm/\x00hook\x00")
	past := int64(0x30000) // beyond any seed's materialized end
	for _, regs := range [][4]int64{
		{DataBase, DataBase, HeapBase, 8},
		{past, past, HeapBase, 4},
		{past, past, past, 4},
		{MemSize - 1, MemSize - 1, MemSize - 1, 1},
		{MemSize - 1, MemSize - 1, DataBase, 1},
		{MemSize, MemSize, MemSize, 1},
		{MemSize, DataBase, DataBase, 1},
		{DataBase, past, MemSize - 4, 4},
		{past, DataBase, past, int64(len(data))},
		{DataBase + 3, 0, 1, MemSize},
		{1, 1, 1, 1<<63 - 1},
	} {
		f.Add(data, regs[0], regs[1], regs[2], regs[3])
	}
	f.Add(xorLib().Data, int64(HeapBase), int64(DataBase), int64(past), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, r0, r1, r2, r3 int64) {
		lib := memProbeLib(data)
		regs := [4]int64{r0, r1, r2, r3}
		lazy, lm := runProbe(lib, false, regs)
		eager, em := runProbe(lib, true, regs)
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("lazy and eager machines differ:\nlazy:  %+v\neager: %+v", lazy, eager)
		}
		if !bytes.Equal(em.mem, append(lm.mem, make([]byte, MemSize-len(lm.mem))...)) {
			t.Fatal("lazy memory differs from eager memory")
		}
	})
}

// TestMachineLazyMemoryBoundaries pins the edges of on-demand memory: an
// untouched byte reads 0 and an empty C string, a write at MemSize-1
// succeeds and materializes up to it, and MemSize faults on every path,
// as does an access whose end overflows.
func TestMachineLazyMemoryBoundaries(t *testing.T) {
	lib := memProbeLib([]byte("abc\x00"))
	untouched := int64(0x30000)
	t.Run("fresh machine holds only the data segment", func(t *testing.T) {
		m := NewMachine(lib, nil)
		if len(m.mem) != DataBase+4 {
			t.Fatalf("materialized %d bytes, want %d", len(m.mem), DataBase+4)
		}
	})
	t.Run("read past the end is 0", func(t *testing.T) {
		m := NewMachine(lib, nil)
		p, err := m.ReadBytes(untouched-2, 4)
		if err != nil || !bytes.Equal(p, make([]byte, 4)) {
			t.Fatalf("ReadBytes = %x, %v", p, err)
		}
		s, err := m.ReadCString(untouched)
		if err != nil || s != "" {
			t.Fatalf("ReadCString(untouched) = %q, %v", s, err)
		}
		s, err = m.ReadCString(DataBase + 1)
		if err != nil || s != "bc" {
			t.Fatalf("ReadCString(data) = %q, %v", s, err)
		}
		if len(m.mem) != DataBase+4 {
			t.Fatalf("reads grew memory to %d bytes", len(m.mem))
		}
	})
	t.Run("string ends at the materialized end", func(t *testing.T) {
		m := NewMachine(memProbeLib([]byte("xyz")), nil)
		s, err := m.ReadCString(DataBase)
		if err != nil || s != "xyz" {
			t.Fatalf("ReadCString = %q, %v", s, err)
		}
	})
	t.Run("write at MemSize-1", func(t *testing.T) {
		var log []string
		m := NewMachine(lib, probeHandler(&log))
		if _, err := m.Call("probe", MemSize-1, untouched, MemSize-1, 9); err != nil {
			t.Fatal(err)
		}
		if len(m.mem) != MemSize || m.mem[MemSize-1] != 9 || m.Regs[4] != 0 {
			t.Fatalf("len(mem)=%d mem[MemSize-1]=%d r4=%d", len(m.mem), m.mem[MemSize-1], m.Regs[4])
		}
		// The top byte is now set, so a string there runs into MemSize.
		if !strings.Contains(log[0], "unterminated cstring") {
			t.Fatalf("ReadCString(MemSize-1) logged %q", log[0])
		}
		if err := m.WriteBytes(MemSize-2, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("MemSize faults", func(t *testing.T) {
		m := NewMachine(lib, nil)
		if err := m.WriteBytes(MemSize, []byte{1}); !errors.Is(err, ErrMemFault) {
			t.Fatalf("WriteBytes: %v", err)
		}
		if _, err := m.ReadBytes(MemSize, 1); !errors.Is(err, ErrMemFault) {
			t.Fatalf("ReadBytes: %v", err)
		}
		// A length or address whose end overflows int64 faults too.
		if _, err := m.ReadBytes(1, 1<<63-1); !errors.Is(err, ErrMemFault) {
			t.Fatalf("ReadBytes with an overflowing end: %v", err)
		}
		if err := m.WriteBytes(1<<63-1, []byte{1}); !errors.Is(err, ErrMemFault) {
			t.Fatalf("WriteBytes with an overflowing end: %v", err)
		}
		if _, err := m.Alloc(1<<63 - 1); !errors.Is(err, ErrMemFault) {
			t.Fatalf("Alloc with an overflowing end: %v", err)
		}
		if _, err := m.ReadCString(MemSize); !errors.Is(err, ErrMemFault) {
			t.Fatalf("ReadCString: %v", err)
		}
		for _, regs := range [][]int64{{0, 0, MemSize, 0}, {0, MemSize, 0, 0}} {
			if _, err := m.Call("probe", regs...); !errors.Is(err, ErrMemFault) {
				t.Fatalf("probe %v: %v", regs, err)
			}
		}
		if len(m.mem) != DataBase+4 {
			t.Fatalf("faults grew memory to %d bytes", len(m.mem))
		}
	})
}
