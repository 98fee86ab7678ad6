package nativebin

import (
	"bytes"
	"errors"
	"fmt"
)

// Memory layout constants. The machine exposes a small flat address space:
// the data segment is mapped at DataBase, and Alloc hands out scratch
// memory from HeapBase upward (used for JNI argument marshaling and I/O
// buffers).
const (
	// MemSize is the size of the flat address space and the bound on
	// every access. The space is materialized on first write: a machine
	// starts with the bytes up to the end of its data segment, grows on a
	// write past them, and reads every untouched byte as 0.
	MemSize = 1 << 18
	// DataBase is where the library's data segment is mapped.
	DataBase = 0x1000
	// HeapBase is where Alloc starts handing out memory.
	HeapBase = 0x10000
)

// Syscall numbers understood by the machine. The assignments follow the
// Linux ARM EABI flavour where one exists (ptrace is 26, exit is 1, ...),
// so disassembly of malicious libraries reads like the real thing.
const (
	SysExit    = 1
	SysRead    = 3
	SysWrite   = 4
	SysOpen    = 5
	SysClose   = 6
	SysUnlink  = 10
	SysTime    = 13
	SysSetuid  = 23
	SysGetuid  = 24
	SysPtrace  = 26
	SysRename  = 38
	SysConnect = 283
	SysSend    = 289
	// SysFindProc is a simulator-specific trap: resolve a package name (a
	// C-string pointer in R0) to a PID, standing in for the /proc scan
	// real process-hooking malware performs.
	SysFindProc = 0x80
)

// Errors returned by the machine.
var (
	// ErrStepBudget is returned when execution exceeds the step budget
	// (runaway or deliberately stalling native code).
	ErrStepBudget = errors.New("nativebin: step budget exhausted")
	// ErrNoSymbol is returned by Call for an unknown entry point.
	ErrNoSymbol = errors.New("nativebin: no such symbol")
	// ErrMemFault is returned for out-of-range memory access.
	ErrMemFault = errors.New("nativebin: memory fault")
)

// SyscallHandler connects native code to the simulated system. The VM
// installs a handler that routes file syscalls into the device storage,
// network syscalls into netsim, ptrace into the framework's process table,
// and time into the device clock — that routing is what lets DyDroid
// observe native malware behaviour.
type SyscallHandler interface {
	// Syscall handles trap number num with arguments from R0-R3. The
	// returned value lands in R0. mem grants access to machine memory for
	// pointer arguments.
	Syscall(mem Memory, num int64, args [4]int64) (int64, error)
}

// Memory is the machine memory view handed to syscall handlers.
type Memory interface {
	// ReadBytes copies n bytes starting at addr.
	ReadBytes(addr, n int64) ([]byte, error)
	// WriteBytes copies p into memory at addr.
	WriteBytes(addr int64, p []byte) error
	// ReadCString reads a NUL-terminated string at addr.
	ReadCString(addr int64) (string, error)
}

// Machine interprets SELF code. The zero value is not usable; construct
// with NewMachine.
type Machine struct {
	lib   *Library
	Regs  [NumRegs]int64
	flags int // sign of last comparison: -1, 0, +1
	// mem holds addresses [0, len(mem)); every byte past its end is 0.
	mem []byte
	sys SyscallHandler
	// StepBudget bounds total instructions per Call. The default (1 << 20)
	// comfortably covers packer decryption loops while terminating
	// ptrace-style infinite loops.
	StepBudget int
	heap       int64
	stack      []int64
	exited     bool
}

// NewMachine maps the library and installs the syscall handler (which may
// be nil, making every Svc fail).
func NewMachine(lib *Library, sys SyscallHandler) *Machine {
	m := &Machine{
		lib:        lib,
		mem:        make([]byte, min(DataBase+len(lib.Data), MemSize)),
		sys:        sys,
		StepBudget: 1 << 20,
		heap:       HeapBase,
	}
	copy(m.mem[DataBase:], lib.Data)
	return m
}

// grow materializes memory up to end, which the caller has checked
// against MemSize. The new bytes are zero, as they read before.
func (m *Machine) grow(end int64) {
	if n := end - int64(len(m.mem)); n > 0 {
		m.mem = append(m.mem, make([]byte, n)...)
	}
}

// Alloc reserves n bytes of scratch memory and returns its address.
func (m *Machine) Alloc(n int64) (int64, error) {
	if n < 0 || n > MemSize-m.heap {
		return 0, fmt.Errorf("%w: alloc %d bytes at heap %#x", ErrMemFault, n, m.heap)
	}
	addr := m.heap
	m.heap += n
	return addr, nil
}

// WriteString copies a NUL-terminated string into fresh memory and returns
// its address — the JNI argument-marshaling helper.
func (m *Machine) WriteString(s string) (int64, error) {
	addr, err := m.Alloc(int64(len(s)) + 1)
	if err != nil {
		return 0, err
	}
	m.grow(addr + int64(len(s)) + 1)
	copy(m.mem[addr:], s)
	m.mem[addr+int64(len(s))] = 0
	return addr, nil
}

// ReadBytes implements Memory.
func (m *Machine) ReadBytes(addr, n int64) ([]byte, error) {
	if addr < 0 || n < 0 || n > MemSize-addr {
		return nil, fmt.Errorf("%w: read [%#x,%#x)", ErrMemFault, addr, addr+n)
	}
	out := make([]byte, n)
	if addr < int64(len(m.mem)) {
		copy(out, m.mem[addr:])
	}
	return out, nil
}

// WriteBytes implements Memory.
func (m *Machine) WriteBytes(addr int64, p []byte) error {
	if addr < 0 || int64(len(p)) > MemSize-addr {
		return fmt.Errorf("%w: write [%#x,%#x)", ErrMemFault, addr, addr+int64(len(p)))
	}
	m.grow(addr + int64(len(p)))
	copy(m.mem[addr:], p)
	return nil
}

// ReadCString implements Memory. The string ends at the first 0 byte;
// past the materialized end that is the first untouched byte.
func (m *Machine) ReadCString(addr int64) (string, error) {
	if addr < 0 || addr >= MemSize {
		return "", fmt.Errorf("%w: cstring at %#x", ErrMemFault, addr)
	}
	if addr >= int64(len(m.mem)) {
		return "", nil
	}
	if i := bytes.IndexByte(m.mem[addr:], 0); i >= 0 {
		return string(m.mem[addr : addr+int64(i)]), nil
	}
	if len(m.mem) < MemSize {
		return string(m.mem[addr:]), nil
	}
	return "", fmt.Errorf("%w: unterminated cstring at %#x", ErrMemFault, addr)
}

// Call invokes the named symbol with up to four arguments in R0-R3 and
// runs until the function returns (or the program exits or faults). The
// result is R0 at return.
func (m *Machine) Call(sym string, args ...int64) (int64, error) {
	entry, ok := m.lib.FindSymbol(sym)
	if !ok {
		return 0, fmt.Errorf("%w: %q in %s", ErrNoSymbol, sym, m.lib.Soname)
	}
	if len(args) > 4 {
		return 0, fmt.Errorf("nativebin: call %q: %d args exceeds 4-register convention", sym, len(args))
	}
	for i, a := range args {
		m.Regs[i] = a
	}
	m.exited = false
	if err := m.run(entry); err != nil {
		return m.Regs[0], err
	}
	return m.Regs[0], nil
}

// run executes from pc until a Ret at the top call frame.
func (m *Machine) run(pc int) error {
	type frame struct{ ret int }
	var frames []frame
	steps := 0
	for {
		if steps++; steps > m.StepBudget {
			return fmt.Errorf("%w after %d steps in %s", ErrStepBudget, steps-1, m.lib.Soname)
		}
		if m.exited {
			return nil
		}
		if pc < 0 || pc >= len(m.lib.Code) {
			// Falling off the end of the code behaves like Ret at top level,
			// matching a function assembled without an explicit return.
			if len(frames) == 0 {
				return nil
			}
			return fmt.Errorf("%w: pc %d outside code", ErrMemFault, pc)
		}
		in := m.lib.Code[pc]
		switch in.Op {
		case NopN:
		case MovI:
			m.Regs[in.Rd] = in.Imm
		case MovR:
			m.Regs[in.Rd] = m.Regs[in.Rs]
		case Ldrb:
			addr := m.Regs[in.Rs] + in.Imm
			if addr < 0 || addr >= MemSize {
				return fmt.Errorf("%w: ldrb at %#x (pc %d)", ErrMemFault, addr, pc)
			}
			m.Regs[in.Rd] = 0
			if addr < int64(len(m.mem)) {
				m.Regs[in.Rd] = int64(m.mem[addr])
			}
		case Strb:
			addr := m.Regs[in.Rs] + in.Imm
			if addr < 0 || addr >= MemSize {
				return fmt.Errorf("%w: strb at %#x (pc %d)", ErrMemFault, addr, pc)
			}
			m.grow(addr + 1)
			m.mem[addr] = byte(m.Regs[in.Rd])
		case AddR:
			m.Regs[in.Rd] = m.Regs[in.Rs] + m.Regs[in.Rt]
		case SubR:
			m.Regs[in.Rd] = m.Regs[in.Rs] - m.Regs[in.Rt]
		case XorR:
			m.Regs[in.Rd] = m.Regs[in.Rs] ^ m.Regs[in.Rt]
		case AndR:
			m.Regs[in.Rd] = m.Regs[in.Rs] & m.Regs[in.Rt]
		case OrrR:
			m.Regs[in.Rd] = m.Regs[in.Rs] | m.Regs[in.Rt]
		case AddI:
			m.Regs[in.Rd] = m.Regs[in.Rs] + in.Imm
		case Cmp:
			m.flags = cmp64(m.Regs[in.Rs], m.Regs[in.Rt])
		case CmpI:
			m.flags = cmp64(m.Regs[in.Rs], in.Imm)
		case B:
			pc = in.Target
			continue
		case Beq:
			if m.flags == 0 {
				pc = in.Target
				continue
			}
		case Bne:
			if m.flags != 0 {
				pc = in.Target
				continue
			}
		case Blt:
			if m.flags < 0 {
				pc = in.Target
				continue
			}
		case Bge:
			if m.flags >= 0 {
				pc = in.Target
				continue
			}
		case Bl:
			entry, ok := m.lib.FindSymbol(in.Sym)
			if !ok {
				return fmt.Errorf("%w: bl %q (pc %d)", ErrNoSymbol, in.Sym, pc)
			}
			frames = append(frames, frame{ret: pc + 1})
			pc = entry
			continue
		case Svc:
			if err := m.trap(in.Imm); err != nil {
				return err
			}
		case Ret:
			if len(frames) == 0 {
				return nil
			}
			pc = frames[len(frames)-1].ret
			frames = frames[:len(frames)-1]
			continue
		case Push:
			m.stack = append(m.stack, m.Regs[in.Rd])
		case Pop:
			if len(m.stack) == 0 {
				return fmt.Errorf("nativebin: pop on empty stack (pc %d)", pc)
			}
			m.Regs[in.Rd] = m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
		default:
			return fmt.Errorf("nativebin: invalid opcode %d at pc %d", in.Op, pc)
		}
		pc++
	}
}

func (m *Machine) trap(num int64) error {
	if num == SysExit {
		m.exited = true
		return nil
	}
	if m.sys == nil {
		m.Regs[0] = -1
		return nil
	}
	args := [4]int64{m.Regs[0], m.Regs[1], m.Regs[2], m.Regs[3]}
	res, err := m.sys.Syscall(m, num, args)
	if err != nil {
		return fmt.Errorf("nativebin: svc %d: %w", num, err)
	}
	m.Regs[0] = res
	return nil
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
