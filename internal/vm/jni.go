package vm

import (
	"fmt"
	"strings"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
)

// loadedLib is one native library mapped into the app process. The machine
// persists across JNI calls so library state (data segment) survives.
type loadedLib struct {
	path    string
	lib     *nativebin.Library
	machine *nativebin.Machine
}

// MapLibraryName implements System.mapLibraryName: "shell" ->
// "libshell.so".
func MapLibraryName(name string) string {
	if strings.HasPrefix(name, "lib") && strings.HasSuffix(name, ".so") {
		return name
	}
	return "lib" + name + ".so"
}

// loadLibraryByName implements System.loadLibrary(name): map the name,
// search the app's native library directory then /system/lib, fire the
// hook with the resolved path, and load.
func (m *VM) loadLibraryByName(api NativeLoadAPI, name string) error {
	fileName := MapLibraryName(name)
	candidates := []string{
		m.App.DataDir + "lib/" + fileName,
		android.SystemLibRoot + fileName,
	}
	for _, path := range candidates {
		if m.Device.Storage.Exists(path) {
			return m.loadNativeResolved(api, path)
		}
	}
	return fmt.Errorf("%w: UnsatisfiedLinkError: %s not found", ErrAppCrash, fileName)
}

// loadNativePath implements System.load(path) / Runtime.load0(path) with
// an absolute path.
func (m *VM) loadNativePath(api NativeLoadAPI, path string) error {
	if !m.Device.Storage.Exists(path) {
		return fmt.Errorf("%w: UnsatisfiedLinkError: %s not found", ErrAppCrash, path)
	}
	return m.loadNativeResolved(api, path)
}

func (m *VM) loadNativeResolved(api NativeLoadAPI, path string) error {
	m.Hooks.OnNativeLoad(api, path, m.StackTrace())
	data, err := m.Device.Storage.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAppCrash, err)
	}
	lib, err := nativebin.Decode(data)
	if err != nil {
		return fmt.Errorf("%w: UnsatisfiedLinkError: %s: %w", ErrAppCrash, path, err)
	}
	ll := &loadedLib{path: path, lib: lib}
	ll.machine = nativebin.NewMachine(lib, &sysBridge{vm: m})
	m.nativeLibs = append(m.nativeLibs, ll)
	if _, ok := lib.FindSymbol("JNI_OnLoad"); ok {
		if _, err := ll.machine.Call("JNI_OnLoad"); err != nil {
			return fmt.Errorf("%w: JNI_OnLoad: %w", ErrAppCrash, err)
		}
	}
	return nil
}

// jniSymbol renders the JNI function name for a native method:
// Java_com_shell_StubApp_decrypt.
func jniSymbol(cls *dex.Class, method *dex.Method) string {
	return "Java_" + strings.ReplaceAll(cls.Name, ".", "_") + "_" + method.Name
}

// jniInvoke dispatches an ACC_NATIVE method to the most recently loaded
// library exporting its JNI symbol. String arguments are marshaled into
// machine memory; the integer result comes back as the return value.
func (m *VM) jniInvoke(cls *dex.Class, method *dex.Method, args []Value) (Value, error) {
	sym := jniSymbol(cls, method)
	for i := len(m.nativeLibs) - 1; i >= 0; i-- {
		ll := m.nativeLibs[i]
		if _, ok := ll.lib.FindSymbol(sym); !ok {
			continue
		}
		// Marshal: skip the receiver (args[0]) for instance methods; JNI
		// passes (JNIEnv*, jobject) which our convention folds away.
		nargs := args
		if method.Flags&dex.ACCStatic == 0 && len(nargs) > 0 {
			nargs = nargs[1:]
		}
		regs := make([]int64, 0, len(nargs))
		for _, a := range nargs {
			switch a.Kind {
			case KindString:
				addr, err := ll.machine.WriteString(a.Str)
				if err != nil {
					return Null, fmt.Errorf("%w: jni marshal: %w", ErrAppCrash, err)
				}
				regs = append(regs, addr)
			default:
				regs = append(regs, a.AsInt())
			}
		}
		res, err := ll.machine.Call(sym, regs...)
		if err != nil {
			return Null, fmt.Errorf("%w: native %s: %w", ErrAppCrash, sym, err)
		}
		return IntVal(res), nil
	}
	return Null, fmt.Errorf("%w: UnsatisfiedLinkError: %s", ErrAppCrash, sym)
}

// sysBridge routes native syscalls into the simulated system: file I/O to
// device storage (as the app's identity), ptrace to the process table,
// network sends to the event log, time to the device clock. It is how
// native malware behaviour becomes observable.
type sysBridge struct {
	vm *VM
}

// Syscall implements nativebin.SyscallHandler.
func (b *sysBridge) Syscall(mem nativebin.Memory, num int64, args [4]int64) (int64, error) {
	m := b.vm
	switch num {
	case nativebin.SysOpen:
		path, err := mem.ReadCString(args[0])
		if err != nil {
			return -1, err
		}
		create := args[1] != 0
		fd := m.nextFD
		m.nextFD++
		if create {
			m.fds[fd] = &fdEntry{path: path, dirty: true}
			return fd, nil
		}
		data, err := m.Device.Storage.ReadFile(path)
		if err != nil {
			return -1, nil // ENOENT-style failure, not a VM fault
		}
		m.fds[fd] = &fdEntry{path: path, data: data}
		return fd, nil

	case nativebin.SysRead:
		f, ok := m.fds[args[0]]
		if !ok {
			return -1, nil
		}
		n := args[2]
		if rem := int64(len(f.data)) - f.pos; n > rem {
			n = rem
		}
		if n <= 0 {
			return 0, nil
		}
		if err := mem.WriteBytes(args[1], f.data[f.pos:f.pos+n]); err != nil {
			return -1, err
		}
		f.pos += n
		return n, nil

	case nativebin.SysWrite:
		f, ok := m.fds[args[0]]
		if !ok {
			return -1, nil
		}
		p, err := mem.ReadBytes(args[1], args[2])
		if err != nil {
			return -1, err
		}
		f.data = append(f.data, p...)
		f.dirty = true
		return args[2], nil

	case nativebin.SysClose:
		f, ok := m.fds[args[0]]
		if !ok {
			return -1, nil
		}
		delete(m.fds, args[0])
		if f.dirty && f.path != "" {
			if err := m.Device.Storage.WriteFile(f.path, f.data, m.App.Package, m.App.HasExternalWrite()); err != nil {
				return -1, nil
			}
		}
		return 0, nil

	case nativebin.SysUnlink:
		path, err := mem.ReadCString(args[0])
		if err != nil {
			return -1, err
		}
		if m.Hooks.OnFileDelete(path) {
			return 0, nil // blocked silently
		}
		if err := m.Device.Storage.Delete(path, m.App.Package); err != nil {
			return -1, nil
		}
		return 0, nil

	case nativebin.SysTime:
		return m.Device.Now().Unix(), nil

	case nativebin.SysGetuid:
		return int64(m.Process.UID), nil

	case nativebin.SysSetuid:
		// A successful setuid(0) models the root exploit the Chathook
		// malware runs before attaching ptrace; the event makes the
		// escalation observable.
		if args[0] == 0 {
			m.Process.UID = 0
			m.event("root", "setuid(0) via native exploit", "")
			return 0, nil
		}
		m.Process.UID = int(args[0])
		return 0, nil

	case nativebin.SysPtrace:
		target := m.Device.FindProcessByPID(int(args[0]))
		if target == nil {
			return -1, nil
		}
		if err := m.Device.PtraceAttach(m.Process, target.PID); err != nil {
			return -1, nil
		}
		m.event("ptrace", target.Package, "")
		return 0, nil

	case nativebin.SysConnect:
		host, err := mem.ReadCString(args[0])
		if err != nil {
			return -1, err
		}
		if !m.Device.NetworkAvailable() {
			return -1, nil
		}
		fd := m.nextFD
		m.nextFD++
		m.fds[fd] = &fdEntry{path: "socket://" + host}
		return fd, nil

	case nativebin.SysSend:
		f, ok := m.fds[args[0]]
		if !ok {
			return -1, nil
		}
		p, err := mem.ReadBytes(args[1], args[2])
		if err != nil {
			return -1, err
		}
		m.event("transmit", f.path, string(p))
		return args[2], nil

	case nativebin.SysFindProc:
		pkg, err := mem.ReadCString(args[0])
		if err != nil {
			return -1, err
		}
		if p := m.Device.FindProcessByPackage(pkg); p != nil {
			return int64(p.PID), nil
		}
		return -1, nil

	case nativebin.SysRename:
		oldPath, err := mem.ReadCString(args[0])
		if err != nil {
			return -1, err
		}
		newPath, err := mem.ReadCString(args[1])
		if err != nil {
			return -1, err
		}
		if m.Hooks.OnFileRename(oldPath, newPath) {
			return 0, nil
		}
		if err := m.Device.Storage.Rename(oldPath, newPath, m.App.Package, m.App.HasExternalWrite()); err != nil {
			return -1, nil
		}
		return 0, nil
	}
	return -1, nil
}
