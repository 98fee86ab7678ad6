package vm

import "fmt"

// CodeKind is the kind of code a DCL entry point loads.
type CodeKind string

// Code kinds.
const (
	CodeDex    CodeKind = "dex"
	CodeNative CodeKind = "native"
)

// EntryPoint is one DCL choke point: the framework method Class.Method
// that loads code of Kind, and the API label its hook reports (a
// LoaderKind for a class loader, a NativeLoadAPI for a JNI load).
type EntryPoint struct {
	Class  string
	Method string
	Kind   CodeKind
	API    string
	// load runs the entry point; api is the row's API label.
	load func(m *VM, api string, args []Value) error
}

// entryPoints is the complete table of DCL entry points. The VM
// dispatches every load through it and the static pre-filter scans
// bytecode for it, so the two cannot disagree about which calls load
// code. It is built at package init and never written after.
var entryPoints = [...]EntryPoint{
	{string(LoaderDex), "<init>", CodeDex, string(LoaderDex),
		// DexClassLoader(dexPath, optimizedDirectory, librarySearchPath, parent)
		func(m *VM, api string, args []Value) error {
			return m.initLoader(LoaderKind(api), args, argString(args, 2), 4, nil)
		}},
	{string(LoaderPath), "<init>", CodeDex, string(LoaderPath),
		// PathClassLoader(dexPath, parent)
		func(m *VM, api string, args []Value) error {
			return m.initLoader(LoaderKind(api), args, "", 2, nil)
		}},
	{SecureLoaderClass, "<init>", CodeDex, SecureLoaderClass,
		// SecureDexClassLoader(dexPath, optimizedDir, libSearchPath, parent,
		// expectedSHA256Hex)
		func(m *VM, api string, args []Value) error {
			return m.initLoader(LoaderKind(api), args, argString(args, 2), 4, func(dexPath string) error {
				return m.verifyPinned(dexPath, argString(args, 5))
			})
		}},
	{"java.lang.System", "load", CodeNative, string(Load),
		func(m *VM, api string, args []Value) error {
			return m.loadNativePath(NativeLoadAPI(api), argString(args, 0))
		}},
	{"java.lang.System", "loadLibrary", CodeNative, string(LoadLibrary),
		func(m *VM, api string, args []Value) error {
			return m.loadLibraryByName(NativeLoadAPI(api), argString(args, 0))
		}},
	{"java.lang.Runtime", "load0", CodeNative, string(LoadZero),
		// args[0] is the Runtime receiver.
		func(m *VM, api string, args []Value) error {
			return m.loadNativePath(NativeLoadAPI(api), argString(args, 1))
		}},
}

// EntryPoints returns a copy of the DCL entry-point table.
func EntryPoints() []EntryPoint {
	return append([]EntryPoint(nil), entryPoints[:]...)
}

// LookupEntryPoint returns the entry point class.method, if it is one.
// A new-instance of a loader class is the lookup of (class, "<init>").
func LookupEntryPoint(class, method string) (EntryPoint, bool) {
	if e := entryPoint(class, method); e != nil {
		return *e, true
	}
	return EntryPoint{}, false
}

// entryPoint is the VM's allocation-free lookup, run on every invoke.
func entryPoint(class, method string) *EntryPoint {
	for i := range entryPoints {
		if e := &entryPoints[i]; e.Class == class && e.Method == method {
			return e
		}
	}
	return nil
}

// initLoader runs a class-loader constructor whose receiver is args[0],
// dexPath args[1] and parent loader args[parent]. The hook fires before
// any file is consumed, exactly like the paper's instrumented
// constructor; verify, when set, vets dexPath after the hook and before
// any file is decoded.
func (m *VM) initLoader(kind LoaderKind, args []Value, optDir string, parent int, verify func(dexPath string) error) error {
	self := argRef(args, 0)
	if self == nil {
		return fmt.Errorf("%w: %s.<init> without receiver", ErrAppCrash, kind)
	}
	dexPath := argString(args, 1)
	m.Hooks.OnClassLoaderInit(kind, dexPath, optDir, m.StackTrace())
	if verify != nil {
		if err := verify(dexPath); err != nil {
			return err
		}
	}
	cl, err := m.newClassLoader(kind, dexPath, optDir, parentLoader(args, parent))
	if err != nil {
		return fmt.Errorf("%w: %w", ErrAppCrash, err)
	}
	self.Native = cl
	return nil
}
