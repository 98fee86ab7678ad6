// Package vm implements the Dalvik-style virtual machine that executes
// SDEX application bytecode inside the simulated Android framework. It
// provides the class loaders, the JNI entry points, Java-style stack
// traces, and the instrumentation hook layer that stands in for DyDroid's
// modified Android 4.3.1 framework.
//
// All dynamic code loading flows through the choke points of one table,
// EntryPoints: three class-loader constructors (DexClassLoader,
// PathClassLoader and the pinning SecureDexClassLoader) and three JNI
// load calls (System.load, System.loadLibrary, Runtime.load0). That gives
// the hook layer the complete-mediation property the paper relies on
// (§II: "All DCL goes through one of these points"), and the static
// pre-filter scans for the same table.
package vm

import "github.com/dydroid/dydroid/internal/netsim"

// StackElement is one Java stack trace element (paper Fig. 2): the class
// and method of a frame.
type StackElement struct {
	Class  string
	Method string
}

// LoaderKind names a class loader: one of the two Dalvik loaders, or
// SecureLoaderClass.
type LoaderKind string

// The Dalvik class loader kinds.
const (
	LoaderDex  LoaderKind = "dalvik.system.DexClassLoader"
	LoaderPath LoaderKind = "dalvik.system.PathClassLoader"
)

// NativeLoadAPI distinguishes the JNI loading entry points.
type NativeLoadAPI string

// JNI load APIs. LoadZero is the ART-era Runtime.load0 the paper notes as
// the only addition needed for Android 7.1 coverage.
const (
	LoadLibrary NativeLoadAPI = "loadLibrary"
	Load        NativeLoadAPI = "load"
	LoadZero    NativeLoadAPI = "load0"
)

// Hooks is the framework instrumentation interface. DyDroid's dynamic
// analysis engine implements it; a zero NopHooks runs apps untraced.
// Implementations must tolerate concurrent calls from a single app run
// (the VM itself is single-threaded per app, but multiple VMs may share a
// hook sink).
type Hooks interface {
	// OnClassLoaderInit fires inside a class-loader constructor, before
	// the file is consumed. dexPath may list multiple
	// files separated by ':'; optimizedDir is where the ODEX lands. stack
	// is the Java stack trace at construction, topmost caller first.
	OnClassLoaderInit(kind LoaderKind, dexPath, optimizedDir string, stack []StackElement)

	// OnNativeLoad fires inside the JNI load entry points with the
	// resolved library path (after mapLibraryName and search-path
	// resolution).
	OnNativeLoad(api NativeLoadAPI, libPath string, stack []StackElement)

	// OnFileDelete fires before java.io.File.delete; returning true makes
	// the delete silently fail (the paper's mutual-exclusion trick that
	// keeps temporary ad-library DEX files alive for interception).
	OnFileDelete(path string) (block bool)

	// OnFileRename fires before java.io.File.renameTo; returning true
	// blocks the rename.
	OnFileRename(oldPath, newPath string) (block bool)
}

// NopHooks ignores all events and blocks nothing.
type NopHooks struct{}

// OnClassLoaderInit implements Hooks.
func (NopHooks) OnClassLoaderInit(LoaderKind, string, string, []StackElement) {}

// OnNativeLoad implements Hooks.
func (NopHooks) OnNativeLoad(NativeLoadAPI, string, []StackElement) {}

// OnFileDelete implements Hooks.
func (NopHooks) OnFileDelete(string) bool { return false }

// OnFileRename implements Hooks.
func (NopHooks) OnFileRename(string, string) bool { return false }

// interface satisfaction checks.
var (
	_ Hooks           = NopHooks{}
	_ netsim.Recorder = netsim.NopRecorder{}
)
