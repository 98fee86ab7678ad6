package core

import (
	"fmt"
	"strings"
	"sync"

	"github.com/dydroid/dydroid/internal/android"
	"github.com/dydroid/dydroid/internal/vm"
)

// LogRoot is the external-storage directory where the DCL log and dumped
// binaries land (paper §IV: "The log of our dynamic analysis and the
// dumped loaded code are stored in the external storage of the device") —
// the reason DyDroid repackages apps with WRITE_EXTERNAL_STORAGE.
const LogRoot = android.ExternalRoot + "dydroid/"

// Logger is the framework instrumentation: it implements vm.Hooks,
// recording every DCL event with its stack trace, pushing loaded paths
// into the interception queue, blocking delete/rename on queued files,
// and copying the queued binaries when the run ends (the interceptor,
// FinalizeInterception). The blocking queue keeps temporary files alive
// until then — the mutual-exclusion mechanism of §III-B.
type Logger struct {
	appPkg  string
	storage *android.Storage
	// DisableBlocking turns off the delete/rename interception queue (the
	// ablation measuring how many temporary loaded files would be lost).
	DisableBlocking bool

	mu     sync.Mutex
	events []*DCLEvent
	queue  map[string]bool
	logBuf strings.Builder
	// logErr remembers a storage failure while persisting logs, surfaced
	// to the pipeline's exception handling.
	logErr error
}

// NewLogger creates the instrumentation for one app run.
func NewLogger(appPkg string, storage *android.Storage) *Logger {
	return &Logger{appPkg: appPkg, storage: storage, queue: make(map[string]bool)}
}

// Events returns the logged DCL events in order.
func (l *Logger) Events() []*DCLEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*DCLEvent(nil), l.events...)
}

// LogError returns the first storage failure hit while persisting the
// analysis log, if any.
func (l *Logger) LogError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.logErr
}

// OnClassLoaderInit implements vm.Hooks: one event per file on the
// dexPath, each queued for interception.
func (l *Logger) OnClassLoaderInit(kind vm.LoaderKind, dexPath, optimizedDir string, stack []vm.StackElement) {
	for _, path := range strings.Split(dexPath, ":") {
		if path == "" {
			continue
		}
		l.record(&DCLEvent{
			Kind:         KindDex,
			API:          string(kind),
			Path:         path,
			OptimizedDir: optimizedDir,
			Stack:        stack,
		})
	}
}

// OnNativeLoad implements vm.Hooks.
func (l *Logger) OnNativeLoad(api vm.NativeLoadAPI, libPath string, stack []vm.StackElement) {
	l.record(&DCLEvent{
		Kind:      KindNative,
		API:       string(api),
		Path:      libPath,
		Stack:     stack,
		SystemLib: android.IsSystemLib(libPath),
	})
}

func (l *Logger) record(ev *DCLEvent) {
	if len(ev.Stack) > 0 {
		ev.CallSite = ev.Stack[0].Class
	}
	ev.Entity = classifyEntity(l.appPkg, ev.CallSite)
	// System binaries are logged but not queued or intercepted
	// (paper: "Our DCL logger skips the system binaries").
	l.mu.Lock()
	if !ev.SystemLib {
		l.queue[ev.Path] = true
	}
	l.events = append(l.events, ev)
	l.mu.Unlock()
	l.appendLog(ev)
}

// appendLog persists a log line to external storage as the app (the
// injected permission makes this legal post-rewrite).
func (l *Logger) appendLog(ev *DCLEvent) {
	l.mu.Lock()
	fmt.Fprintf(&l.logBuf, "%s %s path=%s callsite=%s entity=%s\n",
		ev.Kind, ev.API, ev.Path, ev.CallSite, ev.Entity)
	content := l.logBuf.String()
	l.mu.Unlock()
	err := l.storage.WriteFile(LogRoot+l.appPkg+".log", []byte(content), l.appPkg, true)
	if err != nil {
		l.mu.Lock()
		if l.logErr == nil {
			l.logErr = err
		}
		l.mu.Unlock()
	}
}

// FinalizeInterception reads every queued loaded file that has not been
// copied yet — the dump phase of the paper's design. Files deleted during
// the run (only possible when blocking is disabled) are lost, which is
// precisely what the delete-blocking ablation measures.
func (l *Logger) FinalizeInterception() {
	l.mu.Lock()
	events := append([]*DCLEvent(nil), l.events...)
	l.mu.Unlock()
	for _, ev := range events {
		if ev.SystemLib || ev.Intercepted != nil {
			continue
		}
		if data, err := l.storage.ReadFile(ev.Path); err == nil {
			ev.Intercepted = data
		}
	}
}

// DumpIntercepted writes copies of all intercepted binaries under the
// LogRoot, returning the paths written.
func (l *Logger) DumpIntercepted() ([]string, error) {
	l.mu.Lock()
	events := append([]*DCLEvent(nil), l.events...)
	l.mu.Unlock()
	var out []string
	for i, ev := range events {
		if ev.Intercepted == nil {
			continue
		}
		dst := fmt.Sprintf("%sintercepted/%s/%d_%s", LogRoot, l.appPkg, i, baseName(ev.Path))
		if err := l.storage.WriteFile(dst, ev.Intercepted, l.appPkg, true); err != nil {
			return out, fmt.Errorf("core: dump intercepted: %w", err)
		}
		out = append(out, dst)
	}
	return out, nil
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// OnFileDelete implements vm.Hooks: deletes of queued files silently fail
// (the paper's mutual-exclusion trick preserving temporary ad-library
// files).
func (l *Logger) OnFileDelete(path string) bool {
	if l.DisableBlocking {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queue[path]
}

// OnFileRename implements vm.Hooks: renames of queued files are blocked.
func (l *Logger) OnFileRename(oldPath, newPath string) bool {
	if l.DisableBlocking {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queue[oldPath]
}

// classifyEntity compares the call-site class package against the
// application package (paper §III-B: "the package name can be used to
// determine if the DCL event was triggered by the main app or a third
// party library").
func classifyEntity(appPkg, callSite string) Entity {
	if callSite == "" {
		return EntityUnknown
	}
	if callSite == appPkg || strings.HasPrefix(callSite, appPkg+".") {
		return EntityOwn
	}
	return EntityThirdParty
}
