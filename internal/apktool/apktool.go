// Package apktool is the reverse-engineering toolchain analogue
// (baksmali/apktool): it unpacks an APK, decompiles classes.dex into the
// smali IR, and repacks rewritten apps (DyDroid injects
// WRITE_EXTERNAL_STORAGE so its on-device logs can be written).
//
// Two deliberate failure modes mirror the measurement reality:
//
//   - anti-decompilation: Dalvik accepts class names that are not valid
//     Java identifiers; Tool versions below FixedVersion crash on them
//     (the "implementation bug" of §III-D that 54 apps in Table VI
//     exploit);
//   - anti-repackaging: archives carrying the anti-repack marker defeat
//     the rewriter, producing the "Rewriting failure" rows of Table II.
package apktool

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"unicode"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
)

// Tool versions.
const (
	// BuggyVersion is the decompiler release with the anti-decompilation
	// bug, used for the paper-time measurement.
	BuggyVersion = 1
	// FixedVersion handles hostile class names.
	FixedVersion = 2
)

// Errors.
var (
	// ErrDecompile marks a decompiler crash (anti-decompilation or a
	// corrupted dex).
	ErrDecompile = errors.New("apktool: decompilation failed")
	// ErrRepack marks a rewriter failure (anti-repackaging).
	ErrRepack = errors.New("apktool: repackaging failed")
)

// Tool is one apktool installation.
type Tool struct {
	// Version selects decompiler behaviour; zero means BuggyVersion.
	Version int
}

func (t Tool) version() int {
	if t.Version == 0 {
		return BuggyVersion
	}
	return t.Version
}

// Unpacked is the result of unpacking and decompiling an APK.
type Unpacked struct {
	APK *apk.APK
	// Dex is the decoded bytecode, nil when the app ships none.
	Dex *dex.File

	smaliOnce sync.Once
	smali     map[string]string
}

// Smali returns the per-class smali IR text, disassembling on first use.
// The measurement pipeline only needs the decoded bytecode, so the
// (string-heavy) disassembly is deferred until a caller — apkinspect, the
// examples — actually asks for source.
func (u *Unpacked) Smali() map[string]string {
	u.smaliOnce.Do(func() {
		if u.Dex == nil {
			u.smali = make(map[string]string)
			return
		}
		u.smali = dex.Disassemble(u.Dex)
	})
	return u.smali
}

// Unpack parses the archive and decompiles its bytecode. Smali text is
// produced lazily via Unpacked.Smali.
func (t Tool) Unpack(data []byte) (*Unpacked, error) {
	a, err := apk.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("apktool: unpack: %w", err)
	}
	var df *dex.File
	if a.Dex != nil {
		df, err = dex.Decode(a.Dex)
	}
	return t.Decompile(a, df, err)
}

// Decompile is Unpack over an archive the caller already parsed and
// decoded: df is the decoded a.Dex (nil when the app ships none) and
// decodeErr the decoder's failure, which the decompiler reports as its
// own crash. The parsed and decoded objects are shared, not copied: the
// single-parse pipeline hands them on to the rewrite and dynamic stages.
func (t Tool) Decompile(a *apk.APK, df *dex.File, decodeErr error) (*Unpacked, error) {
	if decodeErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecompile, decodeErr)
	}
	if df != nil && t.version() < FixedVersion {
		for _, c := range df.Classes {
			if hostileClassName(c.Name) {
				return nil, fmt.Errorf("%w: invalid identifier in class %q (anti-decompilation)",
					ErrDecompile, c.Name)
			}
		}
	}
	return &Unpacked{APK: a, Dex: df}, nil
}

// hostileClassName reports whether the class's simple name is not a valid
// Java identifier — Dalvik runs it, old decompilers choke on it.
func hostileClassName(name string) bool {
	simple := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		simple = name[i+1:]
	}
	if simple == "" {
		return true
	}
	r := rune(simple[0])
	return unicode.IsDigit(r) || r == '-'
}

// RepackParsed rewrites an already-parsed app, adding
// WRITE_EXTERNAL_STORAGE to the manifest when absent. Archives protected
// by the anti-repackaging marker fail. It returns a rewritten deep copy
// without serializing. Callers that need archive bytes (installers, digests)
// apk.Build the result themselves — once, instead of per stage.
func (t Tool) RepackParsed(a *apk.APK) (*apk.APK, error) {
	if a.HasAntiRepack() {
		return nil, fmt.Errorf("%w: archive is protected against repackaging", ErrRepack)
	}
	cp := a.Clone()
	cp.Manifest.AddPermission(apk.WriteExternalStorage)
	return cp, nil
}
