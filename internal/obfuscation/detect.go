// Package obfuscation implements both sides of the paper's §III-D
// obfuscation study: detectors for the five techniques of Table VI
// (lexical obfuscation, reflection, native code, DEX encryption/loading,
// anti-decompilation) and working obfuscators that apply them — a
// ProGuard-style lexical renamer, a Bangcle-style DEX-encryption packer
// with a native decryptor stub, and an anti-decompilation transform
// exploiting the decompiler bug.
package obfuscation

import (
	"strings"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/apktool"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/words"
)

// Technique names, in Table VI row order.
const (
	TechLexical       = "Lexical"
	TechReflection    = "Reflection"
	TechNative        = "Native"
	TechDEXEncryption = "DEX encryption"
	TechAntiDecompile = "Anti-decompilation"
)

// AllTechniques lists the measured techniques in Table VI order.
var AllTechniques = []string{
	TechLexical, TechReflection, TechNative, TechDEXEncryption, TechAntiDecompile,
}

// LexicalThreshold is the meaningful-identifier fraction below which an
// app counts as lexically obfuscated.
const LexicalThreshold = 0.5

// Report is the per-app obfuscation assessment.
type Report struct {
	Lexical       bool
	Reflection    bool
	Native        bool
	DEXEncryption bool
	AntiDecompile bool
	// MeaningfulFraction is the lexical score that produced Lexical.
	MeaningfulFraction float64
}

// Has returns the flag for a technique name.
func (r Report) Has(tech string) bool {
	switch tech {
	case TechLexical:
		return r.Lexical
	case TechReflection:
		return r.Reflection
	case TechNative:
		return r.Native
	case TechDEXEncryption:
		return r.DEXEncryption
	case TechAntiDecompile:
		return r.AntiDecompile
	default:
		return false
	}
}

// Detector runs the obfuscation analysis. The zero value uses the default
// dictionary and decompiler.
type Detector struct {
	// Dict overrides the word database (nil = embedded default).
	Dict *words.DB
	// Tool overrides the decompiler used for the anti-decompilation probe.
	Tool apktool.Tool
}

func (d *Detector) dict() *words.DB {
	if d.Dict != nil {
		return d.Dict
	}
	return words.Default()
}

// AnalyzeUnpacked assesses an already-unpacked app.
func (d *Detector) AnalyzeUnpacked(u *apktool.Unpacked) Report {
	var r Report
	if u.Dex != nil {
		// Framework-override names (onCreate, onClick*, ...) cannot be
		// renamed by ProGuard, so they carry no signal about developer
		// naming; judge only the renameable identifiers.
		var ids []string
		for _, id := range dex.Identifiers(u.Dex) {
			if strings.HasPrefix(id, "on") {
				continue
			}
			ids = append(ids, id)
		}
		r.MeaningfulFraction = d.dict().MeaningfulFraction(ids)
		r.Lexical = r.MeaningfulFraction < LexicalThreshold
		r.Reflection = usesReflection(u.Dex)
	}
	r.Native = len(u.APK.NativeLibs) > 0 || invokesNativeLoad(u.Dex)
	r.DEXEncryption = d.detectPacker(u)
	return r
}

// usesReflection reports any java.lang.reflect usage or the
// Class.forName/getMethod bootstrap.
func usesReflection(df *dex.File) bool {
	for _, ref := range df.InvokedRefs() {
		if strings.HasPrefix(ref.Class, "java.lang.reflect.") {
			return true
		}
		if ref.Class == "java.lang.Class" &&
			(ref.Name == "forName" || ref.Name == "getMethod" || ref.Name == "getDeclaredMethod") {
			return true
		}
	}
	return false
}

// invokesNativeLoad reports JNI load entry point usage in the bytecode.
func invokesNativeLoad(df *dex.File) bool {
	if df == nil {
		return false
	}
	for _, ref := range df.InvokedRefs() {
		if (ref.Class == "java.lang.System" && (ref.Name == "loadLibrary" || ref.Name == "load")) ||
			(ref.Class == "java.lang.Runtime" && ref.Name == "load0") {
			return true
		}
	}
	return false
}

// detectPacker applies the paper's three-rule DEX-encryption
// identification (§III-D):
//
//  1. android:name is set and a class loader is instantiated in that
//     class;
//  2. not every manifest component is present in the decompiled code, and
//     a bytecode-capable file exists locally;
//  3. the container loads a local native library through the JNI (the
//     decryptor lives in native code).
func (d *Detector) detectPacker(u *apktool.Unpacked) bool {
	appClass := u.APK.Manifest.Application.Name
	if appClass == "" || u.Dex == nil {
		return false
	}
	container := u.Dex.FindClass(appClass)
	if container == nil {
		return false
	}
	// Rule 1: class loader created inside the container class.
	if !classCreatesLoader(container) {
		return false
	}
	// Rule 2a: some declared component missing from decompiled code.
	missing := false
	for _, comp := range u.APK.Manifest.Components() {
		if u.Dex.FindClass(comp.Name) == nil {
			missing = true
			break
		}
	}
	if !missing {
		return false
	}
	// Rule 2b: a local file in a bytecode-capable format.
	if !hasBytecodeCapableAsset(u.APK) {
		return false
	}
	// Rule 3: container invokes the JNI to load a local .so.
	return classLoadsNative(container) && len(u.APK.NativeLibs) > 0
}

func classCreatesLoader(c *dex.Class) bool {
	for _, m := range c.Methods {
		for _, in := range m.Code {
			if in.Op == dex.OpNewInstance &&
				(in.Str == "dalvik.system.DexClassLoader" || in.Str == "dalvik.system.PathClassLoader") {
				return true
			}
			if in.Op.IsInvoke() && in.Method.Name == "<init>" &&
				(in.Method.Class == "dalvik.system.DexClassLoader" || in.Method.Class == "dalvik.system.PathClassLoader") {
				return true
			}
		}
	}
	return false
}

func classLoadsNative(c *dex.Class) bool {
	for _, m := range c.Methods {
		for _, in := range m.Code {
			if !in.Op.IsInvoke() {
				continue
			}
			if (in.Method.Class == "java.lang.System" && (in.Method.Name == "loadLibrary" || in.Method.Name == "load")) ||
				(in.Method.Class == "java.lang.Runtime" && in.Method.Name == "load0") {
				return true
			}
		}
	}
	return false
}

// bytecodeExtensions are formats that can carry loadable bytecode
// (paper §II).
var bytecodeExtensions = []string{".dex", ".jar", ".apk", ".zip", ".odex", ".enc", ".dat", ".bin"}

func hasBytecodeCapableAsset(a *apk.APK) bool {
	for name := range a.Assets {
		lower := strings.ToLower(name)
		for _, ext := range bytecodeExtensions {
			if strings.HasSuffix(lower, ext) {
				return true
			}
		}
	}
	return false
}

// StaticDCLFilter is the pre-filter of the pipeline (Fig. 1): it reports
// whether the decompiled IR contains DEX-loading or native-loading code at
// all — existence, not reachability (paper §III-A).
type StaticDCLFilter struct {
	// HasDexDCL is true when a class loader construction appears.
	HasDexDCL bool
	// HasNativeDCL is true when a JNI load call or bundled .so appears.
	HasNativeDCL bool
}

// PreFilter scans an unpacked app for DCL-related code.
func PreFilter(u *apktool.Unpacked) StaticDCLFilter {
	var f StaticDCLFilter
	if u.Dex != nil {
		for _, c := range u.Dex.Classes {
			if classCreatesLoader(c) {
				f.HasDexDCL = true
			}
			if classLoadsNative(c) {
				f.HasNativeDCL = true
			}
			if f.HasDexDCL && f.HasNativeDCL {
				break
			}
		}
	}
	if len(u.APK.NativeLibs) > 0 {
		f.HasNativeDCL = true
	}
	return f
}
