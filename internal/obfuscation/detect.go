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
	"github.com/dydroid/dydroid/internal/vm"
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
// decompiler.
type Detector struct {
	// Tool overrides the decompiler used for the anti-decompilation probe.
	Tool apktool.Tool
}

// AnalyzeUnpacked assesses an already-unpacked app whose pre-filter
// result is f (PreFilter(u)): the native-code technique is the filter's
// native-DCL finding, so the bytecode is scanned for DCL once per app.
func (d *Detector) AnalyzeUnpacked(u *apktool.Unpacked, f StaticDCLFilter) Report {
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
		r.MeaningfulFraction = words.Default().MeaningfulFraction(ids)
		r.Lexical = r.MeaningfulFraction < LexicalThreshold
		r.Reflection = usesReflection(u.Dex)
	}
	r.Native = f.HasNativeDCL
	r.DEXEncryption = detectPacker(u)
	return r
}

// usesReflection reports any java.lang.reflect usage or the
// Class.forName/getMethod bootstrap.
func usesReflection(df *dex.File) bool {
	for _, c := range df.Classes {
		for _, m := range c.Methods {
			for i := range m.Code {
				if in := &m.Code[i]; in.Op.IsInvoke() && reflective(&in.Method) {
					return true
				}
			}
		}
	}
	return false
}

func reflective(ref *dex.MethodRef) bool {
	return strings.HasPrefix(ref.Class, "java.lang.reflect.") ||
		ref.Class == "java.lang.Class" &&
			(ref.Name == "forName" || ref.Name == "getMethod" || ref.Name == "getDeclaredMethod")
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
func detectPacker(u *apktool.Unpacked) bool {
	appClass := u.APK.Manifest.Application.Name
	if appClass == "" || u.Dex == nil {
		return false
	}
	container := u.Dex.FindClass(appClass)
	if container == nil {
		return false
	}
	// Rule 1: class loader created inside the container class.
	loadsDex, loadsNative := classDCL(container)
	if !loadsDex {
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
	return loadsNative && len(u.APK.NativeLibs) > 0
}

// classDCL reports which kinds of vm.EntryPoints a class's bytecode
// uses: a new-instance or an <init> invoke of a loader class loads DEX,
// an invoke of a JNI load method loads native code.
func classDCL(c *dex.Class) (loadsDex, loadsNative bool) {
	for _, m := range c.Methods {
		for i := range m.Code {
			in := &m.Code[i]
			var e vm.EntryPoint
			var ok bool
			switch {
			case in.Op == dex.OpNewInstance:
				e, ok = vm.LookupEntryPoint(in.Str, "<init>")
			case in.Op.IsInvoke():
				e, ok = vm.LookupEntryPoint(in.Method.Class, in.Method.Name)
			}
			if ok {
				loadsDex = loadsDex || e.Kind == vm.CodeDex
				loadsNative = loadsNative || e.Kind == vm.CodeNative
				if loadsDex && loadsNative {
					return true, true
				}
			}
		}
	}
	return loadsDex, loadsNative
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
	f := StaticDCLFilter{HasNativeDCL: len(u.APK.NativeLibs) > 0}
	if u.Dex != nil {
		for _, c := range u.Dex.Classes {
			loadsDex, loadsNative := classDCL(c)
			f.HasDexDCL = f.HasDexDCL || loadsDex
			f.HasNativeDCL = f.HasNativeDCL || loadsNative
			if f.HasDexDCL && f.HasNativeDCL {
				break
			}
		}
	}
	return f
}
