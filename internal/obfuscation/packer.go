package obfuscation

import (
	"fmt"

	"github.com/dydroid/dydroid/internal/apk"
	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
)

// Packer artifact names.
const (
	// StubAppClass is the injected Application container (android:name).
	StubAppClass = "com.shell.StubApp"
	// PayloadAsset is the encrypted original classes.dex inside assets/.
	PayloadAsset = "payload.enc"
	// ShellLib is the native decryptor library.
	ShellLib = "libshell.so"
)

// Pack applies Bangcle/Ijiami-style DEX encryption (paper §III-D): the
// original classes.dex is XOR-keystream-encrypted into an asset, a stub
// classes.dex containing only the container Application subclass replaces
// it, and a native decryptor library is bundled. At process start the
// container (run before any component because it is the android:name
// class) loads the native library via JNI, decrypts the payload into the
// app's private cache, and creates a DexClassLoader over it — after which
// the original components resolve normally. Static analysis of the
// shipped classes.dex sees none of the original code.
func Pack(a *apk.APK, key byte) (*apk.APK, error) {
	if a.Dex == nil {
		return nil, fmt.Errorf("obfuscation: pack: app has no classes.dex")
	}
	if key == 0 {
		return nil, fmt.Errorf("obfuscation: pack: key must be non-zero")
	}
	pkg := a.Manifest.Package
	enc := make([]byte, len(a.Dex))
	for i, b := range a.Dex {
		enc[i] = b ^ key
	}

	srcPath := "/data/data/" + pkg + "/assets/" + PayloadAsset
	dstPath := "/data/data/" + pkg + "/cache/app.dex"
	odexDir := "/data/data/" + pkg + "/cache/odex"

	stub, err := buildStubDex(srcPath, dstPath, odexDir, key)
	if err != nil {
		return nil, err
	}
	decryptor, err := nativebin.Encode(buildDecryptorLib())
	if err != nil {
		return nil, fmt.Errorf("obfuscation: pack: %w", err)
	}

	out := a.Clone()
	out.Dex = stub
	out.Manifest.Application.Name = StubAppClass
	if out.Assets == nil {
		out.Assets = make(map[string][]byte)
	}
	out.Assets[PayloadAsset] = enc
	if out.NativeLibs == nil {
		out.NativeLibs = make(map[string][]byte)
	}
	out.NativeLibs[ShellLib] = decryptor
	return out, nil
}

// buildStubDex emits the container class: onCreate loads the shell
// library, calls the native decrypt(src, dst, key), and constructs a
// DexClassLoader over the decrypted payload.
func buildStubDex(srcPath, dstPath, odexDir string, key byte) ([]byte, error) {
	b := dex.NewBuilder()
	cls := b.Class(StubAppClass, "android.app.Application")
	cls.NativeMethod("decrypt", "I", "Ljava/lang/String;", "Ljava/lang/String;", "I")
	m := cls.Method("onCreate", dex.ACCPublic, 8, "V")
	m.ConstString(1, "shell").
		InvokeStatic(dex.MethodRef{Class: "java.lang.System", Name: "loadLibrary",
			Sig: "(Ljava/lang/String;)V"}, 1)
	m.ConstString(2, srcPath).
		ConstString(3, dstPath).
		Const(4, int64(key)).
		InvokeVirtual(dex.MethodRef{Class: StubAppClass, Name: "decrypt",
			Sig: "(Ljava/lang/String;Ljava/lang/String;I)I"}, 0, 2, 3, 4).
		MoveResult(5).
		IfNez(5, "fail").
		ConstString(6, odexDir).
		NewInstance(7, "dalvik.system.DexClassLoader").
		InvokeDirect(dex.MethodRef{Class: "dalvik.system.DexClassLoader", Name: "<init>",
			Sig: "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/ClassLoader;)V"},
			7, 3, 6, 0, 0).
		Label("fail").
		ReturnVoid().
		Done()
	return dex.Encode(b.File())
}

// decryptBufAddr is the scratch buffer the decryptor streams chunks
// through; it sits far above the JNI marshaling heap.
const decryptBufAddr = 0x30000

// buildDecryptorLib emits the native decryptor:
// Java_com_shell_StubApp_decrypt(srcPtr, dstPtr, key) reads the encrypted
// asset in chunks, XORs each byte with the key, and writes the plaintext
// DEX — a faithful miniature of the packers' native-layer decryption
// (paper: "the job of decryption is normally implemented in native code
// for the sake of security").
func buildDecryptorLib() *nativebin.Library {
	b := nativebin.NewBuilder(ShellLib, "arm")
	b.Symbol("JNI_OnLoad").MovI(0, 0).Ret()
	b.Symbol("Java_com_shell_StubApp_decrypt").
		MovR(5, 1). // r5 = dst path ptr
		MovR(6, 2). // r6 = key
		// open(src, read)
		MovI(1, 0).
		Svc(nativebin.SysOpen).
		MovR(7, 0). // r7 = src fd
		CmpI(7, 0).
		Blt("error").
		// open(dst, create)
		MovR(0, 5).
		MovI(1, 1).
		Svc(nativebin.SysOpen).
		MovR(8, 0). // r8 = dst fd
		CmpI(8, 0).
		Blt("error").
		Label("rloop").
		// n = read(src, buf, 256)
		MovR(0, 7).
		MovI(1, decryptBufAddr).
		MovI(2, 256).
		Svc(nativebin.SysRead).
		CmpI(0, 0).
		Beq("wdone").
		Blt("error").
		MovR(9, 0). // r9 = n
		// xor loop
		MovI(3, 0).
		Label("xloop").
		Cmp(3, 9).
		Bge("xdone").
		MovI(4, decryptBufAddr).
		Add(4, 4, 3).
		Ldrb(10, 4, 0).
		Xor(10, 10, 6).
		Strb(10, 4, 0).
		AddI(3, 3, 1).
		B("xloop").
		Label("xdone").
		// write(dst, buf, n)
		MovR(0, 8).
		MovI(1, decryptBufAddr).
		MovR(2, 9).
		Svc(nativebin.SysWrite).
		B("rloop").
		Label("wdone").
		MovR(0, 7).
		Svc(nativebin.SysClose).
		MovR(0, 8).
		Svc(nativebin.SysClose).
		MovI(0, 0).
		Ret().
		Label("error").
		MovI(0, 1).
		Ret()
	return b.Build()
}

// AddAntiDecompilation inserts a hostile decoy class whose simple name is
// not a valid Java identifier: Dalvik loads the file, old decompilers
// crash on it (Table VI's anti-decompilation row). The input is not
// modified.
func AddAntiDecompilation(a *apk.APK) (*apk.APK, error) {
	if a.Dex == nil {
		return nil, fmt.Errorf("obfuscation: anti-decompilation: app has no classes.dex")
	}
	df, err := dex.Decode(a.Dex)
	if err != nil {
		return nil, fmt.Errorf("obfuscation: anti-decompilation: %w", err)
	}
	df.Classes = append(df.Classes, &dex.Class{
		Name:  a.Manifest.Package + ".0decoy",
		Super: "java.lang.Object",
		Flags: dex.ACCPublic | dex.ACCSynthetic,
	})
	encoded, err := dex.Encode(df)
	if err != nil {
		return nil, fmt.Errorf("obfuscation: anti-decompilation: %w", err)
	}
	out := a.Clone()
	out.Dex = encoded
	return out, nil
}
